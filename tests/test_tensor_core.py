import numpy as np
import pytest

from schmidt_lab.tensor_core import (
    AmplitudeMatrix,
    enlarged_grid,
    make_grid,
    normalize,
    sample_amplitude,
)


def test_make_grid_nodes_and_spacing():
    g = make_grid(0.0, 1.0, -2.0, 2.0, 5)
    assert g.dp == pytest.approx(0.25)
    assert g.dq == pytest.approx(1.0)
    np.testing.assert_allclose(g.p_nodes(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.q_nodes()[0] == -2.0 and g.q_nodes()[-1] == 2.0


def test_make_grid_rejects_bad_windows():
    with pytest.raises(ValueError):
        make_grid(1.0, 0.0, 0.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 2.0, 2.0, 4)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        make_grid(0.0, np.nan, 0.0, 1.0, 4)


def test_enlarged_grid_scales_about_centre_at_fixed_spacing():
    for n in (2, 64, 97, 400, 512, 800):
        # the momentum (factor 2) and SPDC (factor 1.5) probe windows
        big = enlarged_grid(make_grid(-60.0, 60.0, -6.0, 6.0, n), 2.0)
        assert big == make_grid(-120.0, 120.0, -12.0, 12.0, int(round(2.0 * (n - 1))) + 1)
        big = enlarged_grid(make_grid(-40.0, 40.0, -40.0, 40.0, n), 1.5)
        assert big == make_grid(-60.0, 60.0, -60.0, 60.0, int(round(1.5 * (n - 1))) + 1)
    g = make_grid(1.0, 3.0, -1.0, 0.0, 5)
    big = enlarged_grid(g, 3.0)
    assert (big.p_min, big.p_max, big.q_min, big.q_max, big.n) == (-1.0, 5.0, -2.0, 1.0, 13)
    assert (big.dp, big.dq) == (g.dp, g.dq)


def test_sample_amplitude_vectorized():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    A = sample_amplitude(lambda p, q: p * q, g)
    np.testing.assert_allclose(A.entries, [[0, 0], [0, 1]])
    assert not A.normalized


@pytest.mark.parametrize(
    "f, dtype",
    [
        (lambda p, q: p * q, np.float64),
        (lambda p, q: p > q, np.float64),
        (lambda p, q: (p * q).astype(np.float32), np.float64),
        (lambda p, q: p + 1j * q, np.complex128),
        (lambda p, q: (p + 0j) * q, np.complex128),
    ],
    ids=["float", "bool", "float32", "complex", "complex-zero-imaginary"],
)
def test_sample_amplitude_keeps_a_real_result_real(f, dtype):
    g = make_grid(0.0, 1.0, 0.0, 2.0, 3)
    A = normalize(sample_amplitude(f, g))
    assert A.entries.dtype == dtype
    assert normalize(A).entries.dtype == dtype


def test_sample_amplitude_rejects_unvectorized_or_misshapen_f():
    import math

    g = make_grid(0.0, 1.0, 0.0, 1.0, 3)
    # math.exp rejects arrays; there is no per-node fallback
    with pytest.raises(ValueError, match="numpy arrays"):
        sample_amplitude(lambda p, q: complex(math.exp(-p), q), g)
    with pytest.raises(ValueError, match=r"shape \(\), expected \(3, 3\)"):
        sample_amplitude(lambda p, q: 1.0, g)
    with pytest.raises(ValueError, match="shape"):
        sample_amplitude(lambda p, q: p[0], g)


def test_sample_amplitude_names_offending_node():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 3)
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match=r"node \(1, 0\)"):
        sample_amplitude(lambda p, q: 1.0 / (p - 0.5), g)


def test_normalize_scales_and_is_idempotent():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    A = AmplitudeMatrix(grid=g, entries=np.array([[3.0, 4.0], [0.0, 0.0]], dtype=complex))
    N = normalize(A)
    assert N.normalized
    assert np.sum(np.abs(N.entries) ** 2) == pytest.approx(1.0, abs=1e-15)
    N2 = normalize(N)
    assert np.max(np.abs(N2.entries - N.entries)) < 1e-15


def test_normalize_rejects_zero_matrix():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    A = AmplitudeMatrix(grid=g, entries=np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="zero"):
        normalize(A)


def test_amplitude_matrix_validation():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 3)
    with pytest.raises(ValueError, match="shape"):
        AmplitudeMatrix(grid=g, entries=np.zeros((2, 2), dtype=complex))
    bad = np.zeros((3, 3), dtype=complex)
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match=r"not finite at node \(1, 1\), \(p, q\) = \(0\.5, 0\.5\)"):
        AmplitudeMatrix(grid=g, entries=bad)
    ok = np.full((3, 3), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="flagged normalized but squared-modulus sum is 2.25"):
        AmplitudeMatrix(grid=g, entries=ok, normalized=True)
    # finite entries whose squared moduli overflow are not named as a node
    with pytest.raises(ValueError, match="squared-modulus sum is inf"):
        AmplitudeMatrix(grid=g, entries=np.full((3, 3), 1e200), normalized=True)


@pytest.mark.parametrize(
    "dtype, value",
    [(float, np.nan), (float, -np.inf), (complex, complex(0.0, np.inf)), (complex, complex(np.nan, 1.0))],
)
@pytest.mark.parametrize("normalized", [False, True])
def test_amplitude_matrix_names_non_finite_node(dtype, value, normalized):
    # A flagged matrix is checked through its squared-modulus sum, which a
    # NaN or inf entry must fail as well.
    g = make_grid(0.0, 2.0, -1.0, 1.0, 3)
    entries = np.zeros((3, 3), dtype=dtype)
    entries[0, 0] = 1.0
    entries[2, 1] = value
    with pytest.raises(ValueError, match=r"not finite at node \(2, 1\), \(p, q\) = \(2\.0, 0\.0\)"):
        AmplitudeMatrix(grid=g, entries=entries, normalized=normalized)


def test_amplitude_matrix_rejects_non_square_and_non_finite_entries():
    # The square and finite checks a matrix gets before it can reach
    # schmidt_decompose, which trusts its AmplitudeMatrix argument.
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match=r"shape \(2, 3\) does not match grid n=2"):
        AmplitudeMatrix(grid=g, entries=np.zeros((2, 3)))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    for normalized in (False, True):
        with pytest.raises(ValueError, match="not finite"):
            AmplitudeMatrix(grid=g, entries=bad, normalized=normalized)
