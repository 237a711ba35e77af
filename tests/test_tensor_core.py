import math
import warnings

import numpy as np
import pytest

from schmidt_lab import tensor_core
from schmidt_lab.tensor_core import (
    AmplitudeMatrix,
    grown_grid,
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


def test_make_grid_refuses_a_window_whose_width_overflows():
    with pytest.raises(ValueError, match="the p window .* width that overflows"):
        make_grid(-1e308, 1e308, 0.0, 1.0, 4)
    with pytest.raises(ValueError, match="the q window .* width that overflows"):
        make_grid(0.0, 1.0, np.float64(-1e308), np.float64(1e308), 4)
    # The widest finite windows still pass.
    g = make_grid(-1e308, 0.0, 0.0, 1.7e308, 4)
    assert (g.p_max - g.p_min, g.q_max - g.q_min) == (1e308, 1.7e308)


def test_grid_may_carry_its_own_q_node_count():
    g = make_grid(0.0, 1.0, -2.0, 2.0, 5, 3)
    assert (g.n, g.nq, g.dq) == (5, 3, 2.0)
    np.testing.assert_allclose(g.q_nodes(), [-2.0, 0.0, 2.0])
    assert make_grid(0.0, 1.0, -2.0, 2.0, 5) == make_grid(0.0, 1.0, -2.0, 2.0, 5, 5)
    with pytest.raises(ValueError, match="got nq=1"):
        make_grid(0.0, 1.0, 0.0, 1.0, 4, 1)
    A = sample_amplitude(lambda p, q: np.exp(-((p + q) ** 2)), g)
    assert A.entries.shape == (5, 3)
    with pytest.raises(ValueError, match=r"shape \(5, 5\) does not match grid n=5, nq=3"):
        AmplitudeMatrix(grid=g, entries=np.ones((5, 5)))
    big = grown_grid(make_grid(0.0, 1.0, -2.0, 2.0, 5, 9), 2.0)
    assert (big.n, big.nq) == (9, 17)
    assert (big.dp, big.dq) == pytest.approx((0.25, 0.5), rel=1e-15)


def assert_nests(big, grid):
    """``big`` keeps the spacing of ``grid`` and its nodes contain the nodes of ``grid``.

    Bounds: the spacing within 2 eps relative, and base node j within 4 ulp
    of the probe window's largest |bound| of probe node j + s (measured:
    at most 1 eps and 2.5 ulp over n = 2-79 and 199-1001 on the model
    windows).
    """
    eps = np.finfo(float).eps
    for small_d, big_d in ((grid.dp, big.dp), (grid.dq, big.dq)):
        assert abs(big_d - small_d) <= 2 * eps * small_d
    for small_x, big_x, lo, hi in (
        (grid.p_nodes(), big.p_nodes(), big.p_min, big.p_max),
        (grid.q_nodes(), big.q_nodes(), big.q_min, big.q_max),
    ):
        s, rem = divmod(big_x.size - small_x.size, 2)
        assert rem == 0 and s >= 0
        ulp = np.spacing(max(abs(lo), abs(hi)))
        assert np.max(np.abs(big_x[s : s + small_x.size] - small_x)) <= 4 * ulp


def test_grown_grid_adds_whole_steps_at_fixed_spacing():
    for n in (2, 3, 4, 64, 97, 400, 512, 800):
        # the momentum and coordinate (factor 2) and SPDC (factor 1.5) probe
        # windows: ceil((n - 1) / 2) and ceil((n - 1) / 4) steps a side
        for window, factor, steps in (
            ((-60.0, 60.0, -6.0, 6.0), 2.0, math.ceil((n - 1) / 2)),
            ((-40.0, 40.0, -40.0, 40.0), 1.5, math.ceil((n - 1) / 4)),
            ((-30.0, 10.0, -200.0, 60.0), 2.0, math.ceil((n - 1) / 2)),
        ):
            grid = make_grid(*window, n)
            big = grown_grid(grid, factor)
            assert big.n == n + 2 * steps
            assert_nests(big, grid)
            assert big.p_max - big.p_min >= factor * (grid.p_max - grid.p_min) * (1 - 1e-15)
    g = make_grid(1.0, 3.0, -1.0, 0.0, 5)
    big = grown_grid(g, 3.0)
    assert (big.p_min, big.p_max, big.q_min, big.q_max, big.n) == (-1.0, 5.0, -2.0, 1.0, 13)
    assert (big.dp, big.dq) == (g.dp, g.dq)
    assert grown_grid(g, 1.0) == g


def test_sample_amplitude_vectorized():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    A = sample_amplitude(lambda p, q: p * q, g)
    np.testing.assert_allclose(A.entries, [[0, 0], [0, 1]])
    assert A.normalized  # the sampled matrix comes back with unit norm


@pytest.mark.parametrize(
    "f, axis",
    [(lambda p, q: np.exp(-p), 0), (lambda p, q: 1.0 + q**2, 1)],
    ids=["p-only", "q-only"],
)
def test_sample_amplitude_broadcasts_a_one_variable_result(f, axis):
    # f sees a column of p nodes (n, 1) and a row of q nodes (1, n); a
    # result that uses one of them has that shape and fills the mesh.
    g = make_grid(0.0, 1.0, -1.0, 1.0, 4)
    nodes = (g.p_nodes(), g.q_nodes())[axis]
    line = f(nodes, nodes)
    want = np.broadcast_to(line[:, None] if axis == 0 else line[None, :], (4, 4))
    A = sample_amplitude(f, g)
    assert A.entries.shape == (4, 4) and A.entries.flags.writeable
    np.testing.assert_allclose(A.entries, want / np.linalg.norm(want), rtol=1e-15)


def test_sample_amplitude_calls_f_once_with_open_mesh_vectors():
    g = make_grid(0.0, 1.0, -1.0, 1.0, 5)
    seen = []

    def f(p, q):
        seen.append((p.shape, q.shape))
        return p + q

    sample_amplitude(f, g)
    assert seen == [((5, 1), (1, 5))]


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
    A = sample_amplitude(f, g)
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


def test_normalize_leaves_its_argument_untouched():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    for entries in (np.array([[3.0, 4.0], [0.0, -0.0]]), np.array([[1j, 2.0], [0.5, -1.0]])):
        A = AmplitudeMatrix(grid=g, entries=entries)
        before = entries.copy()
        N = normalize(A)
        assert A.entries is entries and entries.tobytes() == before.tobytes()
        assert not A.normalized and N.entries is not entries


@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_normalize_scales_single_precision_entries_in_double(dtype):
    # Scaled in single precision, the squared sum would miss 1 by about 6e-8,
    # past NORM_ATOL, so the unit-norm check would refuse most of these.
    # Scaled in double, each gives the bits of its float64/complex128 copy.
    double = np.result_type(dtype, np.float64)
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal((50, 50)) for _ in range(10)]
    if dtype is np.complex64:
        mats = [m + 1j * rng.standard_normal((50, 50)) for m in mats]
        mats.append(np.array([[1.0, 0.5j], [0.25, 1.0]]))
    for m in mats:
        g = make_grid(0.0, 1.0, 0.0, 1.0, m.shape[0])
        single = m.astype(dtype)
        got = normalize(AmplitudeMatrix(grid=g, entries=single)).entries
        want = normalize(AmplitudeMatrix(grid=g, entries=single.astype(double))).entries
        assert got.dtype == want.dtype == double
        assert got.tobytes() == want.tobytes()


def test_sample_amplitude_rejects_an_all_zero_amplitude():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 3)
    with pytest.raises(ValueError, match="all-zero"):
        sample_amplitude(lambda p, q: 0.0 * p * q, g)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200, 1e300, 2.0**-1060])
@pytest.mark.parametrize("dtype", [float, complex])
def test_normalize_rescales_when_the_squared_sum_under_or_overflows(scale, dtype):
    # The squared-modulus sum of these entries is 0, subnormal or inf, so
    # the norm is taken after dividing by the largest part: the result is
    # the unit-scale matrix normalized, with no RuntimeWarning.  At 2**-1060
    # the largest part is subnormal, where complex division overflows; the
    # entries are dyadic there, so the scaled input is exact.
    g = make_grid(0.0, 1.0, 0.0, 1.0, 4)
    rng = np.random.default_rng(3)
    unit = rng.uniform(0.5, 1.0, (4, 4)).astype(dtype)
    if dtype is complex:
        unit += 1j * rng.uniform(-1.0, 1.0, (4, 4))
    if scale < np.finfo(float).tiny:
        unit = np.round(4 * unit) / 4
    want = normalize(AmplitudeMatrix(grid=g, entries=unit)).entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        N = normalize(AmplitudeMatrix(grid=g, entries=scale * unit))
        S = sample_amplitude(lambda p, q: scale * unit, g)
        # A strided (Fortran-ordered) layout, normalized and sampled.
        NT = normalize(AmplitudeMatrix(grid=g, entries=np.asfortranarray(scale * unit)))
        ST = sample_amplitude(lambda p, q: np.asfortranarray(scale * unit), g)
    for got in (N, S, NT, ST):
        assert got.normalized and got.entries.dtype == want.dtype
        np.testing.assert_allclose(got.entries, want, rtol=0, atol=1e-15)


def _divided(e):
    """The unit-norm scaling by complex division, with the same rescale guard."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(e))
    if not tensor_core._NORM_MIN <= nrm < math.inf:
        scale = max(np.abs(e.real).max(), np.abs(e.imag).max())
        e = e.real / scale + 1j * (e.imag / scale)
        nrm = float(np.linalg.norm(e))
    return np.divide(e, nrm)


@pytest.mark.parametrize("n", [63, 64, 65])
@pytest.mark.parametrize("span", [150, 300])
def test_unit_norm_multiplies_to_the_bits_of_complex_division(n, span):
    # Parts from 1e-span to 1e+span with both signs; at span 300 the squared
    # sum overflows and the rescale guard runs first.  Every nonzero part is
    # bit-identical to np.divide(e, nrm); a zero part may differ in sign.
    rng = np.random.default_rng(n + span)
    parts = rng.choice([-1.0, 1.0], (n, 2 * n)) * 10.0 ** rng.uniform(-span, span, (n, 2 * n))
    parts[0, :4] = [-0.0, 1.0, 0.0, -1.0]
    parts[n - 1, -2:] = [-0.0, -0.0]
    e = parts.view(complex)
    g = make_grid(0.0, 1.0, 0.0, 1.0, n)
    want = _divided(e).view(float)
    nonzero = want != 0.0
    for got in (
        normalize(AmplitudeMatrix(grid=g, entries=e)),
        sample_amplitude(lambda p, q: e.copy(), g),
    ):
        got = got.entries.view(float)
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert not got[~nonzero].any()


def test_unit_norm_keeps_the_sign_of_a_zero_part():
    # (-0+1j) / 7 has real part +0; the multiply of the float64 view keeps
    # -0.  The rescale guard, when it runs, divides each part and keeps -0
    # too.
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    e = np.array([[complex(-0.0, 1.0), 2.0], [3.0, 5.0 + 1j]])
    got = normalize(AmplitudeMatrix(grid=g, entries=e)).entries
    assert math.copysign(1.0, got[0, 0].real) == -1.0
    tiny = normalize(AmplitudeMatrix(grid=g, entries=2.0**-1060 * e)).entries
    assert math.copysign(1.0, tiny[0, 0].real) == -1.0
    assert math.copysign(1.0, _divided(e)[0, 0].real) == 1.0
    assert got[0, 1:].tobytes() == _divided(e)[0, 1:].tobytes()


def test_unit_norm_divides_a_strided_matrix():
    # A transpose has no contiguous float64 view, so it keeps np.divide,
    # zero signs included.
    rng = np.random.default_rng(11)
    e = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
    e[3, 5] = complex(-0.0, 1.0)
    g = make_grid(0.0, 1.0, 0.0, 1.0, 65)
    got = normalize(AmplitudeMatrix(grid=g, entries=e.T)).entries
    assert got.tobytes() == _divided(e.T).tobytes()


def test_sample_amplitude_scans_for_non_finite_entries_only_when_the_norm_fails(monkeypatch):
    g = make_grid(0.0, 1.0, 0.0, 1.0, 3)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **k: calls.append(1) or isfinite(*a, **k))
    sample_amplitude(lambda p, q: np.exp(-(p * p + q * q)), g)
    assert calls == []
    with pytest.raises(ValueError, match=r"not finite at node \(2, 1\)"):
        sample_amplitude(lambda p, q: np.where((p == 1.0) & (q == 0.5), np.nan, 1.0 + p * q), g)
    assert calls


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
    # The shape and finite checks a matrix gets before it can reach
    # schmidt_decompose, which trusts its AmplitudeMatrix argument.
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match=r"shape \(2, 3\) does not match grid n=2"):
        AmplitudeMatrix(grid=g, entries=np.zeros((2, 3)))
    bad = np.eye(2)
    bad[0, 0] = np.nan
    for normalized in (False, True):
        with pytest.raises(ValueError, match="not finite"):
            AmplitudeMatrix(grid=g, entries=bad, normalized=normalized)
