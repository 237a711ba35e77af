import numpy as np
import pytest

from schmidt_lab import tensor_core
from schmidt_lab.tensor_core import (
    AmplitudeMatrix,
    enlarged_grid,
    make_grid,
    normalize,
    sample_amplitude,
    svd,
)

from oracles import singular_values


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
    with pytest.raises(ValueError, match="finite"):
        AmplitudeMatrix(grid=g, entries=bad)
    ok = np.full((3, 3), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="normalized"):
        AmplitudeMatrix(grid=g, entries=ok, normalized=True)


def test_svd_examples():
    U, s, V = svd(np.diag([2.0, 1.0]))
    np.testing.assert_allclose(s, [2.0, 1.0])
    A = np.array([[0.0, 3.0], [0.0, 0.0]])
    _, s, _ = svd(A)
    np.testing.assert_allclose(s, [3.0, 0.0], atol=1e-15)


def test_svd_matches_gram_eigenvalues():
    # Eqs.-5/6-style consistency: singular values vs sqrt eig(A A^+)
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        _, s, _ = svd(A)
        np.testing.assert_allclose(s, singular_values(A), atol=1e-8)


def test_svd_reconstruction_and_orthonormality():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8, 16, 64, 512):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        U, s, V = svd(A)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        scale = np.linalg.norm(A)
        assert np.linalg.norm(A - (U * s) @ V) <= 1e-10 * scale
        assert np.max(np.abs(U.conj().T @ U - np.eye(n))) < 1e-10
        assert np.max(np.abs(V @ V.conj().T - np.eye(n))) < 1e-10


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        svd(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        svd(bad)


def test_singular_values_match_svd_in_real_arithmetic_for_real_input(monkeypatch):
    rng = np.random.default_rng(19)
    real = rng.standard_normal((6, 6))
    cplx = real + 1j * rng.standard_normal((6, 6))
    dtypes = []
    lapack_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for A in (real, real.astype(complex), cplx):
        np.testing.assert_allclose(tensor_core.singular_values(A), svd(A)[1], rtol=0, atol=1e-12)
    # singular_values, svd for each input in turn
    assert dtypes == [float, complex, float, complex, complex, complex]
    with pytest.raises(ValueError, match="square"):
        tensor_core.singular_values(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        tensor_core.singular_values(np.array([[1.0, np.inf], [0.0, 1.0]]))
