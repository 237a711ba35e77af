import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_lab.schmidt import (
    DecompositionOptions,
    entanglement_entropy,
    mode_overlap,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
    truncate_rank,
)
from schmidt_lab.tensor_core import AmplitudeMatrix, make_grid, normalize

from oracles import schmidt_weights


def _wrap(entries):
    n = entries.shape[0]
    g = make_grid(0.0, float(n - 1), 0.0, float(n - 1), n)
    return normalize(AmplitudeMatrix(grid=g, entries=np.asarray(entries, dtype=complex)))


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_values_only_route_uses_real_arithmetic_for_real_input(monkeypatch):
    rng = np.random.default_rng(19)
    real = rng.standard_normal((6, 6))
    cplx = real + 1j * rng.standard_normal((6, 6))
    g = make_grid(0.0, 5.0, 0.0, 5.0, 6)
    mats = [normalize(AmplitudeMatrix(grid=g, entries=e)) for e in (real, real.astype(complex), cplx)]
    full = [schmidt_decompose(A) for A in mats]
    dtypes = []
    lapack_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for A, ref in zip(mats, full):
        res = schmidt_decompose(A, modes=False)
        np.testing.assert_allclose(res.lambdas, ref.lambdas, rtol=0, atol=1e-12)
    assert dtypes == [float, float, complex]


def test_rank_one_product_state():
    u = np.array([1.0, 2.0j, -0.5, 0.25])
    v = np.array([0.5, 1.0, 1.0j, -2.0])
    A = _wrap(np.outer(u, v))
    res = schmidt_decompose(A)
    assert res.rank == 1
    assert res.lambdas[0] == pytest.approx(1.0, abs=1e-12)
    assert res.schmidt_number == pytest.approx(1.0, abs=1e-12)
    assert abs(res.entropy) < 1e-12
    assert res.reconstruction_error < 1e-10


def test_two_equal_modes():
    A = _wrap(np.eye(2))
    res = schmidt_decompose(A)
    np.testing.assert_allclose(res.lambdas, [0.5, 0.5], atol=1e-14)
    assert res.schmidt_number == pytest.approx(2.0, abs=1e-12)
    assert res.entropy == pytest.approx(1.0, abs=1e-12)


def test_weights_match_power_iteration_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = _wrap(_random_matrix(rng, n))
        res = schmidt_decompose(A)
        ref = schmidt_weights(A.entries)
        np.testing.assert_allclose(res.lambdas, ref[: res.rank], atol=1e-8)
        G = res.modes_q @ res.modes_q.conj().T
        assert np.max(np.abs(G - np.eye(res.rank))) < 1e-8


def test_schmidt_number_values():
    assert schmidt_number([1.0]) == pytest.approx(1.0)
    assert schmidt_number([0.5, 0.5]) == pytest.approx(2.0)
    assert schmidt_number(np.full(8, 1 / 8)) == pytest.approx(8.0)
    assert schmidt_number([0.7, 0.3]) == pytest.approx(1.0 / 0.58)


def test_entropy_values():
    assert entanglement_entropy([1.0]) == pytest.approx(0.0, abs=1e-15)
    assert entanglement_entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entanglement_entropy(np.full(8, 1 / 8)) == pytest.approx(3.0)
    expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
    assert entanglement_entropy([0.9, 0.1]) == pytest.approx(expected, abs=1e-14)


def test_weight_validation():
    with pytest.raises(ValueError, match="non-negative"):
        schmidt_number([0.5, -0.5])
    with pytest.raises(ValueError, match="sum"):
        schmidt_number([0.5, 0.4])
    with pytest.raises(ValueError, match="zero"):
        entanglement_entropy([0.0, 0.0])
    with pytest.raises(ValueError, match="empty"):
        entanglement_entropy([])


def test_options_validation():
    with pytest.raises(ValueError):
        DecompositionOptions(truncation_threshold=1.0)
    with pytest.raises(ValueError):
        DecompositionOptions(gauge="random")


def test_requires_normalized_input():
    g = make_grid(0.0, 1.0, 0.0, 1.0, 2)
    A = AmplitudeMatrix(grid=g, entries=np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="normalized"):
        schmidt_decompose(A)


def test_reconstruct_full_rank_roundtrip():
    rng = np.random.default_rng(8)
    A = _wrap(_random_matrix(rng, 8))
    res = schmidt_decompose(A)
    R = reconstruct(res, A.grid)
    assert R.normalized
    assert np.max(np.abs(R.entries - A.entries)) < 1e-10
    assert res.reconstruction_error <= 1e-10


def test_truncated_reconstruction_error():
    # two equal-weight product terms; keeping one discards half the mass
    e = np.eye(4)
    A = _wrap(np.sqrt(0.5) * (np.outer(e[0], e[1]) + np.outer(e[2], e[3])))
    res = truncate_rank(schmidt_decompose(A), 1)
    assert res.rank == 1
    assert res.reconstruction_error == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert res.schmidt_number == pytest.approx(1.0, abs=1e-12)
    R = reconstruct(res, A.grid)
    miss = np.linalg.norm(R.entries - A.entries)
    assert miss == pytest.approx(np.sqrt(0.5), abs=1e-6)


def test_truncation_threshold_drops_small_weights():
    s = np.array([1.0, 0.3, 1e-9])
    rng = np.random.default_rng(9)
    U, _, V = np.linalg.svd(_random_matrix(rng, 3))
    A = _wrap(U @ np.diag(s) @ V)
    res = schmidt_decompose(A, DecompositionOptions(truncation_threshold=1e-6))
    assert res.rank == 2
    lam_all = s**2 / np.sum(s**2)
    assert res.reconstruction_error == pytest.approx(np.sqrt(lam_all[2]), rel=1e-6)
    np.testing.assert_allclose(res.lambdas, lam_all[:2] / lam_all[:2].sum(), atol=1e-12)


def test_truncate_rank_validation():
    A = _wrap(np.eye(3))
    res = schmidt_decompose(A)
    with pytest.raises(ValueError):
        truncate_rank(res, 0)
    with pytest.raises(ValueError):
        truncate_rank(res, 4)


def test_gauge_largest_component_real_positive():
    rng = np.random.default_rng(10)
    A = _wrap(_random_matrix(rng, 6))
    res = schmidt_decompose(A)
    for k in range(res.rank):
        top = res.modes_p[k][np.argmax(np.abs(res.modes_p[k]))]
        assert abs(top.imag) < 1e-12
        assert top.real > 0


def test_gauge_choice_leaves_rank_one_terms_invariant():
    rng = np.random.default_rng(12)
    A = _wrap(_random_matrix(rng, 5))
    fixed = schmidt_decompose(A)
    raw = schmidt_decompose(A, DecompositionOptions(gauge="none"))
    np.testing.assert_allclose(fixed.lambdas, raw.lambdas, atol=1e-14)
    for k in range(fixed.rank):
        t1 = np.outer(fixed.modes_p[k], fixed.modes_q[k])
        t2 = np.outer(raw.modes_p[k], raw.modes_q[k])
        assert np.max(np.abs(t1 - t2)) < 1e-12


def test_transpose_swaps_mode_families():
    rng = np.random.default_rng(13)
    M = _random_matrix(rng, 6)
    res = schmidt_decompose(_wrap(M))
    res_t = schmidt_decompose(_wrap(M.T))
    np.testing.assert_allclose(res.lambdas, res_t.lambdas, atol=1e-12)
    for k in range(res.rank):
        t = np.outer(res.modes_p[k], res.modes_q[k])
        t_t = np.outer(res_t.modes_p[k], res_t.modes_q[k])
        assert np.max(np.abs(t_t - t.T)) < 1e-8


def test_unitary_invariance_of_weights():
    rng = np.random.default_rng(14)
    M = _random_matrix(rng, 6)
    U, _ = np.linalg.qr(_random_matrix(rng, 6))
    W, _ = np.linalg.qr(_random_matrix(rng, 6))
    base = schmidt_decompose(_wrap(M)).lambdas
    left = schmidt_decompose(_wrap(U @ M)).lambdas
    both = schmidt_decompose(_wrap(U @ M @ W)).lambdas
    np.testing.assert_allclose(base, left, atol=1e-9)
    np.testing.assert_allclose(base, both, atol=1e-9)


def test_k_and_s_bounds():
    rng = np.random.default_rng(15)
    for _ in range(15):
        n = int(rng.integers(2, 12))
        res = schmidt_decompose(_wrap(_random_matrix(rng, n)))
        assert 1.0 - 1e-12 <= res.schmidt_number <= res.rank + 1e-9
        assert -1e-12 <= res.entropy <= np.log2(n) + 1e-9
        assert res.entropy >= np.log2(res.schmidt_number) - 1e-9


def test_mode_overlap():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert mode_overlap(a, a) == pytest.approx(1.0)
    assert mode_overlap(a, b) == pytest.approx(0.0)
    c = np.array([1.0 + 1j, 0.5])
    d = np.array([0.25j, -1.0])
    assert mode_overlap(c, d) == pytest.approx(np.conj(mode_overlap(d, c)))
    with pytest.raises(ValueError, match="mismatch"):
        mode_overlap(a, np.ones(3))
    with pytest.raises(ValueError, match="zero"):
        mode_overlap(a, np.zeros(2))


def test_values_only_result_refuses_mode_operations():
    A = _wrap(np.eye(3))
    res = schmidt_decompose(A, modes=False)
    assert res.modes_p is None and res.modes_q is None
    with pytest.raises(ValueError, match="modes=False"):
        truncate_rank(res, 1)
    with pytest.raises(ValueError, match="modes=False"):
        reconstruct(res, A.grid)


# Both routes must agree to this absolute tolerance on every weight and measure.
ROUTE_ATOL = 1e-12


@st.composite
def _amplitudes(draw):
    """A = U diag(s) V with random U, V and singular values drawn in decades.

    Kept weights stay above lambda_1 * 1e-8, far from the default 1e-14
    truncation threshold, so the rank is not decided by rounding.
    """
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(("real", "complex", "complex, zero imaginary")))
    rank = draw(st.integers(1, n))
    quarter_decades = draw(st.lists(st.integers(0, 16), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def basis():
        M = rng.standard_normal((n, n))
        if kind == "complex":
            M = M + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(M)[0]

    s = np.zeros(n)
    s[:rank] = 10.0 ** (-np.array(quarter_decades) / 4.0)
    entries = (basis() * s) @ basis()
    if kind == "complex, zero imaginary":
        entries = entries.astype(complex)
    g = make_grid(0.0, float(n - 1), 0.0, float(n - 1), n)
    return normalize(AmplitudeMatrix(grid=g, entries=entries))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(A=_amplitudes())
def test_values_only_route_matches_full_route(A):
    full = schmidt_decompose(A)
    vals = schmidt_decompose(A, modes=False)
    assert vals.rank == full.rank
    np.testing.assert_allclose(vals.lambdas, full.lambdas, rtol=0, atol=ROUTE_ATOL)
    assert vals.schmidt_number == pytest.approx(full.schmidt_number, rel=0, abs=ROUTE_ATOL)
    assert vals.entropy == pytest.approx(full.entropy, rel=0, abs=ROUTE_ATOL)
    assert vals.reconstruction_error == pytest.approx(
        full.reconstruction_error, rel=0, abs=ROUTE_ATOL
    )
    assert float(vals.lambdas.sum()) == pytest.approx(1.0, rel=0, abs=ROUTE_ATOL)
    assert 1.0 - ROUTE_ATOL <= vals.schmidt_number <= vals.rank + ROUTE_ATOL
    assert vals.entropy <= np.log2(vals.rank) + ROUTE_ATOL
    ref = schmidt_weights(A.entries)
    np.testing.assert_allclose(vals.lambdas, ref[: vals.rank], rtol=0, atol=1e-8)
