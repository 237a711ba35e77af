import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_lab import atom_photon, schmidt
from schmidt_lab.atom_photon import (
    AtomPhotonParams,
    coord_grid,
    coord_matrix,
    momentum_grid,
    momentum_matrix,
)
from schmidt_lab.schmidt import (
    DecompositionOptions,
    entanglement_entropy,
    mode_overlap,
    reconstruct,
    schmidt_decompose,
    schmidt_number,
    truncate_rank,
)
from schmidt_lab.spdc import spdc_grid, spdc_matrix, spdc_params
from schmidt_lab.tensor_core import AmplitudeMatrix, make_grid, normalize

from oracles import schmidt_weights


def _wrap(entries):
    n = entries.shape[0]
    g = make_grid(0.0, float(n - 1), 0.0, float(n - 1), n)
    return normalize(AmplitudeMatrix(grid=g, entries=np.asarray(entries, dtype=complex)))


def _random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _dense(A, opts=DecompositionOptions(), modes=True):
    """schmidt_decompose forced onto the dense route."""
    with (
        mock.patch.object(schmidt, "_certified_sketch", lambda M, trunc, total: None),
        mock.patch.object(schmidt, "_centrosymmetric_split", lambda M, trunc, total: None),
    ):
        return schmidt_decompose(A, opts, modes=modes)


def _low_rank(rng, n, s, complex_=True):
    """A = U diag(s) V^H with random orthonormal columns U, V."""

    def basis():
        M = rng.standard_normal((n, len(s)))
        if complex_:
            M = M + 1j * rng.standard_normal((n, len(s)))
        return np.linalg.qr(M)[0]

    return _wrap((basis() * s) @ basis().conj().T)


def test_values_only_route_uses_real_arithmetic_for_real_input(monkeypatch):
    rng = np.random.default_rng(19)
    real = rng.standard_normal((6, 6))
    cplx = real + 1j * rng.standard_normal((6, 6))
    g = make_grid(0.0, 5.0, 0.0, 5.0, 6)
    mats = [normalize(AmplitudeMatrix(grid=g, entries=e)) for e in (real, real.astype(complex), cplx)]
    refs = [np.linalg.svd(A.entries.astype(complex), compute_uv=False) ** 2 for A in mats]
    lapack_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for modes in (False, True):
        dtypes = []
        for A, ref in zip(mats, refs):
            res = schmidt_decompose(A, modes=modes)
            np.testing.assert_allclose(res.lambdas, ref, rtol=0, atol=1e-12)
            if modes:
                assert res.modes_p.dtype == res.modes_q.dtype == complex
        assert dtypes == [float, float, complex]


def test_decomposes_diagonal_and_nilpotent_examples():
    res = schmidt_decompose(_wrap(np.diag([2.0, 1.0])))
    np.testing.assert_allclose(res.lambdas, [0.8, 0.2], rtol=0, atol=1e-15)
    res = schmidt_decompose(_wrap(np.array([[0.0, 3.0], [0.0, 0.0]])))
    assert res.rank == 1
    np.testing.assert_allclose(np.abs(res.modes_p[0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(np.abs(res.modes_q[0]), [0.0, 1.0], atol=1e-15)


def test_decomposition_reconstructs_with_orthonormal_modes():
    rng = np.random.default_rng(11)
    full_rank = [_wrap(_random_matrix(rng, n)) for n in (2, 3, 5, 8, 16, 64, 512)]
    low_rank = [_low_rank(rng, n, 0.5 ** np.arange(6)) for n in (64, 300)]
    for A in full_rank + low_rank:
        res = schmidt_decompose(A)
        assert res.route == ("randomized" if A in low_rank else "dense")
        assert np.all(np.diff(res.lambdas) <= 0) and np.all(res.lambdas > 0)
        R = reconstruct(res, A.grid)
        assert np.linalg.norm(R.entries - A.entries) <= 1e-10
        for m in (res.modes_p, res.modes_q):
            assert np.max(np.abs(m.conj() @ m.T - np.eye(res.rank))) < 1e-10


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


def test_gauge_leaves_no_negative_zero():
    # The modes of a real matrix are real; the gauge divides those whose
    # largest entry is negative by the phase -1+0j, which turns 0 into -0.
    A = _wrap(np.random.default_rng(14).standard_normal((6, 6)))
    raw = schmidt_decompose(A, DecompositionOptions(gauge="none")).modes_p
    assert any(m[np.argmax(np.abs(m))].real < 0 for m in raw)
    res = schmidt_decompose(A)
    for m in (res.modes_p, res.modes_q):
        for part in (m.real, m.imag):
            assert not np.any(np.signbit(part) & (part == 0.0))


@pytest.mark.parametrize("n", [64, 65])
def test_gauge_tie_keeps_mode_signs_under_a_rounding_perturbation(n):
    # An odd-parity mode of a centrosymmetric matrix has mirror components
    # of equal modulus; a 1e-15 change of the matrix must not decide which
    # of the two the gauge makes positive.
    rng = np.random.default_rng(n)
    S = rng.standard_normal((n, n))
    M = S + S[::-1, ::-1]
    ref = schmidt_decompose(_wrap(M))
    for _ in range(10):
        res = schmidt_decompose(_wrap(M + 1e-15 * rng.standard_normal((n, n))))
        for got, want in ((res.modes_p, ref.modes_p), (res.modes_q, ref.modes_q)):
            np.testing.assert_allclose(got[:4], want[:4], rtol=0, atol=1e-12)


def test_fig5_written_modes_match_a_complex_svd(monkeypatch):
    params = spdc_params(L=0.5, sigma=10.0)
    A = spdc_matrix(params, spdc_grid(params, 512))
    lapack_svd = np.linalg.svd
    dtypes = []

    def recording_svd(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    real = schmidt_decompose(A)
    assert real.route == "dense" and set(dtypes) == {np.dtype(float)}
    monkeypatch.setattr(
        np.linalg, "svd", lambda a, *args, **kw: lapack_svd(a.astype(complex), *args, **kw)
    )
    cplx = schmidt_decompose(A)
    np.testing.assert_allclose(real.lambdas, cplx.lambdas, rtol=0, atol=1e-12)
    for got, want in ((real.modes_p, cplx.modes_p), (real.modes_q, cplx.modes_q)):
        assert got.dtype == complex
        np.testing.assert_allclose(got[:4], want[:4], rtol=0, atol=1e-13)


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


def _coord(n, eta=0.03):
    """The coordinate amplitude at xi0 = 100, tau = 10; eta = 0.03 is --fig1."""
    params = AtomPhotonParams(100.0, eta, 10.0)
    return coord_matrix(params, coord_grid(params, n))


def _spdc_fig4(n):
    params = spdc_params(L=1.0, sigma=10.0)
    return spdc_matrix(params, spdc_grid(params, n))


def _counting_residual():
    """Counts certificate checks: each computes one ``_residual``."""
    return mock.patch.object(schmidt, "_residual", wraps=schmidt._residual)


# sketch: (width, rank, certificate checks) on the randomized route.
@pytest.mark.parametrize(
    "make, opts, route, sketch",
    [
        (lambda: _coord(400), DecompositionOptions(), "randomized", (16, 5, 1)),
        # The only model input known to double its width: eta = 0.5 has
        # more than 16 weights above the cutoff.
        (lambda: _coord(400, eta=0.5), DecompositionOptions(), "randomized", (32, 25, 2)),
        (lambda: _spdc_fig4(512), DecompositionOptions(), "centrosymmetric", None),
        (lambda: _coord(400), DecompositionOptions(truncation_threshold=0.0), "dense", None),
        (lambda: _wrap(_random_matrix(np.random.default_rng(3), 300)), DecompositionOptions(), "dense", None),
    ],
    ids=["fig1-coord-n400", "coord-eta0.5-n400", "spdc-fig4-n512", "trunc-0", "complex-gaussian-300"],
)
def test_route_taken_by_each_input(make, opts, route, sketch):
    A = make()
    with _counting_residual() as residual:
        res = schmidt_decompose(A, opts, modes=False)
    assert res.route == route
    if sketch is None:
        assert res.sketch_width is None and residual.call_count == 0
    else:
        assert (res.sketch_width, res.rank, residual.call_count) == sketch
        ref = _dense(A, opts, modes=False)
        np.testing.assert_allclose(res.lambdas, ref.lambdas, rtol=0, atol=ROUTE_ATOL)
        assert res.schmidt_number == pytest.approx(ref.schmidt_number, rel=0, abs=ROUTE_ATOL)
        assert res.entropy == pytest.approx(ref.entropy, rel=0, abs=ROUTE_ATOL)
    if route == "dense":
        assert res.residual_mass is None
    else:
        # the certificate: the weight left out is below the cutoff
        lam1 = res.lambdas[0] * (1.0 - res.reconstruction_error**2)
        assert 0.0 <= res.residual_mass <= opts.truncation_threshold * lam1


@pytest.mark.parametrize(
    "make",
    [lambda: _spdc_fig4(512), lambda: _wrap(_random_matrix(np.random.default_rng(3), 300))],
    ids=["spdc-fig4-n512", "complex-gaussian-300"],
)
def test_high_rank_input_bails_before_any_power_iteration(make):
    # sigma_16^2 / sigma_1^2 of the first sketch exceeds sqrt(1e-14), so the
    # sketch is given up after one n x 16 product, before any certificate
    # check.
    A = make()
    with _counting_residual() as residual:
        assert schmidt_decompose(A, modes=False).route != "randomized"
    assert residual.call_count == 0


def test_rejected_sketch_doubles_its_width_up_to_a_quarter_of_n():
    # 24 weights from 1 down to 1e-12: sigma_16^2 / sigma_1^2 ~ 1e-8 passes
    # the first look, but the 8 weights outside a 16-column sketch exceed
    # the 1e-14 cutoff.  A 32-column sketch is accepted when n >= 128.
    s = 10.0 ** (-6.0 * np.arange(24) / 23.0)
    rng = np.random.default_rng(21)
    A = _low_rank(rng, 256, s)
    res = schmidt_decompose(A, modes=False)
    assert (res.route, res.sketch_width, res.rank) == ("randomized", 32, 24)
    np.testing.assert_allclose(res.lambdas, _dense(A, modes=False).lambdas, rtol=0, atol=ROUTE_ATOL)
    # at n = 96 a 32-column sketch would pass n / 4: the dense route runs
    res = schmidt_decompose(_low_rank(rng, 96, s), modes=False)
    assert (res.route, res.sketch_width, res.rank) == ("dense", None, 24)
    # sigma_k = 0.35^k: 16 weights lie above the cutoff, but a 16-column
    # sketch leaves a residual above it; a 32-column one does not.
    A = _low_rank(np.random.default_rng(29), 800, 0.35 ** np.arange(40))
    res = schmidt_decompose(A, modes=False)
    assert (res.route, res.sketch_width) == ("randomized", 32)
    np.testing.assert_allclose(res.lambdas, _dense(A, modes=False).lambdas, rtol=0, atol=ROUTE_ATOL)


# Randomized and dense modes agree to MODE_ATOL / gap, where gap is the
# distance of sigma_k / sigma_1 to its nearest neighbour (or to zero).  The
# largest error x gap over 200 drawn matrices was 3.5e-15.
MODE_ATOL = 1e-13


@st.composite
def _gapped_low_rank(draw):
    """Rank <= 8 above the cutoff, up to 12 weights far below it.

    Kept singular values sit at quarter decades down to 1e-3 of the
    largest, the tail at 1e-8 to 1e-12 of it, so sigma^2 jumps over the
    1e-14 cutoff by at least 1e2.  With more than 16 values, part of the
    tail lies outside the first sketch and the certificate must cover it.
    """
    n = draw(st.integers(64, 300))
    complex_ = draw(st.booleans())
    kept = draw(st.lists(st.integers(0, 12), min_size=1, max_size=8, unique=True))
    tail = draw(st.lists(st.integers(32, 48), max_size=12))
    seed = draw(st.integers(0, 2**32 - 1))
    top = min(kept)
    s = 10.0 ** (-np.array(sorted(kept) + sorted(top + t for t in tail), dtype=float) / 4.0)
    return _low_rank(np.random.default_rng(seed), n, s, complex_), len(kept)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=_gapped_low_rank())
def test_randomized_route_matches_dense_route(case):
    A, rank = case
    rnd = schmidt_decompose(A)
    ref = _dense(A)
    assert (rnd.route, ref.route) == ("randomized", "dense")
    assert rnd.rank == ref.rank == rank
    np.testing.assert_allclose(rnd.lambdas, ref.lambdas, rtol=0, atol=ROUTE_ATOL)
    for attr in ("schmidt_number", "entropy", "reconstruction_error"):
        assert getattr(rnd, attr) == pytest.approx(getattr(ref, attr), rel=0, abs=ROUTE_ATOL)
    sig = np.sqrt(ref.lambdas / ref.lambdas[0])
    for k in range(rank):
        gap = min([sig[k], *np.abs(sig[k] - np.delete(sig, k))])
        for a, b in ((rnd.modes_p, ref.modes_p), (rnd.modes_q, ref.modes_q)):
            assert np.max(np.abs(a[k] - b[k])) <= MODE_ATOL / gap
    vals = schmidt_decompose(A, modes=False)
    assert vals.route == "randomized"
    np.testing.assert_allclose(vals.lambdas, rnd.lambdas, rtol=0, atol=ROUTE_ATOL)


def test_k_and_s_invariant_on_the_randomized_route():
    # transpose, global phase and diagonal (local) unitaries on both sides
    rng = np.random.default_rng(23)
    n = 128
    A = _low_rank(rng, n, 0.3 ** np.arange(7)).entries
    d1 = np.exp(2j * np.pi * rng.random(n))
    d2 = np.exp(2j * np.pi * rng.random(n))
    variants = [A, A.T, np.exp(0.7j) * A, d1[:, None] * A * d2[None, :]]
    results = [schmidt_decompose(_wrap(M), modes=False) for M in variants]
    assert {r.route for r in results} == {"randomized"}
    for r in results[1:]:
        assert r.rank == results[0].rank == 7
        assert r.schmidt_number == pytest.approx(results[0].schmidt_number, rel=0, abs=ROUTE_ATOL)
        assert r.entropy == pytest.approx(results[0].entropy, rel=0, abs=ROUTE_ATOL)


def test_fig1_randomized_route_matches_dense_route():
    # The --fig1 base decomposition (n = 800): weights, K and S within
    # 1e-12; the four written modes and the five Laguerre overlaps within
    # 1e-10.  Measured: modes 1-4 agree to 4e-12, overlaps to 1.4e-14.
    from schmidt_lab.atom_photon import laguerre_mode

    A = _coord(800)
    rnd = schmidt_decompose(A)
    ref = _dense(A)
    assert (rnd.route, rnd.rank, ref.rank) == ("randomized", 5, 5)
    np.testing.assert_allclose(rnd.lambdas, ref.lambdas, rtol=0, atol=ROUTE_ATOL)
    assert rnd.schmidt_number == pytest.approx(ref.schmidt_number, rel=0, abs=ROUTE_ATOL)
    assert rnd.entropy == pytest.approx(ref.entropy, rel=0, abs=ROUTE_ATOL)
    for a, b in ((rnd.modes_p, ref.modes_p), (rnd.modes_q, ref.modes_q)):
        assert np.max(np.abs(a[:4] - b[:4])) <= 1e-10
    p = A.grid.p_nodes()
    for k in range(5):
        mode = laguerre_mode(k, 10.0, p)
        assert abs(mode_overlap(mode, rnd.modes_p[k])) == pytest.approx(
            abs(mode_overlap(mode, ref.modes_p[k])), rel=0, abs=1e-10
        )


def _fig1_probe():
    params = AtomPhotonParams(100.0, 0.03, 10.0)
    grid = atom_photon._pinned_window(params, 800, atom_photon.COORD_PROBE_FACTOR)
    assert grid.n == 1199
    return coord_matrix(params, grid)


def _fig3_momentum(n):
    return momentum_matrix(AtomPhotonParams(100.0, 0.03, 10.0), momentum_grid(n))


@pytest.mark.parametrize(
    "make, modes",
    [
        (lambda: _coord(800), True),
        (_fig1_probe, False),
        (lambda: _fig3_momentum(400), True),
    ],
    ids=["fig1-n800", "fig1-probe-n1199", "fig3-n400"],
)
def test_atom_photon_sketch_passes_its_certificate_without_power_iteration(make, modes):
    # The first 16-column sketch already captures these rank-5 amplitudes
    # far below the cutoff, so one certificate check accepts it.
    A = make()
    with _counting_residual() as residual:
        res = schmidt_decompose(A, modes=modes)
    assert (res.route, res.sketch_width, res.rank) == ("randomized", schmidt.SKETCH_WIDTH, 5)
    assert residual.call_count == 1


def test_values_only_sketch_computes_the_singular_values_of_b_once(monkeypatch):
    # The certificate's values-only SVD of the 16 x n projection B also
    # gives the weights.  np.linalg.norm(B, 2) would run that SVD again
    # through numpy's own module globals, so those are patched as well.
    A = _fig1_probe()
    lapack_svd = np.linalg.svd
    shapes = []

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    norm = getattr(np.linalg.norm, "__wrapped__", np.linalg.norm)
    monkeypatch.setitem(norm.__globals__, "svd", recording_svd)
    res = schmidt_decompose(A, modes=False)
    assert (res.route, res.sketch_width) == ("randomized", schmidt.SKETCH_WIDTH)
    assert shapes.count((schmidt.SKETCH_WIDTH, A.grid.n)) == 1


def test_plateau_spectrum_falls_back_to_the_dense_route_after_one_check_per_width():
    # Ten weights decaying as 0.3^k, then 150 singular values at 1e-4: the
    # first look passes, but no sketch up to n / 4 = 200 columns captures
    # the plateau.  Widths 16, 32, 64 and 128 each fail one certificate
    # check.
    s = np.concatenate([0.3 ** np.arange(10), np.full(150, 1e-4)])
    A = _low_rank(np.random.default_rng(31), 800, s)
    with _counting_residual() as residual:
        res = schmidt_decompose(A, modes=False)
    assert (res.route, res.sketch_width, res.rank) == ("dense", None, 160)
    assert residual.call_count == 4
    assert res.lambdas.tobytes() == _dense(A, modes=False).lambdas.tobytes()


@pytest.mark.parametrize("n", [63, 64, 65, 130])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_blocked_residual_matches_the_unblocked_norm(n, complex_):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    if complex_:
        M = M + 1j * rng.standard_normal((n, n))
    Q = np.linalg.qr(M @ rng.standard_normal((n, 16)))[0]
    B = Q.conj().T @ M
    full = np.linalg.norm(M - Q @ B) ** 2
    assert schmidt._residual(M, Q, B) == pytest.approx(full, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "make, modes",
    [(lambda: _coord(800), True), (_fig1_probe, False)],
    ids=["fig1-n800-modes", "fig1-probe-n1199-values"],
)
def test_randomized_route_allocates_no_matrix_sized_temporary(make, modes):
    # The residual is taken in row blocks; every other array the route
    # allocates is n x 16 or smaller.
    A = make()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = schmidt_decompose(A, modes=modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.route == "randomized"
    assert peak <= 0.5 * A.entries.nbytes


def _parity_basis(n):
    """Orthogonal P: its first ceil(n / 2) columns are even under row
    reversal, the last n // 2 odd."""
    h, m = n - n // 2, n // 2
    P = np.zeros((n, n))
    for k in range(m):
        P[[k, n - 1 - k], k] = np.sqrt(0.5)
        P[[k, n - 1 - k], h + k] = (np.sqrt(0.5), -np.sqrt(0.5))
    if n % 2:
        P[m, m] = 1.0
    return P


def _centrosymmetric(rng, n, complex_):
    """Exactly centrosymmetric entries (C = J C J), built in the parity basis.

    The singular values 10^(-3 j / (n - 1)) are shared out at random between
    the even and the odd block, so the two interleave, and the spacing keeps
    the power-iteration oracle fast.
    """
    h = n - n // 2
    s = rng.permutation(10.0 ** (-3.0 * np.arange(n) / max(n - 1, 1)))

    def unitary(k):
        M = rng.standard_normal((k, k))
        if complex_:
            M = M + 1j * rng.standard_normal((k, k))
        return np.linalg.qr(M)[0]

    blocks = np.zeros((n, n), dtype=complex if complex_ else float)
    blocks[:h, :h] = (unitary(h) * s[:h]) @ unitary(h)
    blocks[h:, h:] = (unitary(n - h) * s[h:]) @ unitary(n - h)
    P = _parity_basis(n)
    C = P @ blocks @ P.T
    # Symmetrize exactly: the rounding of P @ blocks @ P.T is not.
    return (C + C[::-1, ::-1]) / 2.0


def _as_amplitude(entries):
    """Normalize without changing the dtype (``_wrap`` casts to complex)."""
    n = entries.shape[0]
    return normalize(AmplitudeMatrix(grid=make_grid(0.0, n - 1.0, 0.0, n - 1.0, n), entries=entries))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", [2, 3, 8, 9, 64, 65])
def test_centrosymmetric_route_matches_dense_route_and_oracle(n, complex_):
    A = _as_amplitude(_centrosymmetric(np.random.default_rng(n), n, complex_))
    assert A.entries.dtype == (complex if complex_ else float)
    res = schmidt_decompose(A, modes=False)
    assert (res.route, res.sketch_width, res.residual_mass) == ("centrosymmetric", None, 0.0)
    ref = _dense(A, modes=False)
    assert res.rank == ref.rank == n
    np.testing.assert_allclose(res.lambdas, ref.lambdas, rtol=0, atol=ROUTE_ATOL)
    for attr in ("schmidt_number", "entropy", "reconstruction_error"):
        assert getattr(res, attr) == pytest.approx(getattr(ref, attr), rel=0, abs=ROUTE_ATOL)
    np.testing.assert_allclose(res.lambdas, schmidt_weights(A.entries), rtol=0, atol=1e-8)
    # exactly centrosymmetric, so even a zero cutoff certifies the split
    zero = schmidt_decompose(A, DecompositionOptions(truncation_threshold=0.0), modes=False)
    assert (zero.route, zero.residual_mass) == ("centrosymmetric", 0.0)
    # the modes are out of the split's scope
    assert schmidt_decompose(A).route == "dense"


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_anti_centrosymmetric_part_is_certified_or_sent_to_the_dense_route(n, complex_):
    # lambda_1 is about 0.19 of the total here, so the 1e-14 cutoff admits
    # an anti-centrosymmetric part of relative weight up to ~1.9e-15.  A
    # weight of 1e-12 is above it but below the bail at sqrt(1e-14), so the
    # blocks are decomposed, the certificate fails and the dense route runs.
    rng = np.random.default_rng(100 + n)
    C = _centrosymmetric(rng, n, complex_)
    X = rng.standard_normal((n, n))
    anti = X - X[::-1, ::-1]
    anti *= np.linalg.norm(C) / np.linalg.norm(anti)
    trunc = DecompositionOptions().truncation_threshold
    for eps, route in ((1e-6, "dense"), (1e-9, "centrosymmetric")):
        A = _as_amplitude(C + eps * anti)
        res = schmidt_decompose(A, modes=False)
        assert res.route == route
        ref = _dense(A, modes=False)
        np.testing.assert_allclose(res.lambdas, ref.lambdas, rtol=0, atol=ROUTE_ATOL)
    lam1 = res.lambdas[0] * (1.0 - res.reconstruction_error**2)
    assert 0.0 < res.residual_mass <= trunc * lam1
    assert res.residual_mass == pytest.approx(1e-18, rel=1e-6, abs=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _wrap(_random_matrix(np.random.default_rng(3), 300)),
        lambda: _as_amplitude(np.random.default_rng(4).standard_normal((301, 301))),
        lambda: spdc_matrix(spdc_params(L=1.0, sigma=10.0), make_grid(-40.0, 30.0, -40.0, 40.0, 512)),
    ],
    ids=["complex-gaussian-300", "real-gaussian-301", "spdc-fig4-asymmetric-window"],
)
def test_asymmetric_input_bails_before_any_block_is_decomposed(make, monkeypatch):
    # ||A_a||^2 > sqrt(1e-14) ||A||^2: the split is given up after one pass,
    # so no SVD of a half-size block runs.
    A = make()
    shapes = []
    lapack_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert schmidt_decompose(A, modes=False).route == "dense"
    n = A.grid.n
    assert not {(n - n // 2,) * 2, (n // 2,) * 2} & set(shapes)
    assert shapes[-1] == (n, n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _coord(400),
        lambda: _spdc_fig4(512),
        lambda: _wrap(_random_matrix(np.random.default_rng(3), 300)),
        lambda: _as_amplitude(np.random.default_rng(4).standard_normal((301, 301))),
    ],
    ids=["fig1-coord-n400", "spdc-fig4-n512", "complex-gaussian-300", "real-gaussian-301"],
)
def test_decomposition_takes_one_n_by_n_vdot(make, monkeypatch):
    # ||A||_F^2 is summed once and shared by the sketch and the parity
    # split; the other vdot calls are over residual blocks and anti rows.
    A = make()
    n = A.grid.n
    vdot = np.vdot
    shapes = []
    monkeypatch.setattr(schmidt.np, "vdot", lambda a, b: shapes.append(np.shape(a)) or vdot(a, b))
    for modes in (True, False):
        shapes.clear()
        schmidt_decompose(A, modes=modes)
        assert shapes.count((n, n)) == 1


@pytest.mark.parametrize("n", [65, 129])
def test_imaginary_part_in_the_last_row_alone_takes_complex_arithmetic(n, monkeypatch):
    # The real-or-complex scan stops at the first block of 64 rows with a
    # nonzero imaginary part; here only the last, partial block has one.
    e = np.random.default_rng(n).standard_normal((n, n)).astype(complex)
    assert not schmidt._has_imag(e)
    e[-1, 3] += 1e-3j
    assert schmidt._has_imag(e)
    A = _wrap(e)
    ref = np.linalg.svd(A.entries, compute_uv=False) ** 2
    lapack_svd = np.linalg.svd
    dtypes = []

    def recording_svd(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return lapack_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for modes in (True, False):
        res = schmidt_decompose(A, modes=modes)
        np.testing.assert_allclose(res.lambdas, ref[: res.rank], rtol=0, atol=1e-12)
    assert dtypes and set(dtypes) == {np.dtype(complex)}
