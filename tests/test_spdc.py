import math
import tracemalloc
import warnings

import numpy as np
import pytest

from schmidt_lab.cli import FIG_PRESETS
from schmidt_lab.errors import ConvergenceError
from schmidt_lab.polarization import coherence
from schmidt_lab.schmidt import schmidt_decompose
from schmidt_lab.spdc import (
    DEFAULT_D_O,
    SINC_SERIES_CUTOFF,
    biphoton_amplitude,
    check_resolution,
    phase_matching,
    pump_envelope,
    required_n,
    spdc_grid,
    spdc_matrix,
    spdc_params,
)
from schmidt_lab.tensor_core import AmplitudeMatrix, make_grid, normalize


def test_params_products():
    p = spdc_params(L=0.5, sigma=10.0)
    assert p.X_o == pytest.approx(0.076 * 0.5 * 10.0)
    assert p.X_e == pytest.approx(0.266 * 0.5 * 10.0)
    # only the products d * L * sigma matter
    a = spdc_params(L=2.0, sigma=5.0)
    b = spdc_params(L=1.0, sigma=10.0)
    assert (a.X_o, a.X_e) == (b.X_o, b.X_e)
    with pytest.raises(ValueError):
        spdc_params(L=-1.0, sigma=10.0)
    with pytest.raises(ValueError):
        spdc_params(L=1.0, sigma=0.0)


@pytest.mark.parametrize("name", ["d_o", "d_e"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_group_delay(name, value):
    with pytest.raises(ValueError, match=f"group delay {name} must be finite"):
        spdc_params(L=0.5, sigma=10.0, **{name: value})


def test_params_reject_overflowing_walk_off():
    with pytest.raises(ValueError, match="X_o=inf"):
        spdc_params(L=10.0, sigma=10.0, d_o=1e307)


def test_pump_envelope_values_and_symmetry():
    assert pump_envelope(0.0, 0.0) == pytest.approx(1.0)
    assert pump_envelope(1.0, -1.0) == pytest.approx(1.0)
    assert pump_envelope(1.0, 0.0) == pytest.approx(math.exp(-1.0))
    p = np.array([0.3, -1.2, 2.0])
    q = np.array([0.7, 0.4, -0.5])
    np.testing.assert_allclose(pump_envelope(p, q), pump_envelope(q, p), atol=0)


def test_phase_matching_reference_points():
    params = spdc_params(L=0.5, sigma=10.0)
    assert phase_matching(params.X_o, params.X_e, 0.0, 0.0) == pytest.approx(1.0)
    # first zero of sin(x)/x at x = pi: pick p with X_o * p / 2 = pi, q = 0
    p_zero = 2.0 * math.pi / params.X_o
    assert phase_matching(params.X_o, params.X_e, p_zero, 0.0) == pytest.approx(
        0.0, abs=1e-15
    )
    # half argument pi/2 gives 2/pi
    assert phase_matching(params.X_o, params.X_e, p_zero / 2.0, 0.0) == pytest.approx(
        2.0 / math.pi
    )


def test_phase_matching_series_branch_is_continuous():
    # straddle the small-argument series cutoff and compare against np.sinc
    for x in (1e-6, 5e-5, 9.9e-5, 1.01e-4, 1e-3, 0.1):
        ref = float(np.sinc(x / math.pi))
        assert phase_matching(1.0, 1.0, 2.0 * x, 0.0) == pytest.approx(ref, rel=1e-12)


def _where_sinc(X_o, X_e, p, q):
    """The earlier phase_matching, which evaluated both branches everywhere."""
    x = 0.5 * (X_o * np.asarray(p, dtype=float) + X_e * np.asarray(q, dtype=float))
    small = np.abs(x) < SINC_SERIES_CUTOFF
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x**2 / 6.0 + x**4 / 120.0, np.sin(safe) / safe)


EPS = np.finfo(float).eps
# The sinc from the addition formula against sin(x)/x, where |x| >= 1: with
# NumPy's float64 sin and cos within 1 ulp, after two products and a sum the
# numerator is within 3 sqrt(2) eps + eps/2 < 5 eps of sin(a + b); the
# reference's sin(x) is within 1 eps of it; both divide by the same
# |x| >= 1 and round the quotient (<= 1 eps together).  Hence < 8 eps.
SINC_BOUND = 8 * EPS


def test_masked_sinc_is_byte_identical_to_the_where_form():
    # Both axes hold 0 and arguments straddling the series cutoff and 1, so
    # the mesh has x == 0, 0 < |x| < 1e-4, 1e-4 <= |x| < 1 and |x| >= 1.
    # Where |x| < 1 the sinc is still evaluated from x, bit for bit as the
    # where form; elsewhere it comes from 1-D factors, within SINC_BOUND.
    # The walk-offs include a negative X_o and X_o = 0 (d_o < 0, d_o = 0).
    axis = np.concatenate(([0.0], np.geomspace(1e-9, 30.0, 97), -np.geomspace(3e-7, 3.0, 40)))
    p, q = np.meshgrid(axis, axis, indexing="ij")
    for X_o, X_e in ((0.38, 1.33), (3.04, 10.64), (1.0, -1.0), (-0.38, 1.33), (0.0, 1.33)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the 0/0 at x == 0 warns nothing
            got = phase_matching(X_o, X_e, p, q)
            mesh = phase_matching(X_o, X_e, axis[:, None], axis[None, :])
        want = _where_sinc(X_o, X_e, p, q)
        x = np.abs(0.5 * (X_o * p + X_e * q))
        near = x < 1.0
        assert np.any(x == 0.0) and np.any((x != 0.0) & (x < SINC_SERIES_CUTOFF))
        assert np.any(near & (x >= SINC_SERIES_CUTOFF)) and np.any(~near)
        assert got[near].tobytes() == want[near].tobytes()
        assert np.max(np.abs(got - want)[~near]) <= SINC_BOUND
        assert mesh.tobytes() == got.tobytes()  # open mesh vectors, same values
    for args in ((0.38, 1.33, 0.0, 0.0), (1.0, 1.0, 5e-5, 0.0), (1.0, 1.0, 1.5, 0.0)):
        scalar = phase_matching(*args)
        assert type(scalar) is float and scalar == float(_where_sinc(*args))
    scalar = phase_matching(1.0, 1.0, 3.0, 1.0)
    assert type(scalar) is float
    assert abs(scalar - float(_where_sinc(1.0, 1.0, 3.0, 1.0))) <= SINC_BOUND


def _sampling_bound(grid):
    """Largest entry move of spdc_matrix against the n x n form, over max|A|.

    On a shared window the pump is read from 2n - 1 sums p_k + q_0 and
    p_(n-1) + q_j instead of each p_i + q_j.  A linspace node is within
    1.5 ulp(W) of the exact equispaced node (W the largest |node|), so the
    two sums differ by at most 8 ulp(W), and exp(-s^2) has slope below
    sqrt(2/e) < 1: the pump moves by < 8 ulp(W).  The errors sit where the
    pump's mass does, so the norm moves by about as much again (measured:
    1.4 ulp(W) per entry and 0.25 ulp(W) in the norm at W = 40).  Another
    window keeps the n x n pump, and only the sinc (SINC_BOUND) and the
    norm move.
    """
    W = max(abs(grid.p_min), abs(grid.p_max), abs(grid.q_min), abs(grid.q_max))
    shared = grid.p_min == grid.q_min and grid.p_max == grid.q_max
    return 16 * np.spacing(W) + 2 * SINC_BOUND if shared else 2 * SINC_BOUND


FIG4 = FIG_PRESETS["fig4"]
FIG4_LS = [float(L) for L in np.linspace(FIG4["L_start"], FIG4["L_stop"], FIG4["L_steps"])]


@pytest.mark.parametrize(
    "L, window, n, d_o",
    [
        (0.5, None, 511, DEFAULT_D_O),
        (4.0, None, 512, DEFAULT_D_O),
        (2.0, (-30.0, 45.5, -41.0, 37.0), 384, DEFAULT_D_O),
        (2.0, (-30.0, 50.0, -30.0, 50.0), 385, DEFAULT_D_O),
        (2.0, None, 257, -0.076),
        (2.0, None, 257, 0.0),
        # Every --fig4 mesh; L = 0.5 and L = 4 are the --fig5 and --fig6 meshes.
        *((L, None, FIG4["n"], DEFAULT_D_O) for L in FIG4_LS),
    ],
    ids=["odd-n", "even-n", "asymmetric-window", "shared-off-centre-window", "negative-d_o", "zero-d_o"]
    + [f"fig4-L{L:g}" for L in FIG4_LS],
)
def test_spdc_matrix_is_byte_identical_to_the_meshgrid_form(L, window, n, d_o):
    # The earlier sampling: both (n, n) meshgrids, every factor n x n, the
    # product in a new array, then a normalized copy.  Sampling from 1-D
    # factors moves entries by at most _sampling_bound(grid) max|A|, and K,
    # S and F by at most 1e-12; the route stays centrosymmetric.
    params = spdc_params(L=L, sigma=FIG4["sigma"], d_o=d_o)
    grid = spdc_grid(params, n) if window is None else make_grid(*window, n)
    P, Q = np.meshgrid(grid.p_nodes(), grid.q_nodes(), indexing="ij")
    raw = np.exp(-((P + Q) ** 2)) * _where_sinc(params.X_o, params.X_e, P, Q)
    want = normalize(AmplitudeMatrix(grid=grid, entries=raw)).entries
    got = spdc_matrix(params, grid)
    assert got.normalized and got.entries.dtype == np.float64
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.entries - want)) <= _sampling_bound(grid) * scale
    if window is not None:
        return
    if n % 2:
        assert 0.0 in grid.p_nodes()  # so x == 0 at the centre node
    res = schmidt_decompose(got, modes=False)
    assert res.route == "centrosymmetric"
    K, S = _weights_reference(want)
    assert res.schmidt_number == pytest.approx(K, rel=0, abs=1e-12)
    assert res.entropy == pytest.approx(S, rel=0, abs=1e-12)
    assert coherence(got).real == pytest.approx(np.sum(want * want.T), rel=0, abs=1e-12)


def test_spdc_matrix_peak_memory_is_at_most_2_3_times_its_result():
    # The sinc and its quotient take two n x n buffers and a bool mask; the
    # pump is a Hankel view of 2n - 1 values.  A third n x n buffer would
    # take the peak past 3 times the result.  L = 0.25 has the most
    # entries with |x| < 1 of the presets.
    for L in (FIG4_LS[0], 4.0):
        params = spdc_params(L=L, sigma=FIG4["sigma"])
        grid = spdc_grid(params, 512)
        spdc_matrix(params, grid)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            A = spdc_matrix(params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * A.entries.nbytes, (L, peak / A.entries.nbytes)


def test_biphoton_amplitude_origin_and_realness():
    params = spdc_params(L=0.5, sigma=10.0)
    assert biphoton_amplitude(params, 0.0, 0.0) == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(20, 2))
    vals = biphoton_amplitude(params, pts[:, 0], pts[:, 1])
    assert np.all(np.isreal(vals))


def test_spectrum_depends_only_on_crystal_pump_product():
    g = spdc_grid(spdc_params(L=0.5, sigma=10.0), n=128)
    res_a = schmidt_decompose(spdc_matrix(spdc_params(L=0.5, sigma=10.0), g))
    res_b = schmidt_decompose(spdc_matrix(spdc_params(L=5.0, sigma=1.0), g))
    np.testing.assert_allclose(res_a.lambdas, res_b.lambdas, atol=1e-14)


def test_swapping_ray_constants_swaps_sides_not_spectrum():
    fwd = spdc_params(L=0.5, sigma=10.0)
    rev = spdc_params(L=0.5, sigma=10.0, d_o=0.266, d_e=0.076)
    g = spdc_grid(fwd, n=128)
    res_f = schmidt_decompose(spdc_matrix(fwd, g))
    res_r = schmidt_decompose(spdc_matrix(rev, g))
    np.testing.assert_allclose(res_f.lambdas, res_r.lambdas, atol=1e-12)


def test_modes_are_real_after_gauge_fixing():
    params = spdc_params(L=0.5, sigma=10.0)
    res = schmidt_decompose(spdc_matrix(params, spdc_grid(params, n=128)))
    k = min(res.rank, 8)
    assert np.max(np.abs(res.modes_p[:k].imag)) <= 1e-10
    assert np.max(np.abs(res.modes_q[:k].imag)) <= 1e-10


def test_resolution_guard():
    params = spdc_params(L=4.0, sigma=10.0)
    need = required_n(params, half_width=40.0)
    coarse = make_grid(-40.0, 40.0, -40.0, 40.0, 32)
    with pytest.raises(ConvergenceError, match=str(need)):
        check_resolution(params, coarse)
    with pytest.raises(ConvergenceError):
        spdc_matrix(params, coarse)
    # spdc_grid only builds the window; spdc_matrix is the one resolution check
    with pytest.raises(ConvergenceError, match=f"use n >= {need}$"):
        spdc_matrix(params, spdc_grid(params, n=need - 1))
    # the default preset resolution is accepted
    check_resolution(params, spdc_grid(params, n=512))


def test_default_window():
    g = spdc_grid(spdc_params(L=0.5, sigma=10.0), n=512)
    assert (g.p_min, g.p_max, g.q_min, g.q_max) == (-40.0, 40.0, -40.0, 40.0)
    assert g.n == 512


def test_entanglement_shrinks_as_sinc_narrows():
    # with the pump bandwidth fixed, longer crystals narrow the sinc and
    # wash out the pump-induced correlations, so the mode count drops
    ks = []
    for L in (0.5, 1.0, 2.0, 4.0):
        params = spdc_params(L=L, sigma=10.0)
        g = spdc_grid(params, n=max(256, required_n(params, 40.0)))
        ks.append(schmidt_decompose(spdc_matrix(params, g)).schmidt_number)
    assert all(b < a for a, b in zip(ks, ks[1:]))
    assert ks[0] == pytest.approx(5.66, abs=0.3)
    assert ks[-1] == pytest.approx(2.24, abs=0.2)


def _weights_reference(entries, trunc=1e-14):
    """K and S from np.linalg.svd of the whole matrix, with the 1e-14 rule."""
    lam = np.linalg.svd(entries, compute_uv=False) ** 2
    lam = lam / lam.sum()
    lam = lam[lam >= trunc * lam[0]]
    lam = lam / lam.sum()
    return 1.0 / np.sum(lam**2), -np.sum(lam * np.log2(lam))


def test_fig4_meshes_on_the_centrosymmetric_route_match_the_dense_svd():
    # Every --fig4 sweep point: a float64 amplitude on the symmetric window,
    # decomposed through its parity blocks.  K, S and F within 1e-12 of the
    # dense SVD and of F computed in complex arithmetic.
    fig4 = FIG_PRESETS["fig4"]
    for L in np.linspace(fig4["L_start"], fig4["L_stop"], fig4["L_steps"]):
        params = spdc_params(L=float(L), sigma=fig4["sigma"])
        A = spdc_matrix(params, spdc_grid(params, fig4["n"]))
        assert A.entries.dtype == np.float64
        res = schmidt_decompose(A, modes=False)
        assert res.route == "centrosymmetric"
        K, S = _weights_reference(A.entries)
        assert res.schmidt_number == pytest.approx(K, rel=0, abs=1e-12)
        assert res.entropy == pytest.approx(S, rel=0, abs=1e-12)
        E = A.entries.astype(complex)
        F = np.sum(E * E.conj().T)
        assert coherence(A) == pytest.approx(F, rel=0, abs=1e-12)
