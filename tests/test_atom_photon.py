import math
import tracemalloc

import numpy as np
import pytest
import scipy.special

import schmidt_lab.atom_photon as atom_photon
from schmidt_lab.atom_photon import (
    COORD_PROBE_FACTOR,
    DEFAULT_N,
    AtomPhotonParams,
    asymptotics,
    coord_amplitude,
    coord_capture_drift,
    coord_grid,
    coord_matrix,
    coord_spectrum,
    eta_opt,
    full_dynamics,
    laguerre_mode,
    momentum_amplitude,
    momentum_grid,
    momentum_matrix,
    momentum_probe,
    validity_check,
    xi0_estimate,
    zero_order_dynamics,
)
from schmidt_lab.errors import ConvergenceError
from schmidt_lab.schmidt import DecompositionOptions, mode_overlap, schmidt_decompose, spectrum_drift
from schmidt_lab.tensor_core import AmplitudeMatrix, enlarged_n, make_grid, normalize

FIG_PARAMS = AtomPhotonParams(xi0=100.0, eta=0.03, tau=10.0)


def test_params_validation():
    with pytest.raises(ValueError):
        AtomPhotonParams(xi0=0.0, eta=0.03, tau=10.0)
    with pytest.raises(ValueError):
        AtomPhotonParams(xi0=100.0, eta=-0.03, tau=10.0)
    with pytest.raises(ValueError):
        AtomPhotonParams(xi0=100.0, eta=0.03, tau=np.nan)


def test_coord_amplitude_vanishes_beyond_light_front():
    assert coord_amplitude(FIG_PARAMS, 10.0001, 0.0) == 0.0
    p = np.array([9.0, 10.0, 11.0, 50.0])
    vals = coord_amplitude(FIG_PARAMS, p, np.zeros(4))
    assert vals[2] == 0.0 and vals[3] == 0.0
    assert vals[0] != 0.0 and vals[1] != 0.0


def test_coord_amplitude_reference_points():
    # both exponents vanish at the front on the ridge
    assert coord_amplitude(FIG_PARAMS, 10.0, -10.0) == pytest.approx(1.0)
    # one decay length behind the front, still on the ridge p + q = 0
    assert coord_amplitude(FIG_PARAMS, 9.0, -9.0) == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )


def test_coord_amplitude_warns_at_small_tau():
    early = AtomPhotonParams(xi0=100.0, eta=0.03, tau=2.0)
    with pytest.warns(UserWarning, match="tau"):
        coord_amplitude(early, 1.0, -1.0)


def test_coord_amplitude_factorizes_in_sum_coordinate():
    # psi(p, q) = g(tau - p) * h(p + q): the ratio between two p values
    # must not depend on the shared value of p + q
    for c in (0.0, 5.0, -3.0):
        r1 = coord_amplitude(FIG_PARAMS, 9.0, c - 9.0) / coord_amplitude(
            FIG_PARAMS, 7.0, c - 7.0
        )
        r2 = coord_amplitude(FIG_PARAMS, 9.0, -9.0) / coord_amplitude(
            FIG_PARAMS, 7.0, -7.0
        )
        assert r1 == pytest.approx(r2, rel=1e-12)


def test_momentum_amplitude_reference_points():
    # at pi_a = 0 and nu_ph = -1/(2 xi0) only the i/2 width survives
    val = momentum_amplitude(FIG_PARAMS, -1.0 / 200.0, 0.0)
    assert val == pytest.approx(-2.0j, abs=1e-15)
    # Lorentzian half width at half maximum is 1/2
    center = -1.0 / 200.0
    peak = abs(momentum_amplitude(FIG_PARAMS, center, 0.0)) ** 2
    side = abs(momentum_amplitude(FIG_PARAMS, center + 0.5, 0.0)) ** 2
    assert side == pytest.approx(peak / 2.0, rel=1e-12)
    with pytest.raises(ValueError, match="finite"):
        momentum_amplitude(FIG_PARAMS, np.inf, 0.0)


def _meshgrid_matrix(amplitude, grid):
    """The earlier sampling: both (n, n) meshgrids, then a normalized copy."""
    P, Q = np.meshgrid(grid.p_nodes(), grid.q_nodes(), indexing="ij")
    return normalize(AmplitudeMatrix(grid=grid, entries=amplitude(P, Q)))


def _where_coord(params, p, q):
    """The earlier coord_amplitude: every factor n x n, masked by np.where."""
    x = params.tau - p
    inside = x >= 0.0
    xs = np.where(inside, x, 0.0)
    denom = 2.0 * (1.0 + 1j * params.tau * params.eta**2 * params.xi0)
    vals = np.exp(-xs / 2.0) * np.exp(-(params.eta**2) * (p + q) ** 2 / denom)
    return np.where(inside, vals, 0.0 + 0.0j)


def _old_momentum(params, nu, pi):
    """The earlier momentum_amplitude, with the Gaussian n x n as well."""
    denom = nu + 1.0 / (2.0 * params.xi0) - params.eta * pi + 0.5j
    return np.exp(-(pi**2) / 2.0) / denom


def _longdouble_coord(params, p, q):
    """coord_amplitude in extended precision at the same float nodes.

    Where np.longdouble is float64 this is one more double evaluation, and
    the tolerance test below checks less.
    """
    L = np.longdouble
    p, q = p.astype(L), q.astype(L)
    x = L(params.tau) - p
    inside = x >= 0
    T = L(params.tau) * L(params.eta) ** 2 * L(params.xi0)
    c = -(L(params.eta) ** 2) / (2 * (1 + np.clongdouble(1j) * T))
    vals = np.exp(-np.where(inside, x, 0) / 2) * np.exp(c * (p + q) ** 2)
    return np.where(inside, vals, 0)


def _open_mesh_amplitude(monkeypatch, params, grid):
    """coord_amplitude on the open mesh of ``grid``, and the route it took."""
    routes = []
    factored = atom_photon._factored_gaussian

    def recording(*args):
        out = factored(*args)
        routes.append("direct" if out is None else "factored")
        return out

    monkeypatch.setattr(atom_photon, "_factored_gaussian", recording)
    p, q = grid.p_nodes()[:, None], grid.q_nodes()[None, :]
    if params.tau < 3.0:
        with pytest.warns(UserWarning, match="only qualitative below tau = 3"):
            got = coord_amplitude(params, p, q)
    else:
        got = coord_amplitude(params, p, q)
    assert len(routes) == 1
    return got, routes[0]


T25 = AtomPhotonParams(xi0=250.0, eta=0.1, tau=10.0)
T810 = AtomPhotonParams(xi0=1000.0, eta=0.3, tau=9.0)


@pytest.mark.parametrize(
    "params, window, n, route",
    [
        (FIG_PARAMS, None, 800, "factored"),
        (FIG_PARAMS, "probe", 800, "factored"),
        (AtomPhotonParams(xi0=100.0, eta=0.03, tau=0.1), None, 400, "factored"),
        (FIG_PARAMS, None, 400, "factored"),  # fig2's last tau
        # rows beyond the light front p = tau, zeroed by the row mask
        (FIG_PARAMS, (-20.0, 13.7, -25.0, 31.0), 257, "factored"),
        (AtomPhotonParams(xi0=100.0, eta=0.08, tau=2.0), (-30.0, 4.0, -40.0, 30.0), 300, "factored"),
        (FIG_PARAMS, None, 65, "factored"),  # a last block of one column
        (T25, None, 800, "factored"),
        (T25, None, 400, "direct"),  # table error bound above the cutoff
        (T810, None, 64, "direct"),
        (T810, None, 1600, "direct"),
    ],
    ids=[
        "fig1-window", "fig1-probe", "fig2-first-tau", "fig2-last-tau", "past-the-front",
        "tau-below-3", "fig1-n65", "T25-n800", "T25-n400", "T810-n64", "T810-n1600",
    ],
)
def test_coord_amplitude_matches_a_longdouble_evaluation(monkeypatch, params, window, n, route):
    # Tolerance, relative to the largest entry: 4 eps (2 + T).  The direct
    # form's own rounding grows with the phase T = tau eta^2 xi0 (1.2e-13
    # at T = 810); the factored route measured at most 1.1e-15 at fig1 and
    # fig2 and 3.6e-15 at T = 25, against a cutoff of FACTORED_ERR_MAX on
    # its derived bound.
    if window is None:
        grid = coord_grid(params, n)
    elif window == "probe":
        grid = atom_photon._pinned_window(params, n, COORD_PROBE_FACTOR)
    else:
        grid = make_grid(*window, n)
    got, taken = _open_mesh_amplitude(monkeypatch, params, grid)
    assert taken == route
    T = params.tau * params.eta**2 * params.xi0
    p, q = grid.p_nodes()[:, None], grid.q_nodes()[None, :]
    want = _longdouble_coord(params, p, q)
    scale = float(np.abs(want).max())
    err = float(np.abs(got - want).max()) / scale
    assert err <= 4 * np.finfo(float).eps * (2 + T), err
    beyond = grid.p_nodes() > params.tau
    if isinstance(window, tuple):
        assert beyond.any()
    assert not np.signbit(got[beyond].view(float)).any() and not got[beyond].any()
    if route == "direct":
        assert got.tobytes() == _where_coord(params, p, q).tobytes()


@pytest.mark.parametrize(
    "p, q",
    [
        (9.0, -9.0),
        # full arrays, not an open mesh
        tuple(np.meshgrid(np.linspace(-30.0, 10.0, 65), np.linspace(-300.0, 300.0, 65), indexing="ij")),
        # q nodes that are not np.linspace's
        (np.linspace(-30.0, 10.0, 65)[:, None], np.linspace(-300.0, 300.0, 65)[None, :] ** 3 / 9e4),
        # entries near 1e-298: tables this small would go subnormal
        (np.linspace(9.0, 10.0, 4)[:, None], np.linspace(1650.0, 1660.0, 4)[None, :]),
    ],
    ids=["scalar", "full-arrays", "non-uniform-q", "far-off-the-ridge"],
)
def test_coord_amplitude_direct_form_is_byte_identical_to_the_where_form(p, q):
    got = coord_amplitude(FIG_PARAMS, p, q)
    want = _where_coord(FIG_PARAMS, np.asarray(p), np.asarray(q))
    assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [64, 401])
def test_momentum_matrix_is_byte_identical_to_the_meshgrid_form(n):
    grid = momentum_grid(n)
    want = _meshgrid_matrix(lambda nu, pi: _old_momentum(FIG_PARAMS, nu, pi), grid).entries
    got = momentum_matrix(FIG_PARAMS, grid)
    assert got.normalized and got.entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [600, 640, 1199])
def test_coord_matrix_peak_memory_is_at_most_twice_its_result(n):
    # Two n x n meshgrids and a chain of n x n temporaries took 4.6 times
    # the result.  The factored route writes its blocks one row block at a
    # time: a product into the strided block view of all rows at once made
    # an n x n temporary whenever PHASE_BLOCK does not divide n (600, 1199).
    grid = coord_grid(FIG_PARAMS, n)
    coord_matrix(FIG_PARAMS, grid)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        A = coord_matrix(FIG_PARAMS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * A.entries.nbytes, peak / A.entries.nbytes


def test_xi0_estimate():
    assert xi0_estimate(1836.0) == pytest.approx(13.4, abs=0.05)
    assert xi0_estimate(137.0) == pytest.approx(1.0)
    assert xi0_estimate(13700.0) == pytest.approx(100.0)


def test_eta_opt():
    assert eta_opt(100.0, 10.0) == pytest.approx(1.0 / math.sqrt(1000.0))
    assert eta_opt(1.0, 1.0) == pytest.approx(1.0)
    assert eta_opt(100.0, 1.0) == pytest.approx(0.1)


def test_validity_check_marginal_case():
    rep = validity_check(FIG_PARAMS)
    assert rep.eta_lower == pytest.approx(0.01)
    assert rep.eta_upper == pytest.approx(0.1)
    assert rep.packet_ratio == pytest.approx(1.0 / 3.0)
    assert rep.satisfied
    assert rep.messages  # sits at the window edge


def test_validity_check_violated_and_comfortable():
    bad = validity_check(AtomPhotonParams(xi0=100.0, eta=0.5, tau=10.0))
    assert not bad.satisfied
    assert any("exceeds" in m for m in bad.messages)
    good = validity_check(AtomPhotonParams(xi0=1e4, eta=1e-3, tau=10.0))
    assert good.satisfied
    assert good.messages == ()


def test_laguerre_k0_is_decaying_exponential():
    p = np.linspace(-30.0, 10.0, 400)
    mode = laguerre_mode(0, 10.0, p)
    x = np.where(10.0 - p >= 0, 10.0 - p, 0.0)
    ref = np.where(10.0 - p >= 0, np.exp(-x / 2.0), 0.0)
    ref = ref / np.linalg.norm(ref)
    np.testing.assert_allclose(mode, ref, atol=1e-14)


def test_laguerre_recurrence_matches_reference_polynomials():
    p = np.linspace(-20.0, 10.0, 57)
    x = 10.0 - p
    for k in range(7):
        mode = laguerre_mode(k, 10.0, p)
        ref = scipy.special.eval_laguerre(k, x) * np.exp(-x / 2.0)
        ref = ref / np.linalg.norm(ref)
        np.testing.assert_allclose(mode, ref, atol=1e-10)


def test_laguerre_discrete_orthonormality():
    # dense mesh over 40 decay lengths of the |mode| envelope (x up to 80)
    dx = 0.001
    tau = 0.0
    p = -(np.arange(int(80.0 / dx)) + 0.5) * dx
    modes = [laguerre_mode(k, tau, p) for k in range(6)]
    for j in range(6):
        for k in range(6):
            expected = 1.0 if j == k else 0.0
            assert abs(mode_overlap(modes[j], modes[k]) - expected) <= 1e-6


def test_laguerre_errors():
    with pytest.raises(ValueError, match="non-negative"):
        laguerre_mode(-1, 10.0, np.linspace(0, 10, 5))
    with pytest.raises(ValueError, match="support"):
        laguerre_mode(0, 10.0, np.array([11.0, 12.0]))


def test_zero_order_dynamics_reference_points():
    assert zero_order_dynamics(0.0) == (1.0, 0.0)
    k0, s0 = zero_order_dynamics(math.log(2.0))
    assert k0 == pytest.approx(2.0, abs=1e-12)
    assert s0 == pytest.approx(1.0, abs=1e-12)
    k0, s0 = zero_order_dynamics(20.0)
    assert k0 == pytest.approx(1.0, abs=1e-6)
    assert s0 == pytest.approx(0.0, abs=1e-6)
    for bad in (-0.1, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            zero_order_dynamics(bad)


def test_zero_order_entropy_weight_conventions():
    le, lg = math.exp(-2.0), 1.0 - math.exp(-2.0)
    k_sq, s_sq = zero_order_dynamics(2.0)
    k_lin, s_lin = zero_order_dynamics(2.0, squared_entropy_weights=False)
    assert k_sq == k_lin == pytest.approx(1.0 / (le**2 + lg**2))
    assert s_sq == pytest.approx(
        -(le**2) * math.log2(le**2) - lg**2 * math.log2(lg**2)
    )
    assert s_lin == pytest.approx(-le * math.log2(le) - lg * math.log2(lg))
    # the two readings coincide at the symmetric point
    assert zero_order_dynamics(math.log(2.0)) == pytest.approx(
        zero_order_dynamics(math.log(2.0), squared_entropy_weights=False)
    )


def test_asymptotics_values_and_errors():
    k_inf, s_inf = asymptotics(0.03)
    assert k_inf == pytest.approx(1.0009)
    expected = 0.0009 / math.log(2.0) * (math.log(1 / 0.03) + 0.5 * (1 + math.log(2.0)))
    assert s_inf == pytest.approx(expected, rel=1e-12)
    k_small, s_small = asymptotics(1e-9)
    assert k_small == pytest.approx(1.0, abs=1e-12)
    assert s_small == pytest.approx(0.0, abs=1e-12)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            asymptotics(bad)


def test_coord_grid_geometry():
    g = coord_grid(FIG_PARAMS, n=100)
    assert g.p_max == pytest.approx(10.0)
    assert g.p_min == pytest.approx(-30.0)
    w = math.sqrt(1.0 + (10.0 * 0.03**2 * 100.0) ** 2) / 0.03
    assert g.q_min == pytest.approx(-10.0 - 6.0 * w)
    assert g.q_max == pytest.approx(30.0 + 6.0 * w)
    gm = momentum_grid(50)
    assert (gm.p_min, gm.p_max, gm.q_min, gm.q_max) == (-60.0, 60.0, -6.0, 6.0)


def test_coord_window_enlargement_invariance():
    base = coord_spectrum(FIG_PARAMS, 400)
    big_grid = atom_photon._pinned_window(FIG_PARAMS, 400, 2.0)
    big = schmidt_decompose(coord_matrix(FIG_PARAMS, big_grid), modes=False)
    assert spectrum_drift(base, big) < 1e-6
    assert base.modes_p is None  # values only


def test_momentum_window_doubling_invariance():
    grid, opts = momentum_grid(200), DecompositionOptions()
    base = schmidt_decompose(momentum_matrix(FIG_PARAMS, grid), opts, modes=False)
    assert spectrum_drift(base, momentum_probe(FIG_PARAMS, grid, opts)) < 1e-6


def test_momentum_eta_zero_is_separable():
    params = AtomPhotonParams(xi0=100.0, eta=1e-12, tau=10.0)
    res = schmidt_decompose(momentum_matrix(params, momentum_grid(200)))
    assert res.lambdas[0] >= 1.0 - 1e-6


def test_full_dynamics_reduces_to_zero_order():
    for tau in (0.5, math.log(2.0), 2.0):
        k0, _ = zero_order_dynamics(tau)
        _, s0 = zero_order_dynamics(tau, squared_entropy_weights=False)
        spectrum = coord_spectrum(AtomPhotonParams(xi0=100.0, eta=1e-8, tau=tau), 128)
        k, s, lam = full_dynamics(tau, spectrum)
        assert abs(k - k0) < 1e-6
        assert abs(s - s0) < 1e-6
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert full_dynamics(0.0, spectrum)[:2] == (1.0, 0.0)


def test_full_dynamics_approaches_asymptotic_k():
    k, _, _ = full_dynamics(10.0, coord_spectrum(FIG_PARAMS, 300))
    eta_sq = FIG_PARAMS.eta**2
    assert eta_sq / 2.0 <= k - 1.0 <= 2.0 * eta_sq


def test_coord_capture_drift_reuses_base_decomposition(monkeypatch):
    # One base and one enlarged-window SVD per call, and the check changes
    # nothing it returns.
    taus = (5.0, 10.0)
    unchecked = [coord_spectrum(AtomPhotonParams(100.0, 0.03, tau)) for tau in taus]
    sizes = []
    decompose = atom_photon.schmidt_decompose

    def recording(A, *args, **kwargs):
        sizes.append(A.grid.n)
        return decompose(A, *args, **kwargs)

    monkeypatch.setattr(atom_photon, "schmidt_decompose", recording)
    checked = [coord_capture_drift(AtomPhotonParams(100.0, 0.03, tau))[0] for tau in taus]
    n = DEFAULT_N
    assert sizes == [n, enlarged_n(n, COORD_PROBE_FACTOR)] * len(taus)
    for base, base0 in zip(checked, unchecked):
        assert np.array_equal(base.lambdas, base0.lambdas)


def test_full_dynamics_capture_failure_raises():
    # At n = 64 the eta = 0.08 window drifts by 1.1e-6 under the probe.
    params = AtomPhotonParams(xi0=100.0, eta=0.08, tau=10.0)
    with pytest.raises(ConvergenceError, match="capture"):
        coord_capture_drift(params, 64)


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
def test_full_dynamics_with_a_shared_spectrum_matches_the_per_tau_route(monkeypatch):
    # Free evolution is local, so one spectrum serves every tau.
    spectrum = coord_spectrum(FIG_PARAMS, 96)
    per_tau = {
        tau: full_dynamics(tau, coord_spectrum(AtomPhotonParams(100.0, 0.03, tau), 96))
        for tau in (0.1, 1.0, 2.5, 6.0, 10.0)
    }

    def no_decomposition(*args, **kwargs):
        raise AssertionError("full_dynamics samples and decomposes nothing")

    for name in ("schmidt_decompose", "coord_matrix"):
        monkeypatch.setattr(atom_photon, name, no_decomposition)
    for tau, (k0, s0, lam0) in per_tau.items():
        k, s, lam = full_dynamics(tau, spectrum)
        assert abs(k - k0) <= 1e-12 and abs(s - s0) <= 1e-12
        np.testing.assert_allclose(lam, lam0, rtol=0, atol=1e-15)
    assert full_dynamics(0.0, spectrum)[:2] == (1.0, 0.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="non-negative"):
            full_dynamics(bad, spectrum)


def test_coord_matrix_normalized():
    A = coord_matrix(FIG_PARAMS, coord_grid(FIG_PARAMS, n=64))
    assert A.normalized
    assert np.sum(np.abs(A.entries) ** 2) == pytest.approx(1.0, abs=1e-12)
