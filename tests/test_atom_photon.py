import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special

import schmidt_lab.atom_photon as atom_photon
import schmidt_lab.cli as cli
from schmidt_lab.atom_photon import (
    CAPTURE_TOL,
    COORD_DECAY_SPAN,
    COORD_PROBE_FACTOR,
    COORD_SIGMA_MARGIN,
    THIN_Q_SPACING,
    AtomPhotonParams,
    asymptotics,
    coord_amplitude,
    coord_capture_drift,
    coord_decomposition,
    coord_grid,
    coord_matrix,
    coord_spectrum,
    coord_thin_grid,
    eta_opt,
    full_dynamics,
    laguerre_mode,
    momentum_amplitude,
    momentum_decomposition,
    momentum_grid,
    momentum_matrix,
    momentum_probe,
    momentum_thin_grid,
    validity_check,
    xi0_estimate,
    zero_order_dynamics,
)
from schmidt_lab.errors import ConvergenceError
from schmidt_lab.schmidt import (
    DecompositionOptions,
    entanglement_entropy,
    mode_overlap,
    schmidt_decompose,
    schmidt_number,
    spectrum_drift,
)
from schmidt_lab.tensor_core import AmplitudeMatrix, grown_grid, make_grid, normalize, sample_amplitude

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


def _table_routes(monkeypatch):
    """A list that records, per ``_gaussian_tables`` call, whether the tables refused."""
    routes = []
    tables = atom_photon._gaussian_tables

    def recording(*args):
        out = tables(*args)
        routes.append("direct" if out is None else "factored")
        return out

    monkeypatch.setattr(atom_photon, "_gaussian_tables", recording)
    return routes


def _mesh_amplitude(monkeypatch, params, grid):
    """The coordinate amplitude from coord_matrix's sampler on ``grid``, and the route it took."""
    routes = _table_routes(monkeypatch)
    p, q = grid.p_nodes()[:, None], grid.q_nodes()[None, :]
    if params.tau < 3.0:
        with pytest.warns(UserWarning, match="only qualitative below tau = 3"):
            got = atom_photon._coord_mesh(params, p, q)
    else:
        got = atom_photon._coord_mesh(params, p, q)
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
    # its derived bound.  Where the tables refuse, the sampler's entries
    # are coord_amplitude's.
    if window is None:
        grid = coord_grid(params, n)
    elif window == "probe":
        grid = grown_grid(coord_grid(params, n), 2.0 * COORD_PROBE_FACTOR - 1.0)
    else:
        grid = make_grid(*window, n)
    got, taken = _mesh_amplitude(monkeypatch, params, grid)
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


def _open_mesh(params, n):
    grid = coord_grid(params, n)
    return params, grid.p_nodes()[:, None], grid.q_nodes()[None, :]


@pytest.mark.parametrize(
    "params, p, q",
    [
        (FIG_PARAMS, 9.0, -9.0),
        # full arrays
        (FIG_PARAMS, *np.meshgrid(np.linspace(-30.0, 10.0, 65), np.linspace(-300.0, 300.0, 65), indexing="ij")),
        # q nodes that are not np.linspace's
        (FIG_PARAMS, np.linspace(-30.0, 10.0, 65)[:, None], np.linspace(-300.0, 300.0, 65)[None, :] ** 3 / 9e4),
        # entries near 1e-298
        (FIG_PARAMS, np.linspace(9.0, 10.0, 4)[:, None], np.linspace(1650.0, 1660.0, 4)[None, :]),
        # open meshes whose exp tables coord_matrix uses
        _open_mesh(FIG_PARAMS, 800),
        _open_mesh(T25, 800),
    ],
    ids=["scalar", "full-arrays", "non-uniform-q", "far-off-the-ridge", "fig1-open-mesh", "T25-open-mesh"],
)
def test_coord_amplitude_direct_form_is_byte_identical_to_the_where_form(params, p, q):
    got = coord_amplitude(params, p, q)
    want = _where_coord(params, np.asarray(p), np.asarray(q))
    assert np.asarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "params, route",
    [
        (AtomPhotonParams(xi0=100.0, eta=0.03, tau=0.1), "factored"),
        (AtomPhotonParams(xi0=100.0, eta=0.5, tau=1.0), "direct"),  # table error bound above the cutoff
    ],
    ids=["factored", "refused"],
)
def test_coord_matrix_raises_the_long_time_advisory_once(monkeypatch, params, route):
    routes = _table_routes(monkeypatch)
    with pytest.warns(UserWarning, match="only qualitative below tau = 3") as caught:
        coord_matrix(params, coord_grid(params, 400))
    assert routes == [route]
    assert len(caught) == 1


def test_coord_matrix_samples_directly_where_the_tables_would_be_subnormal(monkeypatch):
    # Far off the ridge the error bound accepts the tables, but their row
    # table peaks at 4.6e-151, below FACTORED_TABLE_MIN: only that floor
    # refuses them (without it they are taken, the largest entry 7.4e-145).
    # The sample is then coord_amplitude's, normalized.
    grid = make_grid(-30.0, 10.0, 1150.0, 1250.0, 64)
    p, q = grid.p_nodes()[:, None], grid.q_nodes()[None, :]
    assert atom_photon._gaussian_tables(FIG_PARAMS, p, q) is None
    with monkeypatch.context() as m:
        m.setattr(atom_photon, "FACTORED_TABLE_MIN", 0.0)
        tables = atom_photon._gaussian_tables(FIG_PARAMS, p, q)
        largest = np.abs(atom_photon._factored_gaussian(tables, 64, 64)).max()
        assert largest == pytest.approx(7.444e-145, rel=1e-3)
    want = sample_amplitude(lambda p, q: coord_amplitude(FIG_PARAMS, p, q), grid).entries
    assert coord_matrix(FIG_PARAMS, grid).entries.tobytes() == want.tobytes()


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


def test_coord_grid_refuses_a_chirp_whose_square_overflows():
    with pytest.raises(ValueError, match="chirp tau eta\\^2 xi0 = 9e\\+298 is too large"):
        coord_grid(AtomPhotonParams(100.0, 0.03, 1e300), 16)
    # Below the overflow the window keeps the bits of its formula.
    for tau in (1e-3, 10.0, 1e9):
        params = AtomPhotonParams(100.0, 0.03, tau)
        w = math.sqrt(1.0 + (tau * 0.03**2 * 100.0) ** 2) / 0.03
        assert coord_grid(params, 16).q_max == -(tau - 40.0) + 6.0 * w


def test_coord_grid_refuses_a_tau_whose_ulp_moves_its_p_nodes():
    # The ulp of tau must stay within 2^-20 of the p spacing 40 / (n - 1):
    # tau < 2^32 at n = 64 and < 2^28 at n = 800.
    for tau, n in ((2.0**32, 64), (1e16, 64), (1e18, 64), (2.0**28, 800)):
        message = re.escape(f"tau = {tau:g} is too large for the coordinate window at n = {n}")
        with pytest.raises(ValueError, match=message):
            coord_grid(AtomPhotonParams(1e-12, 0.03, tau), n)
    for tau, n in ((math.nextafter(2.0**32, 0.0), 64), (math.nextafter(2.0**28, 0.0), 800)):
        coord_grid(AtomPhotonParams(1e-12, 0.03, tau), n)
    # Below the bound the weights keep their tau = 10 values.
    k = [coord_spectrum(AtomPhotonParams(1e-12, 0.03, tau), 64).schmidt_number for tau in (10.0, 1e6)]
    assert abs(k[1] - k[0]) <= 1e-13


def test_coord_window_enlargement_invariance():
    base = coord_spectrum(FIG_PARAMS, 400)
    big_grid = grown_grid(coord_grid(FIG_PARAMS, 400), 2.0)
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
    # The probe is the real T = 0 factor on the grown window: no n x n
    # matrix is sampled or decomposed, and the base spectrum it checks is
    # the thin one the sweep's rows are built from.  Each decomposes one
    # real sample: 400 p nodes by 28 q nodes, and the probe's 600 p nodes
    # up to the light front by 42 q nodes.
    decompose = atom_photon.schmidt_decompose
    taken = []

    def recording(A, opts=DecompositionOptions(), modes=True):
        taken.append((A.entries.shape, A.entries.dtype, modes))
        return decompose(A, opts, modes)

    def sampled(*args, **kwargs):
        raise AssertionError("the coordinate probe samples no n x n matrix")

    monkeypatch.setattr(atom_photon, "schmidt_decompose", recording)
    monkeypatch.setattr(atom_photon, "coord_matrix", sampled)
    for tau in (5.0, 10.0):
        params = AtomPhotonParams(100.0, 0.03, tau)
        taken.clear()
        base = coord_spectrum(params)
        probe = coord_capture_drift(params, coord_grid(params, atom_photon.DEFAULT_N))
        assert taken == [((400, 28), np.float64, False), ((600, 42), np.float64, False)]
        assert base.route == probe.route == "dense"
        assert spectrum_drift(base, probe) <= 1e-15


def _sampled_spectrum(params, n):
    """The values-only decomposition of the sampled n x n amplitude on ``coord_grid``."""
    return schmidt_decompose(coord_matrix(params, coord_grid(params, n)), modes=False)


# (xi0, eta, tau, n); T = tau eta^2 xi0 runs from 0.009 to 4000.  The last
# four are strong chirps, T = 4 to 4000, that the n x n mesh resolves.
THIN_CASES = [
    (100.0, 0.03, 10.0, 400),
    (100.0, 0.03, 10.0, 800),
    (100.0, 0.03, 0.1, 400),
    (100.0, 0.3, 10.0, 400),
    (100.0, 0.5, 10.0, 200),
    (100.0, 0.5, 10.0, 400),
    (1000.0, 0.3, 9.0, 400),
    (1000.0, 0.5, 9.0, 400),
    (10.0, 2.0, 0.1, 400),
    (100.0, 2.0, 10.0, 400),
    (100.0, 1.0, 10.0, 400),
    (100.0, 2.0, 10.0, 201),
]


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
@pytest.mark.parametrize("xi0,eta,tau,n", THIN_CASES)
def test_thin_factor_matches_the_sampled_route(xi0, eta, tau, n):
    params = AtomPhotonParams(xi0, eta, tau)
    thin = coord_spectrum(params, n)
    ref = _sampled_spectrum(params, n)
    assert thin.route == "dense" and thin.modes_p is None
    assert thin.rank == ref.rank
    np.testing.assert_allclose(thin.lambdas, ref.lambdas, rtol=0, atol=1e-14)


@pytest.mark.parametrize("eta", [0.03, 0.3, 0.5])
@pytest.mark.parametrize("margin", [COORD_SIGMA_MARGIN, COORD_PROBE_FACTOR * COORD_SIGMA_MARGIN])
def test_thin_factor_takes_the_fewest_q_nodes_its_spacing_bound_allows(eta, margin):
    params = AtomPhotonParams(100.0, eta, 10.0)
    grid = coord_grid(params, 400)
    thin = coord_thin_grid(params, grid, margin)
    assert (thin.p_min, thin.p_max, thin.n) == (grid.p_min, grid.p_max, grid.n)
    width = grid.p_max - grid.p_min + 2.0 * margin / eta
    assert thin.q_min == -grid.p_max - margin / eta
    assert thin.q_max - thin.q_min == pytest.approx(width)
    h = THIN_Q_SPACING / eta
    assert width / (thin.nq - 1) <= h < width / (thin.nq - 2)
    # The probe's grown window keeps its nodes up to the light front only.
    big = grown_grid(grid, 2.0 * COORD_PROBE_FACTOR - 1.0)
    probe = coord_thin_grid(params, big, margin)
    np.testing.assert_allclose(probe.p_nodes(), big.p_nodes()[: probe.n], rtol=0, atol=1e-13)
    assert probe.p_max <= 10.0 < big.p_nodes()[probe.n]


def test_thin_factor_with_a_wider_q_spacing_is_measurably_worse(monkeypatch):
    # At eta h_q = 0.7 the trapezoid rule's aliasing error shows.
    params = AtomPhotonParams(100.0, 0.5, 10.0)
    ref = _sampled_spectrum(params, 400)
    monkeypatch.setattr(atom_photon, "THIN_Q_SPACING", 0.7)
    assert coord_thin_grid(params, coord_grid(params, 400), COORD_SIGMA_MARGIN).nq == 47
    coarse = coord_spectrum(params, 400)
    assert (coarse.rank, ref.rank) == (24, 25)
    assert np.max(np.abs(coarse.lambdas - ref.lambdas[:24])) > 1e-10


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
def test_thin_factor_refuses_a_rank_that_fills_its_q_nodes():
    opts = DecompositionOptions(truncation_threshold=0.0)
    with pytest.raises(ConvergenceError, match="kept all 28 of its q-node weights"):
        coord_spectrum(FIG_PARAMS, 400, opts)
    with pytest.raises(ConvergenceError, match="the thin factor at tau=10 kept all 28"):
        coord_decomposition(FIG_PARAMS, coord_grid(FIG_PARAMS, 400), opts)
    with pytest.raises(ConvergenceError, match="the momentum probe's thin pi mesh kept all 49"):
        momentum_probe(FIG_PARAMS, momentum_grid(400), opts)


def test_chirped_grid_is_exact_in_q_where_the_square_mesh_is_not():
    # At n = 81, the smallest mesh with eta h_p <= 1 at eta = 2, the square
    # q mesh is too coarse for this chirp (T = 4): its weights are 7.5e-6
    # off, with rank 47 against 60.  The real T = 0 factor on the same 81 p
    # nodes is exact in q: it agrees with the amplitude sampled on those p
    # nodes and 648 q nodes over the same window, which resolve the chirp.
    # n = 64, where the square mesh was 8.6e-5 off, is refused.
    params = AtomPhotonParams(10.0, 2.0, 0.1)
    with pytest.raises(ConvergenceError, match="under-resolved at n = 64"):
        coord_spectrum(params, 64)
    thin = coord_spectrum(params, 81)
    grid = coord_grid(params, 81)
    fine = make_grid(grid.p_min, grid.p_max, grid.q_min, grid.q_max, 81, 648)
    with pytest.warns(UserWarning, match="only qualitative"):
        resolved = schmidt_decompose(coord_matrix(params, fine), modes=False)
    assert resolved.rank == thin.rank == 60
    np.testing.assert_allclose(resolved.lambdas, thin.lambdas, rtol=0, atol=1e-15)
    with pytest.warns(UserWarning, match="only qualitative"):
        sampled = _sampled_spectrum(params, 81)
    assert sampled.rank == 47
    assert np.max(np.abs(sampled.lambdas - thin.lambdas[:47])) > 5e-6


def _read_modes(path):
    """The complex modes of a modes_*.csv file, one per row."""
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    return (table[:, 1::2] + 1j * table[:, 2::2]).T


# Written modes lie within MODE_ATOL / gap of a dense SVD, gap the distance
# of sigma_k / sigma_1 to its nearest neighbour (or to zero).  Measured:
# error x gap at most 1.7e-15 over these cases (coordinate eta 0.5, tau 10).
MODE_ATOL = 1e-13


@pytest.mark.parametrize(
    "argv, params, n",
    [
        (["atom-photon-coord", "--fig1"], FIG_PARAMS, 800),
        (["atom-photon-momentum", "--fig3"], FIG_PARAMS, 400),
        (
            ["atom-photon-momentum", "--xi0", "100", "--eta", "0.3", "--n", "400"],
            AtomPhotonParams(100.0, 0.3, 1.0),
            400,
        ),
        (
            ["atom-photon-coord", "--xi0", "100", "--eta", "0.5", "--tau", "10", "--n", "400"],
            AtomPhotonParams(100.0, 0.5, 10.0),
            400,
        ),
        (
            ["atom-photon-coord", "--xi0", "100", "--eta", "0.3", "--tau", "10", "--n", "400"],
            AtomPhotonParams(100.0, 0.3, 10.0),
            400,
        ),
        (
            ["atom-photon-coord", "--xi0", "100", "--eta", "0.5", "--tau", "1", "--n", "400"],
            AtomPhotonParams(100.0, 0.5, 1.0),
            400,
        ),
    ],
    ids=[
        "fig1", "fig3", "momentum-eta0.3-n400", "coord-eta0.5-n400", "coord-eta0.3-n400",
        "coord-T25-n400",
    ],
)
@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
def test_written_modes_match_a_dense_svd(tmp_path, argv, params, n):
    # The weights and the p-modes come from a thin sample, the q-modes from
    # the exp tables of the n x n amplitude (fig1) or, where those refuse
    # (the coordinate eta 0.3 and 0.5 cases, T = 90, 250 and 25), from its
    # sample; every written mode and weight is checked against the SVD of
    # the n x n sample, each mode up to a phase that its q-mode takes back,
    # so that each rank-1 term matches.
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    coord = argv[0] == "atom-photon-coord"
    A = coord_matrix(params, coord_grid(params, n)) if coord else momentum_matrix(params, momentum_grid(n))
    U, s, Vh = np.linalg.svd(A.entries)
    lam = s**2 / np.sum(s**2)
    lam = lam[lam >= 1e-14 * lam[0]]
    lam /= lam.sum()
    got = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)[:, 1]
    assert got.size == lam.size
    np.testing.assert_allclose(got, lam, rtol=0, atol=1e-14)
    names = ("modes_p.csv", "modes_q.csv") if coord else ("modes_nu.csv", "modes_pi.csv")
    u, v = (_read_modes(tmp_path / name) for name in names)
    sig = np.sqrt(lam / lam[0])
    for k in range(u.shape[0]):
        gap = min([sig[k], *np.abs(sig[k] - np.delete(sig, k))])
        phase = np.vdot(U[:, k], u[k])
        phase /= abs(phase)
        assert np.max(np.abs(u[k] - phase * U[:, k])) <= MODE_ATOL / gap
        assert np.max(np.abs(v[k] - np.conj(phase) * Vh[k])) <= MODE_ATOL / gap


def _coord_samples(monkeypatch):
    """A list that records each coord_matrix call that coord_decomposition makes."""
    calls = []
    sample = atom_photon.coord_matrix

    def recording(params, grid):
        calls.append(grid)
        return sample(params, grid)

    monkeypatch.setattr(atom_photon, "coord_matrix", recording)
    return calls


# (xi0, eta, tau, n), and whether the exp tables accept the automatic
# window: they do at eta <= 0.2 or so, and refuse at eta 0.5, where their
# error bound (2.0e-13 at tau 10, 6.4e-14 at tau 1) exceeds FACTORED_ERR_MAX.
CONTRACTION_CASES = [
    ((100.0, 0.03, 10.0, 800), True),
    ((100.0, 0.1, 10.0, 400), True),
    ((10.0, 0.2, 10.0, 400), True),
    ((100.0, 0.5, 10.0, 400), False),
    ((100.0, 0.5, 1.0, 400), False),
]


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
@pytest.mark.parametrize(
    "case, contracted", CONTRACTION_CASES, ids=["fig1", "eta0.1", "eta0.2", "eta0.5", "T25"]
)
def test_contracted_q_modes_match_the_product_with_the_sample(monkeypatch, case, contracted):
    # On the automatic window the q-modes come from the exp tables with no
    # n x n sample; where the tables refuse, from the one sample.  Either
    # way every kept q-mode lies within MODE_ATOL / gap of
    # conj(u_k) @ A / ||conj(u_k) @ A|| for the sampled A (measured: error
    # x gap at most 5.4e-17 at fig1).
    params, n = AtomPhotonParams(*case[:3]), case[3]
    grid = coord_grid(params, n)
    samples = _coord_samples(monkeypatch)
    res = coord_decomposition(params, grid)
    assert samples == ([] if contracted else [grid])
    v = res.modes_p.conj() @ coord_matrix(params, grid).entries
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    sig = np.sqrt(res.lambdas / res.lambdas[0])
    for k in range(res.rank):
        gap = min([sig[k], *np.abs(sig[k] - np.delete(sig, k))])
        assert np.max(np.abs(res.modes_q[k] - v[k])) <= MODE_ATOL / gap


def test_coord_base_at_fig1_allocates_no_n_x_n_array(monkeypatch):
    # One 800 x 800 complex array is 10.24 MB; the fig1 base peaks at about
    # 1.6 MB, its largest arrays the exp tables and the real 800 x 28 sample.
    grid = coord_grid(FIG_PARAMS, 800)
    samples = _coord_samples(monkeypatch)
    coord_decomposition(FIG_PARAMS, grid)  # first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        coord_decomposition(FIG_PARAMS, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples == []
    assert peak <= 800 * 800 * 16 / 4


def _every_coord_sampler_refuses(monkeypatch, params, n, match):
    """Each coordinate sampler refuses ``coord_grid(params, n)`` with ``match``, sampling nothing."""
    grid = coord_grid(params, n)
    sampled = []
    with monkeypatch.context() as m:
        for name in ("sample_amplitude", "_gaussian_tables"):
            m.setattr(atom_photon, name, lambda *args, name=name: sampled.append(name))
        for sampler in (
            lambda: coord_matrix(params, grid),
            lambda: coord_decomposition(params, grid),
            lambda: coord_spectrum(params, n),
            lambda: coord_capture_drift(params, grid),
        ):
            with pytest.raises(ConvergenceError, match=match):
                sampler()
    assert sampled == []


@pytest.mark.parametrize("eta", [0.03, 0.25, 0.5, 2.0, 10.0])
def test_coord_grid_refuses_a_p_mesh_coarser_than_the_gaussian(monkeypatch, eta):
    # eta h_p > 1, h_p = 40 / (n - 1), is refused before anything is
    # sampled, naming the smallest adequate n, ceil(40 eta) + 1, where
    # eta h_p = 1 exactly for all but eta 0.03; there the T = 0 factor has
    # at most 2 (n - 1) + 26 q nodes.
    params = AtomPhotonParams(100.0, eta, 10.0)
    need = math.ceil(COORD_DECAY_SPAN * eta) + 1
    assert (eta * COORD_DECAY_SPAN / (need - 1) == 1.0) == (eta != 0.03)
    match = f"under-resolved at n = {need - 1}: .* use n >= {need}$"
    _every_coord_sampler_refuses(monkeypatch, params, need - 1, match)
    for n in (need, need + 1, 2 * need):
        grid = coord_grid(params, n)
        assert eta * grid.dp <= 1.0
        assert coord_thin_grid(params, grid, COORD_SIGMA_MARGIN).nq <= 2 * (n - 1) + 26


def test_window_mesh_is_checked_on_its_own_p_span(monkeypatch):
    # At eta 2 the automatic window needs n >= 81, but 16 nodes over a
    # --window p span of 5 have eta h_p = 0.67 and are decomposed densely;
    # over a p span of 40 they are refused before anything is sampled.
    params = AtomPhotonParams(100.0, 2.0, 10.0)
    grid = make_grid(5.0, 10.0, -60.0, 40.0, 16)
    A = coord_matrix(params, grid)
    res, ref = coord_decomposition(params, grid), schmidt_decompose(A)
    for attr in ("lambdas", "modes_p", "modes_q"):
        assert np.array_equal(getattr(res, attr), getattr(ref, attr))
    samples = _coord_samples(monkeypatch)
    with pytest.raises(ConvergenceError, match="under-resolved at n = 16: .* use n >= 81$"):
        coord_decomposition(params, make_grid(-30.0, 10.0, -60.0, 40.0, 16))
    # eta (p_max - p_min) overflows: refused, not an OverflowError.
    with pytest.raises(ConvergenceError, match="use n >= inf$"):
        coord_decomposition(AtomPhotonParams(100.0, 1e10, 10.0), make_grid(-1e300, 1e300, -1.0, 1.0, 16))
    assert samples == []


def test_capture_probe_checks_the_mesh_it_is_given(monkeypatch):
    # The probe grows its grid before it samples; unchecked, this 16-node
    # mesh at eta 1e5 would size a 24 x 16,533,371 T = 0 factor (2.96 GiB).
    samples = []
    monkeypatch.setattr(atom_photon, "sample_amplitude", lambda *args: samples.append(args))
    with pytest.raises(ConvergenceError, match="under-resolved at n = 16: .* use n >= 4000001$"):
        coord_capture_drift(AtomPhotonParams(100.0, 1e5, 10.0), make_grid(-30.0, 10.0, -1.0, 1.0, 16))
    assert samples == []


def _momentum_spacing(eta):
    """The largest pi spacing the rule of ``momentum_thin_grid`` allows."""
    d, g = 0.5 / eta, math.pi / THIN_Q_SPACING
    return THIN_Q_SPACING if d >= g else 2.0 * math.pi * d / (d * d + g * g)


@pytest.mark.parametrize("eta", [0.03, 0.07, 0.1, 0.2, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("n", [128, 400, 800])
def test_momentum_thin_grid_takes_the_fewest_pi_nodes_its_rule_allows(eta, n):
    params = AtomPhotonParams(100.0, eta, 1.0)
    base = momentum_grid(n)
    thin = momentum_thin_grid(params, base)
    if thin is base:
        # the rule needs at least n nodes: the base mesh is kept
        assert 12.0 / (n - 1) > _momentum_spacing(eta)
        return
    assert (thin.p_min, thin.p_max, thin.q_min, thin.q_max, thin.n) == (-60.0, 60.0, -6.0, 6.0, n)
    assert thin.dq <= _momentum_spacing(eta) < 12.0 / (thin.nq - 2)
    if eta == 0.03:
        assert thin.nq == 25  # --fig3


@pytest.mark.parametrize("eta, h, worse", [(0.3, 0.5, 1e-9), (0.1, 0.6, 1e-13), (0.9, 0.13, 1e-14)])
def test_momentum_thin_grid_with_a_wider_pi_spacing_is_measurably_worse(eta, h, worse):
    # Where the poles lie nearer than the Gaussian's saddle, the Gaussian's
    # spacing 0.5 alone is not enough: eta = 0.3 at h = 0.5 is 5.8e-9 off.
    # Spacings 1.3 and 1.5 times the rule's are 8.2e-13 and 3.6e-14 off at
    # eta = 0.1 and 0.9 (and h = 0.09 / eta is 1.7e-13 off at eta = 0.2).
    params = AtomPhotonParams(100.0, eta, 1.0)
    base = momentum_grid(400)
    s = np.linalg.svd(momentum_matrix(params, base).entries, compute_uv=False)
    ref = s**2 / np.sum(s**2)

    def error(grid):
        w = np.linalg.svd(momentum_matrix(params, grid).entries, compute_uv=False) ** 2
        return np.max(np.abs(w / w.sum() - ref[: w.size])[: np.count_nonzero(ref >= 1e-14 * ref[0])])

    assert h > _momentum_spacing(eta)
    assert error(momentum_thin_grid(params, base)) <= 1e-15
    coarse = make_grid(-60.0, 60.0, -6.0, 6.0, 400, math.ceil(12.0 / h) + 1)
    assert error(coarse) > worse


@pytest.mark.parametrize(
    "decompose, grid, rank",
    [
        (coord_decomposition, coord_grid(AtomPhotonParams(100.0, 0.5, 10.0), 200), 25),
        (momentum_decomposition, momentum_grid(400), 21),
    ],
    ids=["coord-eta0.5-n200", "momentum-eta0.5-n400"],
)
def test_thin_bases_keep_their_written_q_modes_orthonormal(decompose, grid, rank):
    # v_k = conj(u_k) @ A / ||conj(u_k) @ A|| carries u_k's error times
    # sigma_1 / sigma_k: over all kept q-modes 8.4e-7 (coordinate) and
    # 1.3e-6 (momentum) off orthonormal, but the four the CLI writes are
    # within 1.1e-14.
    params = AtomPhotonParams(100.0, 0.5, 10.0)
    res = decompose(params, grid)
    assert res.rank == rank
    v = res.modes_q[:4]
    assert np.max(np.abs(v @ v.conj().T - np.eye(4))) <= 1e-12


def test_thin_bases_keep_the_dense_route_off_their_automatic_window():
    # A --window mesh, or one that the rule fills with n or more q nodes,
    # decomposes the n x n sample itself.
    cases = [
        (coord_decomposition, coord_matrix, FIG_PARAMS, make_grid(-30.0, 10.0, -200.0, 60.0, 64)),
        (momentum_decomposition, momentum_matrix, FIG_PARAMS, make_grid(-60.0, 60.0, -6.0, 6.5, 64)),
        (momentum_decomposition, momentum_matrix, FIG_PARAMS, momentum_grid(24)),
    ]
    for decompose, sample, params, grid in cases:
        res, ref = decompose(params, grid), schmidt_decompose(sample(params, grid))
        for attr in ("lambdas", "modes_p", "modes_q"):
            assert np.array_equal(getattr(res, attr), getattr(ref, attr))
    assert momentum_thin_grid(FIG_PARAMS, momentum_grid(24)).nq == 24


def test_coord_spectrum_does_not_depend_on_xi0():
    # xi0 enters only the validity window and the chirp, a local unitary.
    spectra = [coord_spectrum(AtomPhotonParams(xi0, 0.03, 10.0), 400) for xi0 in (10.0, 100.0, 1000.0)]
    for other in spectra[1:]:
        assert np.array_equal(other.lambdas, spectra[0].lambdas)


def test_full_dynamics_capture_failure_raises(monkeypatch, tmp_path):
    # A decay span of 10 cuts exp(-10) of the weight.  The probe's nodes
    # contain the base nodes, so it sees that cut at every n, and the sweep
    # raises.
    monkeypatch.setattr(atom_photon, "COORD_DECAY_SPAN", 10.0)
    params = AtomPhotonParams(xi0=100.0, eta=0.03, tau=10.0)
    for n in (64, 65, 256):
        probe = coord_capture_drift(params, coord_grid(params, n))
        assert spectrum_drift(coord_spectrum(params, n), probe) >= CAPTURE_TOL
    argv = ["atom-photon-dynamics", "--xi0", "100", "--eta", "0.03", "--tau-list", "5,10"]
    args = cli.build_parser().parse_args([*argv, "--out", str(tmp_path / "out")])
    with pytest.raises(ConvergenceError, match="window capture check failed at tau=10"):
        cli.run(args)


@pytest.mark.parametrize("n", [8, 9, 64])
@pytest.mark.parametrize("eta", [0.03, 0.3, 2.0])
def test_automatic_window_drifts_by_rounding_at_any_mesh(monkeypatch, eta, n):
    # The probe sees window error only, and the automatic window holds all
    # but about 1e-17 of the weight, however coarse the mesh.  A mesh with
    # eta h_p > 1 is refused, so the drift is then checked on the two
    # coarsest meshes accepted, of both parities.
    params = AtomPhotonParams(xi0=100.0, eta=eta, tau=10.0)
    need = math.ceil(COORD_DECAY_SPAN * eta) + 1
    meshes = [n]
    if n < need:
        match = f"under-resolved at n = {n}: .* use n >= {need}$"
        _every_coord_sampler_refuses(monkeypatch, params, n, match)
        meshes = [need, need + 1]
    for n in meshes:
        probe = coord_capture_drift(params, coord_grid(params, n))
        assert spectrum_drift(coord_spectrum(params, n), probe) <= 1e-15


@pytest.mark.filterwarnings("ignore:coordinate amplitude is a long-time approximation")
def test_full_dynamics_with_a_shared_spectrum_matches_the_per_tau_route(monkeypatch):
    # Free evolution is local, so one spectrum serves every tau.
    spectrum = coord_spectrum(FIG_PARAMS, 96)
    per_tau = {
        tau: full_dynamics(tau, _sampled_spectrum(AtomPhotonParams(100.0, 0.03, tau), 96))
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


# tau = 0 leaves the photon weights 0; exp(-800) underflows to 0.
ROW_TAUS = (0.0, 1e-300, 0.1, math.log(2.0), 10.0, 745.2, 800.0)


@pytest.mark.parametrize("eta", [0.03, 1e-8], ids=["fig1", "rank-1"])
def test_full_dynamics_rows_equal_the_scalar_calls_bit_for_bit(eta):
    spectrum = coord_spectrum(AtomPhotonParams(100.0, eta, 10.0), 400)
    assert (spectrum.rank == 1) == (eta == 1e-8)
    k, s, lam = full_dynamics(np.array(ROW_TAUS), spectrum)
    assert k.shape == s.shape == (len(ROW_TAUS),)
    assert lam.shape == (len(ROW_TAUS), spectrum.rank + 1)
    for i, tau in enumerate(ROW_TAUS):
        k1, s1, lam1 = full_dynamics(tau, spectrum)
        assert type(k1) is float and type(s1) is float
        assert k1 == k[i] and s1 == s[i]
        assert (lam1 == lam[i]).all()
        # The one-spectrum route: a 1-D composite and its measures.
        one = np.concatenate(([math.exp(-tau)], -math.expm1(-tau) * spectrum.lambdas))
        one = one / one.sum()
        assert (one == lam[i]).all()
        assert (schmidt_number(one), entanglement_entropy(one)) == (k1, s1)
    assert lam[0].tolist() == [1.0] + [0.0] * spectrum.rank
    assert (k[0], s[0], math.copysign(1.0, s[0])) == (1.0, 0.0, 1.0)
    assert lam[-1, 0] == 0.0 and lam[-1, 1:].sum() == pytest.approx(1.0, abs=1e-15)
    assert full_dynamics(list(ROW_TAUS), spectrum)[0].tolist() == k.tolist()
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError) as scalar:
            full_dynamics(bad, spectrum)
        for at in (0, 3, len(ROW_TAUS)):
            taus = [*ROW_TAUS[:at], bad, *ROW_TAUS[at:]]
            with pytest.raises(ValueError) as rows:
                full_dynamics(taus, spectrum)
            assert str(rows.value) == str(scalar.value)
    with pytest.raises(ValueError, match=r"a number or a 1-D sequence, got shape \(2, 1\)$"):
        full_dynamics([[0.1], [10.0]], spectrum)


def test_coord_matrix_normalized():
    A = coord_matrix(FIG_PARAMS, coord_grid(FIG_PARAMS, n=64))
    assert A.normalized
    assert np.sum(np.abs(A.entries) ** 2) == pytest.approx(1.0, abs=1e-12)
