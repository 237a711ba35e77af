"""End-to-end acceptance gate.

Each test checks one headline criterion of the package at its stated
tolerance and prints a single PASS/FAIL line so the run log reads as a
checklist.  Everything here goes through public entry points only.
"""

import math
import time

import numpy as np

from oracles import schmidt_weights
from schmidt_lab.atom_photon import (
    AtomPhotonParams,
    asymptotics,
    coord_decomposition,
    coord_grid,
    coord_spectrum,
    full_dynamics,
    laguerre_mode,
    momentum_decomposition,
    momentum_grid,
    momentum_probe,
    zero_order_dynamics,
)
from schmidt_lab.cli import main
from schmidt_lab.polarization import (
    coherence,
    mixture_decomposition,
    polarization_density_matrix,
)
from schmidt_lab.schmidt import (
    DecompositionOptions,
    mode_overlap,
    reconstruct,
    schmidt_decompose,
    spectrum_drift,
)
from schmidt_lab.spdc import spdc_grid, spdc_matrix, spdc_params
from schmidt_lab.tensor_core import AmplitudeMatrix, make_grid, normalize

# Regression bound for the composite-vs-two-level difference over the
# standard time sweep; the measured value at the reference resolution is
# 1.3e-3, so this catches any structural regression while allowing noise.
PINNED_K_BOUND = 2.0e-3


def _criterion(num: int, desc: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {status} #{num}: {desc}")
    assert not failures, f"criterion {num} ({desc}): " + "; ".join(failures)


def _spdc_measures(L: float, n: int = 512):
    params = spdc_params(L=L, sigma=10.0)
    A = spdc_matrix(params, spdc_grid(params, n=n))
    res = schmidt_decompose(A)
    return coherence(A).real, res


def test_criterion_1_short_crystal_biphoton():
    failures = []
    t0 = time.perf_counter()
    f, res = _spdc_measures(0.5)
    elapsed = time.perf_counter() - t0
    if not abs(f - 0.97) <= 0.02:
        failures.append(f"F={f:.4f} outside 0.97+-0.02")
    if not abs(res.schmidt_number - 5.6) <= 0.3:
        failures.append(f"K={res.schmidt_number:.4f} outside 5.6+-0.3")
    if not abs(res.entropy - 3.16) <= 0.15:
        failures.append(f"S={res.entropy:.4f} outside 3.16+-0.15")
    if not elapsed < 60.0:
        failures.append(f"took {elapsed:.1f} s, budget 60 s")
    _criterion(1, "short-crystal biphoton F, K, S at n=512", failures)


def test_criterion_2_long_crystal_biphoton():
    failures = []
    f, res = _spdc_measures(4.0)
    if not abs(f - 0.37) <= 0.02:
        failures.append(f"F={f:.4f} outside 0.37+-0.02")
    if not abs(res.schmidt_number - 2.2) <= 0.2:
        failures.append(f"K={res.schmidt_number:.4f} outside 2.2+-0.2")
    if not abs(res.entropy - 1.8) <= 0.1:
        failures.append(f"S={res.entropy:.4f} outside 1.8+-0.1")
    _criterion(2, "long-crystal biphoton F, K, S at n=512", failures)


def test_criterion_3_coordinate_modes_match_closed_form():
    failures = []
    params = AtomPhotonParams(xi0=100.0, eta=0.03, tau=10.0)
    grid = coord_grid(params, 800)
    res = coord_decomposition(params, grid)
    p = grid.p_nodes()
    for k in range(3):
        ref = laguerre_mode(k, params.tau, p)
        ov = abs(mode_overlap(ref, res.modes_p[k]))
        if not ov >= 0.999:
            failures.append(f"mode {k + 1} overlap {ov:.6f} < 0.999")
    _criterion(3, "dominant coordinate modes match closed-form profiles", failures)


def test_criterion_4_momentum_measures_near_analytic_limits():
    failures = []
    params = AtomPhotonParams(xi0=100.0, eta=0.03, tau=10.0)
    grid, opts = momentum_grid(800), DecompositionOptions()
    res = momentum_decomposition(params, grid, opts)
    k_inf, s_inf = asymptotics(params.eta)
    k_excess = res.schmidt_number - 1.0
    if not abs(k_excess - (k_inf - 1.0)) <= 0.1 * (k_inf - 1.0):
        failures.append(f"K-1={k_excess:.3e} not within 10% of {k_inf - 1.0:.3e}")
    if not abs(res.entropy - s_inf) <= 0.2 * s_inf:
        failures.append(f"S={res.entropy:.4e} not within 20% of {s_inf:.4e}")
    drift = spectrum_drift(res, momentum_probe(params, grid, opts))
    if not drift < 1e-6:
        failures.append(f"window-doubling spectrum drift {drift:.2e} >= 1e-6")
    _criterion(4, "momentum measures approach the analytic limits", failures)


def test_criterion_5_two_level_weights_balance_point_and_limits():
    failures = []
    k0, s0 = zero_order_dynamics(math.log(2.0))
    if not abs(k0 - 2.0) <= 1e-12:
        failures.append(f"K0(ln 2)={k0!r} != 2")
    if not abs(s0 - 1.0) <= 1e-12:
        failures.append(f"S0(ln 2)={s0!r} != 1")
    k0, s0 = zero_order_dynamics(1e-4)
    if not abs(k0 - 1.0) <= 5e-4:
        failures.append(f"K0(1e-4)-1={k0 - 1.0:.2e} > 5e-4")
    if not s0 <= 5e-4:
        failures.append(f"S0(1e-4)={s0:.2e} > 5e-4")
    k0, s0 = zero_order_dynamics(20.0)
    if not abs(k0 - 1.0) <= 1e-6:
        failures.append(f"K0(20)-1={k0 - 1.0:.2e} > 1e-6")
    if not s0 <= 1e-6:
        failures.append(f"S0(20)={s0:.2e} > 1e-6")
    _criterion(5, "two-level weights: balance point exact, limits approached", failures)


def test_criterion_6_composite_spectrum_reduces_to_two_level():
    failures = []
    for tau in (0.5, math.log(2.0), 2.0, 10.0):
        k0, _ = zero_order_dynamics(tau)
        _, s0 = zero_order_dynamics(tau, squared_entropy_weights=False)
        k, s, _ = full_dynamics(tau, coord_spectrum(AtomPhotonParams(100.0, 1e-8, tau), 200))
        if not abs(k - k0) <= 1e-6:
            failures.append(f"tau={tau:g}: |K-K0|={abs(k - k0):.2e} > 1e-6")
        if not abs(s - s0) <= 1e-6:
            failures.append(f"tau={tau:g}: |S-S0|={abs(s - s0):.2e} > 1e-6")
    # at the balance point both entropy conventions agree exactly
    s_sq = zero_order_dynamics(math.log(2.0))[1]
    s_lin = zero_order_dynamics(math.log(2.0), squared_entropy_weights=False)[1]
    if not abs(s_sq - s_lin) <= 1e-12:
        failures.append(f"entropy conventions differ at ln 2: {s_sq!r} vs {s_lin!r}")
    # at a realistic deflection the difference stays pinned below the bound
    worst = 0.0
    for tau in map(float, np.linspace(0.1, 10.0, 34)):
        k0, _ = zero_order_dynamics(tau)
        k, _, _ = full_dynamics(tau, coord_spectrum(AtomPhotonParams(100.0, 0.03, tau), 400))
        if k < 1.0 - 1e-12:
            failures.append(f"tau={tau:g}: K={k!r} < 1")
        worst = max(worst, abs(k - k0))
    if not worst <= PINNED_K_BOUND:
        failures.append(f"max|K-K0|={worst:.3e} > {PINNED_K_BOUND:.1e}")
    _criterion(6, "composite spectrum reduces to the two-level weights", failures)


def test_criterion_7_spectra_match_independent_eigensolver():
    failures = []
    rng = np.random.default_rng(2024)
    worst_w, worst_r = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = make_grid(0.0, 1.0, 0.0, 1.0, n)
        A = normalize(AmplitudeMatrix(entries=raw.copy(), grid=g, normalized=False))
        res = schmidt_decompose(A)
        ref = schmidt_weights(raw)[: res.rank]
        worst_w = max(worst_w, float(np.max(np.abs(res.lambdas - ref))))
        recon = reconstruct(res, g)
        worst_r = max(worst_r, float(np.max(np.abs(recon.entries - A.entries))))
        if res.reconstruction_error > 1e-10:
            failures.append(f"reported residual {res.reconstruction_error:.2e}")
            break
    if not worst_w <= 1e-8:
        failures.append(f"worst weight deviation {worst_w:.2e} > 1e-8")
    if not worst_r <= 1e-10:
        failures.append(f"worst reconstruction residual {worst_r:.2e} > 1e-10")
    _criterion(7, "spectra match a hand-written eigensolver; residual tiny", failures)


def test_criterion_8_polarization_identities():
    failures = []
    for f in (0.0, 0.37, 0.5, 0.97, 1.0):
        rho = polarization_density_matrix(f).rho
        purity = float(np.real(np.trace(rho @ rho)))
        if not abs(purity - (1.0 + f * f) / 2.0) <= 1e-12:
            failures.append(f"purity({f}) off by {abs(purity - (1 + f * f) / 2):.2e}")
        (wp, vp), (wm, vm) = mixture_decomposition(f)
        back = wp * np.outer(vp, vp.conj()) + wm * np.outer(vm, vm.conj())
        if not np.max(np.abs(back - rho)) <= 1e-14:
            failures.append(f"mixture reassembly at F={f} off")
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = make_grid(-1.0, 1.0, -1.0, 1.0, n)
        A = normalize(AmplitudeMatrix(entries=raw, grid=g, normalized=False))
        f_val = coherence(A)
        if abs(f_val) > 1.0 + 1e-12:
            failures.append(f"|F|={abs(f_val)!r} exceeds 1")
            break
    _criterion(8, "polarization purity, mixture reassembly, coherence bound", failures)


def test_criterion_9_length_sweep_scale_invariance(tmp_path):
    failures = []
    base = tmp_path / "base"
    code = main(
        ["spdc-length-sweep", "--L-list", "0.5,1.0", "--sigma", "10", "--n", "128",
         "--out", str(base)]
    )
    if code != 0:
        failures.append(f"base sweep exited {code}")

    def rows(out_dir):
        lines = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        return np.array([[float(c) for c in ln.split(",")] for ln in lines])

    if not failures:
        ref = rows(base)
        for c in (0.5, 2.0, 10.0):
            out = tmp_path / f"scaled_{c}"
            ls = f"{0.5 * c!r},{1.0 * c!r}"
            code = main(
                ["spdc-length-sweep", "--L-list", ls, "--sigma", repr(10.0 / c),
                 "--n", "128", "--out", str(out)]
            )
            if code != 0:
                failures.append(f"scaled sweep c={c} exited {code}")
                continue
            got = rows(out)
            # the L labels differ by construction; the physics columns
            # (X_o, X_e, F, K, S) must agree
            if not np.allclose(got[:, 1:], ref[:, 1:], rtol=1e-12, atol=1e-12):
                worst = float(np.max(np.abs(got[:, 1:] - ref[:, 1:])))
                failures.append(f"c={c}: columns differ by {worst:.2e}")
    _criterion(9, "length sweep depends only on the walk-off products", failures)


def test_criterion_10_repeat_cli_runs_byte_identical(tmp_path):
    failures = []
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = main(["spdc", "--fig5", "--out", str(out)])
        if code != 0:
            failures.append(f"run into {out.name} exited {code}")
    if not failures:
        for name in ("summary.json", "spectrum.csv", "modes_o.csv", "modes_e.csv"):
            if (out1 / name).read_bytes() != (out2 / name).read_bytes():
                failures.append(f"{name} differs between identical runs")
    _criterion(10, "repeat CLI runs produce byte-identical files", failures)
