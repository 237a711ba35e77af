"""Command-line front end: model presets, sweeps, and deterministic output.

Subcommands
-----------
atom-photon-coord      coordinate-representation emission amplitude
atom-photon-momentum   momentum-representation emission amplitude
atom-photon-dynamics   time sweep of the composite entanglement measures
spdc                   biphoton amplitude, coherence F and polarization state
spdc-length-sweep      F, K, S versus crystal length
decompose FILE         Schmidt-decompose a matrix read from a text file

Each subcommand is one entry of ``SUBCOMMANDS``; the parser and the runner
are both built from that table, so a subcommand accepts exactly the flags
its model reads.  Each flag has one type and help text, in ``FLAGS``: a
--config value is turned into that flag's text (a JSON list joined by
commas) and parsed by the same function, and SCHMIDT_LAB_DEFAULT_N is
parsed as --n.

Value precedence for every parameter: explicit flag > figure preset >
config file (--config, flat JSON keyed by flag names with underscores;
booleans, null and preset keys are rejected) > SCHMIDT_LAB_DEFAULT_N
(resolution only) > built-in default.

Exit codes: 0 success, 2 configuration error, 3 numerical-convergence
failure, 4 input-parse failure.  Data files never contain timestamps;
wall-clock duration goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .atom_photon import (
    CAPTURE_TOL,
    DEFAULT_N as ATOM_DEFAULT_N,
    AtomPhotonParams,
    asymptotics,
    coord_capture_drift,
    coord_decomposition,
    coord_grid,
    coord_spectrum,
    full_dynamics,
    laguerre_mode,
    long_time_advisory,
    momentum_decomposition,
    momentum_grid,
    momentum_probe,
    validity_check,
    zero_order_dynamics,
)
from .errors import ConvergenceError, MatrixParseError
from .output import parse_matrix_file, write_csv, write_json
from .polarization import (
    check_shared_axis,
    coherence,
    coherence_report,
    density_matrix_checks,
    polarization_density_matrix,
)
from .schmidt import GAUGES, DecompositionOptions, SchmidtResult, mode_overlap, schmidt_decompose, spectrum_drift
from .spdc import DEFAULT_D_E, DEFAULT_D_O, check_resolution, spdc_grid, spdc_matrix, spdc_params, spdc_probe
from .spdc import DEFAULT_N as SPDC_DEFAULT_N
from .tensor_core import AmplitudeMatrix, Grid, make_grid, normalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_PARSE = 4

SCHEMA_VERSION = 1
TOP_LAMBDAS = 32
MODES_EMITTED = 4
FORMATS = ("json-summary", "csv-spectrum", "csv-modes", "csv-sweep")
ENV_DEFAULT_N = "SCHMIDT_LAB_DEFAULT_N"

FIG_PRESETS = {
    "fig1": {"xi0": 100.0, "eta": 0.03, "tau": 10.0, "n": 800},
    "fig2": {
        "xi0": 100.0,
        "eta": 0.03,
        "tau_start": 0.1,
        "tau_stop": 10.0,
        "tau_steps": 34,
        "n": 400,
    },
    "fig3": {"xi0": 100.0, "eta": 0.03, "n": 400},
    "fig4": {"sigma": 10.0, "L_start": 0.25, "L_stop": 4.0, "L_steps": 16, "n": 512},
    "fig5": {"L": 0.5, "sigma": 10.0, "n": 512},
    "fig6": {"L": 4.0, "sigma": 10.0, "n": 512},
}


@dataclass(frozen=True, eq=False)
class ModelRun:
    """What one model computed, before the runner adds the shared parts.

    The runner appends n, the base mesh (``_Resolver.mesh``, if the model
    took one), trunc and, for a subcommand that writes modes, gauge to
    ``params``.  ``sections`` are the summary blocks that follow params
    (validity, asymptotics, results, grid_convergence), in the order they
    are written.  ``tables`` maps an output format to
    {file name: (header, rows)}.
    """

    params: dict
    sections: dict
    tables: dict


# --gauge is taken only by the subcommands that write modes.
SHARED_FLAGS = ("trunc", "out", "format")


@dataclass(frozen=True)
class Subcommand:
    """One CLI subcommand: its parser entry and the model it runs.

    ``flags`` are the keys of every flag it takes besides --config and the
    presets (see _flag); all but the positional ``file`` are also config
    keys.  ``figs`` name FIG_PRESETS entries; ``default_n`` is the --n
    default.  ``model(req)`` reads its parameters through the resolved
    request ``req`` and returns a ModelRun.
    """

    help: str
    model: Callable
    flags: tuple
    figs: tuple = ()
    default_n: int | None = None


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _parse_window(text: str) -> tuple:
    vals = _parse_floats(text)
    if len(vals) != 4:
        raise argparse.ArgumentTypeError(
            f"window needs 4 comma-separated numbers p_min,p_max,q_min,q_max, got {text!r}"
        )
    return vals


def _parse_formats(text: str):
    toks = tuple(t.strip() for t in text.split(",") if t.strip())
    if not toks:
        raise argparse.ArgumentTypeError(
            f"empty format selection; choose from {', '.join(FORMATS)}"
        )
    bad = [t for t in toks if t not in FORMATS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown format(s) {bad}; choose from {', '.join(FORMATS)}"
        )
    return toks


def _flag(key: str) -> str:
    """Command-line flag of a parameter key, which is also its config key."""
    return "--" + key.replace("_", "-")


def _parse(key: str, text: str, source: str):
    """Parse text as the flag of ``key`` does; an error names ``source``."""
    try:
        return FLAGS.get(key, (float, None))[0](text)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"{source}: {exc}")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser; if ``command`` names a subcommand, only it gets flags.

    Every subcommand is registered either way, so a command line that
    starts with ``command`` parses as with the full parser.
    """
    ap = argparse.ArgumentParser(
        prog="schmidt-lab",
        description="Schmidt-mode analysis of two-variable amplitudes",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if command in SUBCOMMANDS and name != command:
            continue
        for key in cmd.flags:
            kind, text = FLAGS.get(key, (float, None))
            if key == "n":
                text = f"{text} (default {cmd.default_n})"
            flag = key if key == "file" else _flag(key)
            p.add_argument(flag, type=kind, help=text)
        for fig in cmd.figs:
            preset = " ".join(f"{k}={v:g}" for k, v in FIG_PRESETS[fig].items())
            p.add_argument(f"--{fig}", action="store_true", help=preset)
        p.add_argument("--config", help="flat JSON config file (flags win)")
    return ap


def _read_config(path: Path, flags: tuple) -> dict:
    """Config values parsed as the text of their flags.

    A JSON list stands for a comma-separated value; booleans, null and
    keys other than the named ``flags`` are rejected.
    """
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}")
    if not isinstance(loaded, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    keys = sorted(set(flags) - {"file"})
    unknown = sorted(set(loaded) - set(keys))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown}; valid keys: {keys}")
    config = {}
    for key, value in loaded.items():
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, bool) or not isinstance(v, (int, float, str)) for v in items):
            raise ValueError(
                f"config key {key!r}: expected a number, a string or a list of them, got {value!r}"
            )
        config[key] = _parse(key, ",".join(str(v) for v in items), f"config key {key!r}")
    return config


class _Resolver:
    """One resolved run request; precedence flag > preset > config > default.

    ``n`` is None for a subcommand without --n (decompose).  A model reads
    its own parameters with ``get`` and ``require``, and its base mesh
    with ``mesh``; ``grid`` is that mesh once taken, else the --window
    mesh or None.
    """

    def __init__(self, cmd: Subcommand, args):
        self.args = args
        figs = [f for f in cmd.figs if getattr(args, f)]
        if len(figs) > 1:
            raise ValueError(f"conflicting figure presets: {', '.join(figs)}")
        self.preset = FIG_PRESETS[figs[0]] if figs else {}
        self.config = _read_config(Path(args.config), cmd.flags) if args.config else {}
        n = self.get("n")
        if n is None and cmd.default_n is not None:
            env = os.environ.get(ENV_DEFAULT_N)
            n = cmd.default_n if env is None else _parse("n", env, ENV_DEFAULT_N)
        if n is not None and n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        self.n = n
        window = self.get("window")
        self.grid = None if window is None else make_grid(*window, n)
        defaults = DecompositionOptions()
        self.opts = DecompositionOptions(
            truncation_threshold=self.get("trunc", defaults.truncation_threshold),
            gauge=self.get("gauge", defaults.gauge),
        )
        self.out_dir = Path(self.get("out", "out"))
        self.formats = self.get("format", FORMATS)

    def get(self, key, default=None):
        v = getattr(self.args, key, None)
        if v is not None:
            return v
        return self.preset.get(key, self.config.get(key, default))

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise ValueError(f"missing required parameter {_flag(key)}")
        return v

    def mesh(self, auto: Callable, *args) -> Grid:
        """The run's base mesh: --window, else ``auto(*args, n)``; recorded as params.window."""
        if self.grid is None:
            self.grid = auto(*args, self.n)
        return self.grid


def _convergence_deltas(base: SchmidtResult, big: SchmidtResult, **extra) -> dict:
    return {
        "lambda_drift": spectrum_drift(base, big),
        "dK": big.schmidt_number - base.schmidt_number,
        "dS": big.entropy - base.entropy,
        **extra,
    }


def _result_payload(result: SchmidtResult) -> dict:
    return {
        "rank": result.rank,
        "K": result.schmidt_number,
        "S": result.entropy,
        "reconstruction_error": result.reconstruction_error,
        "lambdas": [float(x) for x in result.lambdas[:TOP_LAMBDAS]],
    }


def _modes_table(coord_name: str, coords, modes):
    r = min(MODES_EMITTED, modes.shape[0])
    header = [coord_name]
    columns = [coords]
    for k in range(1, r + 1):
        header += [f"mode{k}_re", f"mode{k}_im"]
        columns += [modes[k - 1].real, modes[k - 1].imag]
    return tuple(header), np.column_stack(columns)


def _density_table(coord_name: str, coords, modes):
    r = min(MODES_EMITTED, modes.shape[0])
    header = [coord_name] + [f"mode{k}_density" for k in range(1, r + 1)]
    # hypot and float_power call libm's hypot and pow, as abs(z) ** 2 of one
    # complex scalar does; np.abs and ** may take SIMD loops whose last bits
    # differ.
    density = np.float_power(np.hypot(modes[:r].real, modes[:r].imag), 2)
    return tuple(header), np.column_stack([coords, *density])


def _mode_tables(result: SchmidtResult, modes: dict) -> dict:
    """The weight spectrum table plus a model's mode tables."""
    lam = result.lambdas
    # cumsum is a sequential accumulate: the bits of a running-sum loop.
    rows = np.column_stack([np.arange(1, lam.size + 1), lam, np.cumsum(lam)])
    spectrum = (("k", "lambda_k", "cumulative_weight"), rows)
    return {"csv-spectrum": {"spectrum.csv": spectrum}, "csv-modes": modes}


def _sweep_values(req: _Resolver, prefix: str):
    explicit = req.get(f"{prefix}_list")
    if explicit is not None:
        return list(explicit)
    start = req.require(f"{prefix}_start")
    stop = req.require(f"{prefix}_stop")
    steps = req.require(f"{prefix}_steps")
    if steps < 1:
        raise ValueError(f"--{prefix}-steps must be at least 1, got {steps}")
    if stop < start:
        raise ValueError(f"--{prefix}-stop must be >= --{prefix}-start")
    return [float(v) for v in np.linspace(start, stop, steps)]


def _spdc_constants(req: _Resolver):
    """(sigma, d_o, d_e) with the crystal's default group delays."""
    return req.require("sigma"), req.get("d_o", DEFAULT_D_O), req.get("d_e", DEFAULT_D_E)


# Model functions.  A model that takes --window gets its base mesh from
# req.mesh; its window probe is its model's library function
# (coord_capture_drift, momentum_probe, spdc_probe), called after the base
# decomposition.  The models look the sampling, decomposition, probe,
# coherence and dynamics functions up in this module's globals at call
# time, and the atom-photon bases, the coordinate spectrum and
# momentum_probe look theirs up in atom_photon's (whose one thin-mesh
# decomposition, _thin_decomposition, calls its schmidt_decompose), because
# bench/tracing.py wraps them there.  Thin samples are not wrapped, so the
# tracer counts the momentum base as its n x n sample and one
# decomposition, and an automatic-window coordinate base (one _t0_factor
# call) or dynamics run (two) as decompositions and no sample.  It tells a
# sampled probe by its grid differing from the first, and counts
# coord_capture_drift by its name.  A dynamics run calls full_dynamics
# once for its whole tau sweep, so the tracer counts one dynamics call.
# Sweep points pass modes=False.


def _coord(req: _Resolver) -> ModelRun:
    """Decompose the coordinate-space amplitude; emit spectrum, modes, overlaps."""
    params = AtomPhotonParams(req.require("xi0"), req.require("eta"), req.require("tau"))
    grid = req.mesh(coord_grid, params)
    result = coord_decomposition(params, grid, req.opts)
    big = coord_capture_drift(params, grid, req.opts)
    p_nodes = grid.p_nodes()
    overlaps = [
        (k, abs(mode_overlap(laguerre_mode(k, params.tau, p_nodes), result.modes_p[k])))
        for k in range(min(5, result.rank))
    ]
    modes = {
        "modes_p.csv": _modes_table("p", p_nodes, result.modes_p),
        "modes_q.csv": _modes_table("q", grid.q_nodes(), result.modes_q),
        "laguerre_overlaps.csv": (("k", "overlap_modulus"), overlaps),
    }
    return ModelRun(
        params={"xi0": params.xi0, "eta": params.eta, "tau": params.tau},
        sections={
            "validity": asdict(validity_check(params)),
            "results": {
                **_result_payload(result),
                "laguerre_overlaps": [{"k": k, "overlap_modulus": v} for k, v in overlaps],
            },
            "grid_convergence": _convergence_deltas(result, big),
        },
        tables=_mode_tables(result, modes),
    )


def _momentum(req: _Resolver) -> ModelRun:
    """Decompose the momentum-space amplitude; emit modes and densities."""
    # The momentum amplitude is the long-time limit, so tau plays no part.
    params = AtomPhotonParams(req.require("xi0"), req.require("eta"), tau=1.0)
    k_inf, s_inf = asymptotics(params.eta)  # refuses eta >= 1 before sampling
    grid = req.mesh(momentum_grid)
    result = momentum_decomposition(params, grid, req.opts)
    big = momentum_probe(params, grid, req.opts)
    nu = grid.p_nodes()
    pi = grid.q_nodes()
    modes = {
        "modes_nu.csv": _modes_table("nu_ph", nu, result.modes_p),
        "modes_pi.csv": _modes_table("pi_a", pi, result.modes_q),
        "densities_nu.csv": _density_table("nu_ph", nu, result.modes_p),
        "densities_pi.csv": _density_table("pi_a", pi, result.modes_q),
    }
    return ModelRun(
        params={"xi0": params.xi0, "eta": params.eta},
        sections={
            "validity": asdict(validity_check(params)),
            "asymptotics": {"K_inf": k_inf, "S_inf": s_inf},
            "results": _result_payload(result),
            "grid_convergence": _convergence_deltas(result, big),
        },
        tables=_mode_tables(result, modes),
    )


def _dynamics(req: _Resolver) -> ModelRun:
    """Sweep tau; emit per-row zero-order and composite measures.

    The S0 column uses the spectrum-consistent entropy reading (weights
    not squared) so that S - S0 vanishes when the fine structure does;
    K0 is identical under both readings.  Free evolution after the
    emission leaves the photonic Schmidt weights unchanged, so every row
    is built from one spectrum: the real T = 0 factor on the largest tau's
    window, capture-checked by ``coord_capture_drift``.  No n x n matrix
    is sampled or decomposed.  One ``full_dynamics`` call, looked up in
    this module's globals, takes K and S for every tau in one pass.
    """
    xi0, eta = req.require("xi0"), req.require("eta")
    taus = _sweep_values(req, "tau")
    # Rejects a negative or NaN tau before anything is sampled.
    zero_order = [zero_order_dynamics(tau, squared_entropy_weights=False) for tau in taus]
    positive = [t for t in taus if t > 0]
    if not positive:
        raise ValueError(f"the tau sweep needs at least one positive tau, got {taus}")
    # One advisory per sweep, for its smallest positive tau, before anything
    # is sampled; no row samples the coordinate amplitude.
    long_time_advisory(min(positive))
    params = AtomPhotonParams(xi0, eta, max(positive))
    spectrum = coord_spectrum(params, req.n, req.opts)
    drift = spectrum_drift(spectrum, coord_capture_drift(params, coord_grid(params, req.n), req.opts))
    if drift >= CAPTURE_TOL:
        # The probe's nodes contain the base nodes and both are exact in q,
        # so the drift is weight that the fixed automatic window cuts off.
        raise ConvergenceError(
            f"window capture check failed at tau={params.tau:g}: growing the automatic "
            f"window by whole mesh steps moves the weight spectrum by {drift:.3e} >= "
            f"{CAPTURE_TOL:.1e}; its span (atom_photon.COORD_DECAY_SPAN, "
            "COORD_SIGMA_MARGIN) cuts off the amplitude, and no n restores it"
        )

    header = ("tau", "K0", "S0", "K", "S", "K_minus_K0", "S_minus_S0")
    ks, ss, _ = full_dynamics(taus, spectrum)
    rows = [
        (tau, k0, s0, k, s, k - k0, s - s0)
        for tau, (k0, s0), k, s in zip(taus, zero_order, ks.tolist(), ss.tolist())
    ]
    return ModelRun(
        params={"xi0": xi0, "eta": eta, "tau_values": taus},
        sections={
            "validity": asdict(validity_check(params)),
            "results": {
                "rows": len(rows),
                "max_abs_K_minus_K0": max(abs(r[5]) for r in rows),
                "max_abs_S_minus_S0": max(abs(r[6]) for r in rows),
            },
            "grid_convergence": {"endpoint_lambda_drift": drift},
        },
        tables={"csv-sweep": {"sweep.csv": (header, rows)}},
    )


def _spdc(req: _Resolver) -> ModelRun:
    """Decompose the biphoton amplitude; emit F, rho, mixture and modes."""
    params = spdc_params(req.require("L"), *_spdc_constants(req))
    grid = req.mesh(spdc_grid, params)
    check_shared_axis(grid)
    A = spdc_matrix(params, grid)
    result = schmidt_decompose(A, req.opts)
    big, big_F = spdc_probe(params, grid, req.opts)
    report = coherence_report(A)
    rho = polarization_density_matrix(report.F)
    checks = density_matrix_checks(rho.rho)
    d_f = big_F.real - report.F.real
    modes = {
        "modes_o.csv": _modes_table("p", grid.p_nodes(), result.modes_p),
        "modes_e.csv": _modes_table("q", grid.q_nodes(), result.modes_q),
    }
    return ModelRun(
        params={**asdict(params), "X_o": params.X_o, "X_e": params.X_e},
        sections={
            "results": {
                **_result_payload(result),
                "F": complex(report.F),
                "weight_plus": report.weight_plus,
                "weight_minus": report.weight_minus,
                "purity": checks.purity,
                "rho": [[complex(v) for v in row] for row in rho.rho],
                "rho_basis": list(rho.basis),
                "messages": list(report.messages),
            },
            "grid_convergence": _convergence_deltas(result, big, dF=d_f),
        },
        tables=_mode_tables(result, modes),
    )


def _spdc_length_sweep(req: _Resolver) -> ModelRun:
    """Sweep the crystal length; emit per-row X_o, X_e, F, K, S.

    Rows depend on (L, sigma) only through the products X = d L sigma, so
    a sweep at (c L, sigma / c) reproduces the same physics columns.  X
    grows with L, so the longest crystal checks the mesh for every row.
    """
    Ls = _sweep_values(req, "L")
    sigma, d_o, d_e = _spdc_constants(req)
    points = [spdc_params(L, sigma, d_o, d_e) for L in Ls]
    grid = req.mesh(spdc_grid, points[0])
    check_shared_axis(grid)
    check_resolution(max(points, key=lambda params: params.L), grid)
    rows = []
    for params in points:
        A = spdc_matrix(params, grid)
        result = schmidt_decompose(A, req.opts, modes=False)
        F = coherence(A)
        rows.append((params.L, params.X_o, params.X_e, F.real, result.schmidt_number, result.entropy))
    return ModelRun(
        params={"L_values": Ls, "sigma": sigma, "d_o": d_o, "d_e": d_e},
        sections={"results": {"rows": len(rows), "F_first": rows[0][3], "F_last": rows[-1][3]}},
        tables={"csv-sweep": {"sweep.csv": (("L", "X_o", "X_e", "F", "K", "S"), rows)}},
    )


def _decompose(req: _Resolver) -> ModelRun:
    """Normalize and decompose a matrix read from a text file."""
    entries = parse_matrix_file(req.args.file)
    if entries.shape[0] != entries.shape[1]:
        raise MatrixParseError(
            f"matrix must be square, got {entries.shape[0]}x{entries.shape[1]}"
        )
    n = entries.shape[0]
    hi = float(max(n - 1, 1))
    try:
        A = normalize(AmplitudeMatrix(grid=Grid(0.0, hi, 0.0, hi, n), entries=entries))
    except ValueError as exc:
        raise MatrixParseError(str(exc))
    result = schmidt_decompose(A, req.opts)
    idx = np.arange(n, dtype=float)
    modes = {
        "modes_p.csv": _modes_table("row_index", idx, result.modes_p),
        "modes_q.csv": _modes_table("col_index", idx, result.modes_q),
    }
    return ModelRun(
        params={"file": req.args.file, "n": n},
        sections={"results": _result_payload(result)},
        tables=_mode_tables(result, modes),
    )


# key: (type, help).  A flag not listed takes a float and has no help
# text; key "d_o" is the flag --d-o.
FLAGS = {
    "n": (int, "nodes per axis"),
    "window": (_parse_window, "p_min,p_max,q_min,q_max overriding the automatic sampling window"),
    "trunc": (float, "relative weight truncation threshold"),
    "gauge": (str, f"mode phase convention: {', '.join(GAUGES)}"),
    "out": (str, "output directory (default: out)"),
    "format": (_parse_formats, f"comma-separated subset of: {', '.join(FORMATS)}"),
    "L": (float, "crystal length (mm)"),
    "sigma": (float, "pump bandwidth (1/ps)"),
    "d_o": (float, "ordinary-ray group delay (ps/mm)"),
    "d_e": (float, "extraordinary-ray group delay (ps/mm)"),
    "tau_steps": (int, None),
    "L_steps": (int, None),
    "tau_list": (_parse_floats, "comma-separated tau values (overrides the range)"),
    "L_list": (_parse_floats, "comma-separated lengths (overrides the range)"),
    "file": (str, "whitespace-separated matrix file"),
}

SUBCOMMANDS = {
    "atom-photon-coord": Subcommand(
        "coordinate-space emission amplitude",
        _coord,
        flags=("xi0", "eta", "tau", "n", "window", "gauge", *SHARED_FLAGS),
        figs=("fig1",),
        default_n=ATOM_DEFAULT_N,
    ),
    "atom-photon-momentum": Subcommand(
        "momentum-space emission amplitude",
        _momentum,
        flags=("xi0", "eta", "n", "window", "gauge", *SHARED_FLAGS),
        figs=("fig3",),
        default_n=ATOM_DEFAULT_N,
    ),
    "atom-photon-dynamics": Subcommand(
        "K(tau), S(tau) sweep",
        _dynamics,
        flags=(
            "xi0", "eta", "tau_start", "tau_stop", "tau_steps", "tau_list",
            "n", *SHARED_FLAGS,
        ),
        figs=("fig2",),
        default_n=ATOM_DEFAULT_N,
    ),
    "spdc": Subcommand(
        "biphoton amplitude and polarization coherence",
        _spdc,
        flags=("L", "sigma", "d_o", "d_e", "n", "window", "gauge", *SHARED_FLAGS),
        figs=("fig5", "fig6"),
        default_n=SPDC_DEFAULT_N,
    ),
    "spdc-length-sweep": Subcommand(
        "F, K, S versus crystal length",
        _spdc_length_sweep,
        flags=(
            "L_start", "L_stop", "L_steps", "L_list", "sigma", "d_o", "d_e",
            "n", "window", *SHARED_FLAGS,
        ),
        figs=("fig4",),
        default_n=SPDC_DEFAULT_N,
    ),
    "decompose": Subcommand(
        "Schmidt-decompose a matrix from a text file",
        _decompose,
        flags=("file", "gauge", *SHARED_FLAGS),
    ),
}


def run(args) -> dict:
    """Run one parsed command line: resolve, compute, emit; return the summary.

    The wall-clock duration stays out of the summary so it is reproducible.
    """
    cmd = SUBCOMMANDS[args.command]
    req = _Resolver(cmd, args)
    out = cmd.model(req)
    params = dict(out.params)
    if req.n is not None:
        params["n"] = req.n
    if req.grid is not None:
        # A CLI mesh is n x n, so its nq, which repeats n, is left out.
        params["window"] = {k: v for k, v in asdict(req.grid).items() if k != "nq"}
    params["trunc"] = req.opts.truncation_threshold
    if "gauge" in cmd.flags:
        params["gauge"] = req.opts.gauge
    payload = {"schema": SCHEMA_VERSION, "command": args.command, "params": params, **out.sections}
    req.out_dir.mkdir(parents=True, exist_ok=True)
    if "json-summary" in req.formats:
        write_json(req.out_dir / "summary.json", payload)
    for fmt, files in out.tables.items():
        if fmt in req.formats:
            for name, (header, rows) in files.items():
                write_csv(req.out_dir / name, header, rows)
    return payload


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Flags only for the subcommand invoked, the first token if it names one.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    t0 = time.perf_counter()
    try:
        run(args)
    except (ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MatrixParseError):
            return EXIT_PARSE
        return EXIT_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_CONFIG
    print(f"{args.command}: completed in {time.perf_counter() - t0:.3f} s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
