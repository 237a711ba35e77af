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
its model reads.

Value precedence for every parameter: explicit flag > figure preset >
config file (--config, flat JSON keyed by flag names with underscores) >
SCHMIDT_LAB_DEFAULT_N (resolution only) > built-in default.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .atom_photon import (
    AtomPhotonParams,
    GridPolicy,
    asymptotics,
    coord_capture_drift,
    coord_grid,
    coord_matrix,
    full_dynamics,
    laguerre_mode,
    momentum_grid,
    momentum_matrix,
    validity_check,
    zero_order_dynamics,
)
from .errors import ConvergenceError, MatrixParseError
from .output import parse_matrix_file, write_csv, write_json
from .polarization import coherence, coherence_report, density_matrix_checks, polarization_density_matrix
from .schmidt import GAUGES, DecompositionOptions, SchmidtResult, mode_overlap, schmidt_decompose, spectrum_drift
from .spdc import DEFAULT_D_E, DEFAULT_D_O, spdc_grid, spdc_matrix, spdc_params
from .tensor_core import AmplitudeMatrix, Grid, enlarged_grid, make_grid, normalize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_PARSE = 4

SCHEMA_VERSION = 1
TOP_LAMBDAS = 32
MODES_EMITTED = 4
FORMATS = ("json-summary", "csv-spectrum", "csv-modes", "csv-sweep")
ENV_DEFAULT_N = "SCHMIDT_LAB_DEFAULT_N"
ATOM_DEFAULT_N = 400
SPDC_DEFAULT_N = 512

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


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run request: mesh, decomposition, output.

    ``n`` is None for a subcommand without a mesh of its own (decompose);
    ``window`` is the --window mesh, None when the model picks its own.
    """

    out_dir: Path
    formats: tuple
    n: int | None
    window: Grid | None
    opts: DecompositionOptions
    jobs: int


@dataclass(frozen=True, eq=False)
class ModelRun:
    """What one model computed, before the runner adds the shared parts.

    The runner appends n, the sampling ``grid`` (if any), trunc and gauge
    to ``params``; ``blocks`` go between params and results.  ``tables``
    maps an output format to {file name: (header, rows)}.
    """

    params: dict
    results: dict
    tables: dict
    blocks: dict = field(default_factory=dict)
    convergence: dict | None = None
    grid: Grid | None = None


@dataclass(frozen=True)
class Subcommand:
    """One CLI subcommand: its parser entry and the model it runs.

    ``flags`` are the keys of the model's own parameters (see _flag);
    ``figs`` name FIG_PRESETS entries; ``default_n`` is None when there
    is no --n.  ``model(res, config)`` reads its parameters through
    ``res`` and returns a ModelRun.
    """

    help: str
    model: Callable
    flags: tuple = ()
    figs: tuple = ()
    default_n: int | None = None
    window: bool = False
    jobs: bool = False


def _parse_window(text: str):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"window needs 4 comma-separated numbers p_min,p_max,q_min,q_max, got {text!r}"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window values must be numbers, got {text!r}")


def _parse_formats(text: str):
    toks = tuple(t.strip() for t in text.split(",") if t.strip())
    bad = [t for t in toks if t not in FORMATS]
    if bad:
        raise argparse.ArgumentTypeError(
            f"unknown format(s) {bad}; choose from {', '.join(FORMATS)}"
        )
    return toks


def _flag(key: str) -> str:
    """Command-line flag of a parameter key, which is also its config key."""
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="schmidt-lab",
        description="Schmidt-mode analysis of two-variable amplitudes",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key in cmd.flags:
            flag = key if key == "file" else _flag(key)
            p.add_argument(flag, type=FLAG_TYPES.get(key, float), help=FLAG_HELP.get(key))
        for fig in cmd.figs:
            preset = " ".join(f"{k}={v:g}" for k, v in FIG_PRESETS[fig].items())
            p.add_argument(f"--{fig}", action="store_true", help=preset)
        if cmd.default_n is not None:
            p.add_argument("--n", type=int, help=f"nodes per axis (default {cmd.default_n})")
        if cmd.window:
            p.add_argument(
                "--window",
                type=_parse_window,
                metavar="P_MIN,P_MAX,Q_MIN,Q_MAX",
                help="override the automatic sampling window",
            )
        p.add_argument("--trunc", type=float, help="relative weight truncation threshold")
        p.add_argument("--gauge", choices=list(GAUGES), help="mode phase convention")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument(
            "--format",
            dest="formats",
            type=_parse_formats,
            help=f"comma-separated subset of: {', '.join(FORMATS)}",
        )
        if cmd.jobs:
            p.add_argument("--jobs", type=int, help="concurrent sweep evaluations")
        p.add_argument("--config", help="flat JSON config file (flags win)")
    return ap


class _Resolver:
    """Parameter lookup with precedence flag > preset > config > default."""

    def __init__(self, args):
        self.args = args
        self.preset = {}
        figs = [f for f in FIG_PRESETS if getattr(args, f, False)]
        if len(figs) > 1:
            raise ValueError(f"conflicting figure presets: {', '.join(figs)}")
        if figs:
            self.preset = FIG_PRESETS[figs[0]]
        self.config = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            try:
                loaded = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ValueError(f"cannot read config file {path}: {exc}")
            if not isinstance(loaded, dict):
                raise ValueError(f"config file {path} must hold a JSON object")
            known = set(vars(args)) - {"command", "config", "file"}
            unknown = sorted(set(loaded) - known)
            if unknown:
                raise ValueError(
                    f"unknown config key(s) {unknown}; valid keys: {sorted(known)}"
                )
            self.config = loaded

    def get(self, key, default=None):
        v = getattr(self.args, key, None)
        if v is not None and v is not False:
            return v
        if key in self.preset:
            return self.preset[key]
        if key in self.config:
            return self.config[key]
        return default

    def resolve_n(self, command_default: int) -> int:
        v = self.get("n", os.environ.get(ENV_DEFAULT_N, command_default))
        try:
            n = int(v)
        except (TypeError, ValueError):
            raise ValueError(f"n must be an integer, got {v!r}")
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        return n

    def require(self, key):
        v = self.get(key)
        if v is None:
            raise ValueError(f"missing required parameter {_flag(key)}")
        return v

    def number(self, key) -> float:
        return float(self.require(key))


def _build_config(cmd: Subcommand, res: _Resolver) -> RunConfig:
    n = None if cmd.default_n is None else res.resolve_n(cmd.default_n)
    window = res.get("window")
    if window is not None:
        if len(window) != 4:
            raise ValueError(f"window needs 4 values, got {window!r}")
        window = make_grid(*(float(x) for x in window), n)
    formats = res.get("formats", FORMATS)
    if isinstance(formats, str):
        formats = _parse_formats(formats)
    jobs = int(res.get("jobs", 1))
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    defaults = DecompositionOptions()
    return RunConfig(
        out_dir=Path(res.get("out", "out")),
        formats=tuple(formats),
        n=n,
        window=window,
        opts=DecompositionOptions(
            truncation_threshold=float(res.get("trunc", defaults.truncation_threshold)),
            gauge=str(res.get("gauge", defaults.gauge)),
        ),
        jobs=jobs,
    )


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


def _modes_table(coord_name: str, coords, modes, count=MODES_EMITTED):
    r = min(count, modes.shape[0])
    header = [coord_name]
    for k in range(1, r + 1):
        header += [f"mode{k}_re", f"mode{k}_im"]
    rows = []
    for i, x in enumerate(coords):
        row = [float(x)]
        for k in range(r):
            row += [float(modes[k][i].real), float(modes[k][i].imag)]
        rows.append(row)
    return tuple(header), rows


def _density_table(coord_name: str, coords, modes, count=MODES_EMITTED):
    r = min(count, modes.shape[0])
    header = [coord_name] + [f"mode{k}_density" for k in range(1, r + 1)]
    rows = []
    for i, x in enumerate(coords):
        rows.append([float(x)] + [float(abs(modes[k][i]) ** 2) for k in range(r)])
    return tuple(header), rows


def _mode_tables(result: SchmidtResult, modes: dict) -> dict:
    """The weight spectrum table plus a model's mode tables."""
    rows = []
    cum = 0.0
    for k, lam in enumerate(result.lambdas, start=1):
        cum += float(lam)
        rows.append((k, float(lam), cum))
    spectrum = (("k", "lambda_k", "cumulative_weight"), rows)
    return {"csv-spectrum": {"spectrum.csv": spectrum}, "csv-modes": modes}


def _sweep_values(res: _Resolver, prefix: str):
    explicit = res.get(f"{prefix}_list")
    if explicit is not None:
        items = explicit if isinstance(explicit, (list, tuple)) else str(explicit).split(",")
        try:
            vals = [float(t) for t in items if str(t).strip()]
        except (TypeError, ValueError):
            raise ValueError(
                f"{prefix}_list must be a comma-separated list of numbers, got {explicit!r}"
            )
        if not vals:
            raise ValueError(f"{prefix}_list is empty")
        return vals
    start = res.require(f"{prefix}_start")
    stop = res.require(f"{prefix}_stop")
    steps = int(res.require(f"{prefix}_steps"))
    if steps < 1:
        raise ValueError(f"--{prefix}-steps must be at least 1, got {steps}")
    if stop < start:
        raise ValueError(f"--{prefix}-stop must be >= --{prefix}-start")
    return [float(v) for v in np.linspace(float(start), float(stop), steps)]


def _map_jobs(fn, values, jobs: int):
    if jobs <= 1 or len(values) <= 1:
        return [fn(v) for v in values]
    with ThreadPoolExecutor(max_workers=jobs) as ex:
        return list(ex.map(fn, values))


def _spdc_constants(res: _Resolver):
    """(sigma, d_o, d_e) with the crystal's default group delays."""
    return (
        res.number("sigma"),
        float(res.get("d_o", DEFAULT_D_O)),
        float(res.get("d_e", DEFAULT_D_E)),
    )


# Model functions.  Each samples the base grid before the enlarged probe
# grid, and looks the sampling, decomposition, coherence and dynamics
# functions up in this module's globals at call time, where
# bench/tracing.py wraps them.


def _coord(res: _Resolver, config: RunConfig) -> ModelRun:
    """Decompose the coordinate-space amplitude; emit spectrum, modes, overlaps."""
    params = AtomPhotonParams(res.number("xi0"), res.number("eta"), res.number("tau"))
    if config.window is None:
        grid = coord_grid(params, config.n)
        big_grid = coord_grid(params, config.n, enlarge=1.5)
    else:
        grid = config.window
        big_grid = enlarged_grid(grid, 1.5)
    result = schmidt_decompose(coord_matrix(params, grid), config.opts)
    big = schmidt_decompose(coord_matrix(params, big_grid), config.opts)
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
        grid=grid,
        blocks={"validity": asdict(validity_check(params))},
        results={
            **_result_payload(result),
            "laguerre_overlaps": [{"k": k, "overlap_modulus": v} for k, v in overlaps],
        },
        convergence=_convergence_deltas(result, big),
        tables=_mode_tables(result, modes),
    )


def _momentum(res: _Resolver, config: RunConfig) -> ModelRun:
    """Decompose the momentum-space amplitude; emit modes and densities."""
    # The momentum amplitude is the long-time limit, so tau plays no part.
    params = AtomPhotonParams(res.number("xi0"), res.number("eta"), tau=1.0)
    grid = config.window or momentum_grid(config.n)
    result = schmidt_decompose(momentum_matrix(params, grid), config.opts)
    big = schmidt_decompose(momentum_matrix(params, enlarged_grid(grid, 2.0)), config.opts)
    k_inf, s_inf = asymptotics(params.eta)
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
        grid=grid,
        blocks={
            "validity": asdict(validity_check(params)),
            "asymptotics": {"K_inf": k_inf, "S_inf": s_inf},
        },
        results=_result_payload(result),
        convergence=_convergence_deltas(result, big),
        tables=_mode_tables(result, modes),
    )


def _dynamics(res: _Resolver, config: RunConfig) -> ModelRun:
    """Sweep tau; emit per-row zero-order and composite measures.

    The S0 column uses the spectrum-consistent entropy reading (weights
    not squared) so that S - S0 vanishes when the fine structure does;
    K0 is identical under both readings.  Window capture is checked once
    at the largest tau, where the Gaussian ridge is widest.
    """
    xi0, eta = res.number("xi0"), res.number("eta")
    taus = _sweep_values(res, "tau")
    params = AtomPhotonParams(xi0, eta, max(taus))
    policy = GridPolicy(n=config.n, capture_check=False)

    def point(tau: float):
        k0, _ = zero_order_dynamics(tau)
        _, s0 = zero_order_dynamics(tau, squared_entropy_weights=False)
        k, s, _ = full_dynamics(params, tau, policy, config.opts)
        return (tau, k0, s0, k, s, k - k0, s - s0)

    header = ("tau", "K0", "S0", "K", "S", "K_minus_K0", "S_minus_S0")
    rows = _map_jobs(point, taus, config.jobs)
    drift = coord_capture_drift(params, config.n, opts=config.opts)
    if drift >= policy.capture_tol:
        raise ConvergenceError(
            f"window capture check failed at tau={params.tau:g}: spectrum drift "
            f"{drift:.3e} >= {policy.capture_tol:.1e}; widen the window or raise n"
        )
    return ModelRun(
        params={"xi0": xi0, "eta": eta, "tau_values": [float(t) for t in taus]},
        blocks={"validity": asdict(validity_check(params))},
        results={
            "rows": len(rows),
            "max_abs_K_minus_K0": max(abs(r[5]) for r in rows),
            "max_abs_S_minus_S0": max(abs(r[6]) for r in rows),
        },
        convergence={"endpoint_lambda_drift": drift},
        tables={"csv-sweep": {"sweep.csv": (header, rows)}},
    )


def _spdc(res: _Resolver, config: RunConfig) -> ModelRun:
    """Decompose the biphoton amplitude; emit F, rho, mixture and modes."""
    params = spdc_params(res.number("L"), *_spdc_constants(res))
    grid = config.window or spdc_grid(params, config.n)
    A = spdc_matrix(params, grid)
    result = schmidt_decompose(A, config.opts)
    A_big = spdc_matrix(params, enlarged_grid(grid, 1.5))
    big = schmidt_decompose(A_big, config.opts)
    report = coherence_report(A, result)
    rho = polarization_density_matrix(report.F)
    checks = density_matrix_checks(rho.rho)
    d_f = coherence(A_big).real - report.F.real
    modes = {
        "modes_o.csv": _modes_table("p", grid.p_nodes(), result.modes_p),
        "modes_e.csv": _modes_table("q", grid.q_nodes(), result.modes_q),
    }
    return ModelRun(
        params={**asdict(params), "X_o": params.X_o, "X_e": params.X_e},
        grid=grid,
        results={
            **_result_payload(result),
            "F": complex(report.F),
            "weight_plus": report.weight_plus,
            "weight_minus": report.weight_minus,
            "purity": checks.purity,
            "rho": [[complex(v) for v in row] for row in rho.rho],
            "rho_basis": list(rho.basis),
            "messages": list(report.messages),
        },
        convergence=_convergence_deltas(result, big, dF=d_f),
        tables=_mode_tables(result, modes),
    )


def _spdc_length_sweep(res: _Resolver, config: RunConfig) -> ModelRun:
    """Sweep the crystal length; emit per-row X_o, X_e, F, K, S.

    Rows depend on (L, sigma) only through the products X = d L sigma, so
    a sweep at (c L, sigma / c) reproduces the same physics columns.
    """
    Ls = _sweep_values(res, "L")
    sigma, d_o, d_e = _spdc_constants(res)

    def point(L: float):
        params = spdc_params(L, sigma, d_o, d_e)
        A = spdc_matrix(params, config.window or spdc_grid(params, config.n))
        result = schmidt_decompose(A, config.opts)
        F = coherence(A)
        return (L, params.X_o, params.X_e, F.real, result.schmidt_number, result.entropy)

    rows = _map_jobs(point, Ls, config.jobs)
    return ModelRun(
        params={"L_values": [float(v) for v in Ls], "sigma": sigma, "d_o": d_o, "d_e": d_e},
        results={"rows": len(rows), "F_first": rows[0][3], "F_last": rows[-1][3]},
        tables={"csv-sweep": {"sweep.csv": (("L", "X_o", "X_e", "F", "K", "S"), rows)}},
    )


def _decompose(res: _Resolver, config: RunConfig) -> ModelRun:
    """Normalize and decompose a matrix read from a text file."""
    entries = parse_matrix_file(res.args.file)
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
    result = schmidt_decompose(A, config.opts)
    idx = np.arange(n, dtype=float)
    modes = {
        "modes_p.csv": _modes_table("row_index", idx, result.modes_p),
        "modes_q.csv": _modes_table("col_index", idx, result.modes_q),
    }
    return ModelRun(
        params={"file": str(res.args.file), "n": n},
        results=_result_payload(result),
        tables=_mode_tables(result, modes),
    )


# Model flags take floats unless listed here; key "d_o" is the flag --d-o.
FLAG_TYPES = {"tau_steps": int, "L_steps": int, "tau_list": str, "L_list": str, "file": str}
FLAG_HELP = {
    "L": "crystal length (mm)",
    "sigma": "pump bandwidth (1/ps)",
    "d_o": "ordinary-ray group delay (ps/mm)",
    "d_e": "extraordinary-ray group delay (ps/mm)",
    "tau_list": "comma-separated tau values (overrides the range)",
    "L_list": "comma-separated lengths (overrides the range)",
    "file": "whitespace-separated matrix file",
}

SUBCOMMANDS = {
    "atom-photon-coord": Subcommand(
        "coordinate-space emission amplitude",
        _coord,
        flags=("xi0", "eta", "tau"),
        figs=("fig1",),
        default_n=ATOM_DEFAULT_N,
        window=True,
    ),
    "atom-photon-momentum": Subcommand(
        "momentum-space emission amplitude",
        _momentum,
        flags=("xi0", "eta"),
        figs=("fig3",),
        default_n=ATOM_DEFAULT_N,
        window=True,
    ),
    "atom-photon-dynamics": Subcommand(
        "K(tau), S(tau) sweep",
        _dynamics,
        flags=("xi0", "eta", "tau_start", "tau_stop", "tau_steps", "tau_list"),
        figs=("fig2",),
        default_n=ATOM_DEFAULT_N,
        jobs=True,
    ),
    "spdc": Subcommand(
        "biphoton amplitude and polarization coherence",
        _spdc,
        flags=("L", "sigma", "d_o", "d_e"),
        figs=("fig5", "fig6"),
        default_n=SPDC_DEFAULT_N,
        window=True,
    ),
    "spdc-length-sweep": Subcommand(
        "F, K, S versus crystal length",
        _spdc_length_sweep,
        flags=("L_start", "L_stop", "L_steps", "L_list", "sigma", "d_o", "d_e"),
        figs=("fig4",),
        default_n=SPDC_DEFAULT_N,
        window=True,
        jobs=True,
    ),
    "decompose": Subcommand(
        "Schmidt-decompose a matrix from a text file",
        _decompose,
        flags=("file",),
    ),
}


def run(args) -> dict:
    """Run one parsed command line: resolve, compute, emit; return the summary.

    The wall-clock duration stays out of the summary so it is reproducible.
    """
    cmd = SUBCOMMANDS[args.command]
    res = _Resolver(args)
    config = _build_config(cmd, res)
    out = cmd.model(res, config)
    params = dict(out.params)
    if config.n is not None:
        params["n"] = config.n
    if out.grid is not None:
        params["window"] = asdict(out.grid)
    params["trunc"] = config.opts.truncation_threshold
    params["gauge"] = config.opts.gauge
    payload = {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "params": params,
        **out.blocks,
        "results": out.results,
    }
    if out.convergence is not None:
        payload["grid_convergence"] = out.convergence
    config.out_dir.mkdir(parents=True, exist_ok=True)
    if "json-summary" in config.formats:
        write_json(config.out_dir / "summary.json", payload)
    for fmt, files in out.tables.items():
        if fmt in config.formats:
            for name, (header, rows) in files.items():
                write_csv(config.out_dir / name, header, rows)
    return payload


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
