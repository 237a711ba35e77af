"""Benchmark workloads: seeded CLI inputs and an independent oracle for each.

A workload draws one ``schmidt_lab.cli.main`` argv from a numpy Generator
(writing the matrix file it names, for ``matrix-file``) and afterwards checks
the files that run wrote.  The oracle rebuilds each amplitude through the
public sampling functions, or takes the matrix it wrote itself, and recomputes
the weights with ``numpy.linalg.svd(..., compute_uv=False)``; it never calls
the decomposition under test.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from schmidt_lab.atom_photon import AtomPhotonParams, coord_grid, coord_matrix
from schmidt_lab.spdc import spdc_grid, spdc_matrix, spdc_params

# Absolute tolerance on K, S and F.  A values-only SVD and the program's full
# SVD agree to ~1e-12 on K even at full rank (K ~ 250 for matrix-file).
ORACLE_TOL = 1e-9
# The CLI's default --trunc; no workload overrides it.
TRUNCATION = 1e-14

# Preset values the workloads keep (see FIG_PRESETS in schmidt_lab.cli).
FIG1 = {"xi0": 100.0, "eta": 0.03, "n": 800}
FIG2 = {"xi0": 100.0, "eta": 0.03, "tau_start": 0.1, "tau_steps": 34, "n": 400}
FIG4 = {"L_start": 0.25, "L_stop": 4.0, "L_steps": 16, "n": 512}
MATRIX_N = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``draw(rng, work_dir, n)`` returns ``(argv, expected)``: the CLI
    arguments (without ``--out``) and what the oracle needs.  ``check``
    takes ``expected`` and the output directory and returns a list of
    mismatch messages, empty when the run is correct.  ``n`` overrides the
    preset resolution (tests use tiny meshes); None keeps the preset.
    """

    name: str
    ranges: dict
    files: tuple
    draw: Callable
    check: Callable


def weights(entries: np.ndarray) -> np.ndarray:
    """Kept Schmidt weights of a matrix under the CLI's truncation rule."""
    if np.iscomplexobj(entries) and not entries.imag.any():
        entries = entries.real  # same singular values at a third of the cost
    s = np.linalg.svd(entries, compute_uv=False)
    lam = s**2 / np.sum(s**2)
    lam = lam[lam >= TRUNCATION * lam[0]]
    return lam / lam.sum()


def k_and_s(lam: np.ndarray) -> tuple[float, float]:
    live = lam[lam > 0.0]
    return float(1.0 / np.sum(lam**2)), float(-np.sum(live * np.log2(live)))


def compare(label: str, got: dict, want: dict) -> list:
    """Mismatch messages for every key of ``want`` that ``got`` misses."""
    bad = []
    for key, w in want.items():
        g = got.get(key)
        if g is None or not abs(float(g) - w) <= ORACLE_TOL:
            bad.append(f"{label}: {key} = {g!r}, oracle {w!r}")
    return bad


def read_rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _n(n, preset: dict) -> int:
    return preset["n"] if n is None else n


def _with_n(argv: list, n) -> list:
    return argv if n is None else [*argv, "--n", str(n)]


def _draw_coord(rng, work_dir, n):
    tau = float(rng.uniform(8.0, 12.0))
    argv = ["atom-photon-coord", "--fig1", "--tau", repr(tau)]
    return _with_n(argv, n), {"tau": tau, "n": _n(n, FIG1)}


def _check_coord(expected, out_dir):
    params = AtomPhotonParams(FIG1["xi0"], FIG1["eta"], expected["tau"])
    A = coord_matrix(params, coord_grid(params, expected["n"]))
    K, S = k_and_s(weights(A.entries))
    results = json.loads((out_dir / "summary.json").read_text())["results"]
    return compare("summary.json", results, {"K": K, "S": S})


def _draw_dynamics(rng, work_dir, n):
    tau_stop = float(rng.uniform(9.5, 10.5))
    argv = ["atom-photon-dynamics", "--fig2", "--tau-stop", repr(tau_stop)]
    return _with_n(argv, n), {"tau_stop": tau_stop, "n": _n(n, FIG2)}


def _check_dynamics(expected, out_dir):
    taus = np.linspace(FIG2["tau_start"], expected["tau_stop"], FIG2["tau_steps"])
    rows = read_rows(out_dir / "sweep.csv")
    if len(rows) != len(taus):
        return [f"sweep.csv: {len(rows)} rows, expected {len(taus)}"]
    bad = []
    for tau, row in zip(taus, rows):
        # Composite spectrum: surviving excited state plus the emitted
        # branch spread over the coordinate amplitude's Schmidt weights.
        params = AtomPhotonParams(FIG2["xi0"], FIG2["eta"], float(tau))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tau < 3 long-time-approximation warning
            A = coord_matrix(params, coord_grid(params, expected["n"]))
        le, lg = np.exp(-tau), -np.expm1(-tau)
        lam = np.concatenate(([le], lg * weights(A.entries)))
        K, S = k_and_s(lam / lam.sum())
        bad += compare(f"sweep.csv tau={tau!r}", row, {"tau": tau, "K": K, "S": S})
    return bad


def _draw_spdc_sweep(rng, work_dir, n):
    sigma = float(rng.uniform(9.0, 11.0))
    argv = ["spdc-length-sweep", "--fig4", "--sigma", repr(sigma)]
    return _with_n(argv, n), {"sigma": sigma, "n": _n(n, FIG4)}


def _check_spdc_sweep(expected, out_dir):
    Ls = np.linspace(FIG4["L_start"], FIG4["L_stop"], FIG4["L_steps"])
    rows = read_rows(out_dir / "sweep.csv")
    if len(rows) != len(Ls):
        return [f"sweep.csv: {len(rows)} rows, expected {len(Ls)}"]
    bad = []
    for L, row in zip(Ls, rows):
        params = spdc_params(float(L), expected["sigma"])
        A = spdc_matrix(params, spdc_grid(params, expected["n"])).entries
        K, S = k_and_s(weights(A))
        F = float(np.sum(A * A.conj().T).real)
        bad += compare(f"sweep.csv L={L!r}", row, {"L": L, "F": F, "K": K, "S": S})
    return bad


def write_matrix(path: Path, M: np.ndarray) -> None:
    """Write ``M`` in the CLI's matrix-file format; 17 digits round-trip exactly."""
    row_fmt = " ".join(["%.17g%+.17gj"] * M.shape[1]) + "\n"
    pairs = np.stack((M.real, M.imag), axis=-1).reshape(M.shape[0], -1)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(row_fmt % tuple(row.tolist()) for row in pairs)


def _draw_matrix_file(rng, work_dir, n):
    n = MATRIX_N if n is None else n
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = Path(work_dir) / "matrix.txt"
    write_matrix(path, M)
    return ["decompose", str(path)], {"matrix": M}


def _check_matrix_file(expected, out_dir):
    K, S = k_and_s(weights(expected["matrix"]))
    results = json.loads((out_dir / "summary.json").read_text())["results"]
    return compare("summary.json", results, {"K": K, "S": S})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coord-fig1",
            {"tau": (8.0, 12.0)},
            ("summary.json", "spectrum.csv", "modes_p.csv", "modes_q.csv",
             "laguerre_overlaps.csv"),
            _draw_coord,
            _check_coord,
        ),
        Workload(
            "dyn-fig2",
            {"tau_stop": (9.5, 10.5)},
            ("summary.json", "sweep.csv"),
            _draw_dynamics,
            _check_dynamics,
        ),
        Workload(
            "spdc-sweep-fig4",
            {"sigma": (9.0, 11.0)},
            ("summary.json", "sweep.csv"),
            _draw_spdc_sweep,
            _check_spdc_sweep,
        ),
        Workload(
            "matrix-file",
            {"n": MATRIX_N, "entries": "re, im ~ N(0, 1)"},
            ("summary.json", "spectrum.csv", "modes_p.csv", "modes_q.csv"),
            _draw_matrix_file,
            _check_matrix_file,
        ),
    )
}


def verify(workload: Workload, expected: dict, out_dir: Path) -> list:
    """All problems with one run's output: missing files, then oracle mismatches."""
    missing = [f for f in workload.files if not (out_dir / f).is_file()]
    if missing:
        return [f"missing data file(s): {', '.join(missing)}"]
    return workload.check(expected, out_dir)
