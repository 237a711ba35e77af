#!/usr/bin/env python3
"""Benchmark of the schmidt-lab command line, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload coord-fig1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

A run imports ``schmidt_lab`` from ``src/`` beside this directory and calls
``schmidt_lab.cli.main(argv)`` in-process, from one thread, with OpenBLAS
pinned to one thread before numpy loads.  Every argv (and, for ``matrix-file``, the
matrix file) is drawn from ``--seed``, outside the timed region, and no two
invocations share an input.  Every invocation writes into a fresh directory
and is checked against the oracle in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time for a
fresh interpreter to import ``schmidt_lab.cli`` and build its parser, one
sample after each timed invocation),
``run_s`` and ``cpu_s`` (median wall and process CPU time of one invocation,
after one untimed warm-up) and ``peak_rss_mb`` (this process's high-water
mark).  ``--trace 1`` alternates untraced and traced invocations and reports
the per-layer metrics of ``tracing.py`` plus ``trace_overhead_s``.  Error
rate (failed / attempted invocations) is in ``attempted`` and ``failed``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the full record (seed,
parameter ranges, samples, environment).  A traced run also writes its spans
to ``.bench_out/<workload>-seed<seed>.spans.jsonl`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("coord-fig1", "dyn-fig2", "spdc-sweep-fig4", "matrix-file")
# One BLAS thread.  On a 2-core machine two threads gave times no steadier
# and a less steady peak RSS, and with one thread cpu_s ~ run_s, so work
# moved onto extra threads shows as cpu_s > run_s.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUP_SAMPLES = 5
MIN_SAMPLES = 3
MIN_TRACED_SAMPLES = 2  # of each kind, traced and untraced
RUN_TIMEOUT_S = 170
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import schmidt_lab.cli\n"
    "schmidt_lab.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def bootstrap() -> None:
    """Pin BLAS threads and import ``schmidt_lab`` from this checkout's ``src/``.

    Must run before numpy is imported for the thread pin to take effect.

    Raises
    ------
    FileNotFoundError
        If the checkout holds no ``src/schmidt_lab`` package.
    """
    if not (SRC / "schmidt_lab" / "cli.py").is_file():
        raise FileNotFoundError(f"no schmidt_lab package under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def measure_setup() -> float:
    """Time a fresh interpreter takes to import the CLI and build its parser."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def invoke(cli_main, argv: list) -> tuple:
    """Time one ``main(argv)`` call; returns (exit code, wall s, CPU s, stderr)."""
    gc.collect()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            traceback.print_exc(file=err)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, wall, cpu, err.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None, out: Path = OUT) -> dict:
    """Run one workload for ``seconds``; return its result and full record."""
    import numpy as np

    from schmidt_lab.cli import main as cli_main
    from tracing import LAYER_METRICS, COUNT_SUFFIXES, Tracer, layer_metrics
    from workloads import WORKLOADS, verify

    workload = WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    tracer = Tracer()
    samples = {"run_s": [], "cpu_s": [], "traced_run_s": [], "setup_s": []}
    failures = []
    attempted = 0
    out.mkdir(parents=True, exist_ok=True)

    def one(traced: bool):
        nonlocal attempted
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
        try:
            argv, expected = workload.draw(rng, work, n)
            argv = [*argv, "--out", str(work / "out")]
            with tracer.invocation() if traced else contextlib.nullcontext():
                code, wall, cpu, err = invoke(cli_main, argv)
            try:
                problems = [f"exit code {code}: {err.strip()}"] if code else verify(
                    workload, expected, work / "out")
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += 1
        if problems:
            failures.append({"argv": argv, "problems": problems[:5]})
        return wall, cpu

    one(traced=False)  # warm-up: first-call costs users pay once per process
    if not trace:
        measure_setup()  # untimed: compiles the package's bytecode cache
    deadline = time.perf_counter() + seconds
    need = MIN_TRACED_SAMPLES if trace else MIN_SAMPLES
    i = 0
    while (len(samples["run_s"]) < need
           or len(samples["traced_run_s"]) < (need if trace else 0)
           or time.perf_counter() < deadline):
        traced = trace and i % 2 == 1
        wall, cpu = one(traced)
        if traced:
            samples["traced_run_s"].append(wall)
        else:
            samples["run_s"].append(wall)
            samples["cpu_s"].append(cpu)
            if not trace:
                # Spread over the run, so one slow moment of the machine
                # cannot move every set-up sample at once.
                samples["setup_s"].append(measure_setup())
        i += 1

    if trace:
        per_inv = [layer_metrics(tracer, k) for k in range(tracer.invocations)]
        metrics = {
            m: {"value": per_inv[0][m] if m.endswith(COUNT_SUFFIXES)
                else statistics.median(p[m] for p in per_inv), "unit": unit}
            for m, unit in LAYER_METRICS.items()
        }
        metrics["trace_overhead_s"] = {
            "value": statistics.median(samples["traced_run_s"])
            - statistics.median(samples["run_s"]),
            "unit": "s",
        }
    else:
        while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
            samples["setup_s"].append(measure_setup())
        metrics = {
            "setup_s": {"value": statistics.median(samples["setup_s"]), "unit": "s"},
            "run_s": {"value": statistics.median(samples["run_s"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(samples["cpu_s"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    failed = len(failures)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ranges": workload.ranges,
        "n": n,
        "samples": {k: v for k, v in samples.items() if v},
        "error_rate": failed / attempted,
        "failures": failures[:3],
        "environment": environment(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "record": record, "tracer": tracer}


def write_spans(run: dict, out: Path = OUT) -> None:
    rec = run["record"]
    path = out / f"{rec['workload']}-seed{rec['seed']}.spans.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for span in run["tracer"].to_records():
            fh.write(json.dumps(span) + "\n")


def run_all(seed: int, seconds: int) -> int:
    """Run every workload in its own process and print the end-to-end table."""
    header = ("workload", "setup_s [s]", "run_s [s]", "cpu_s [s]",
              "peak_rss_mb [MB]", "error_rate [1]", "samples")
    rows = []
    clean = True
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode or len(lines) < 2:
            sys.stderr.write(done.stderr)
            return 1
        rec = json.loads(lines[-2])["record"]
        res = json.loads(lines[-1])
        m = res["metrics"]
        clean = clean and res["failed"] == 0
        rows.append((name, f"{m['setup_s']['value']:.4f}", f"{m['run_s']['value']:.4f}",
                     f"{m['cpu_s']['value']:.4f}", f"{m['peak_rss_mb']['value']:.1f}",
                     f"{res['failed'] / res['attempted']:.4f}",
                     f"{len(rec['samples']['run_s'])} runs, {len(rec['samples']['setup_s'])} setups"))
    widths = [max(len(str(r[c])) for r in (header, *rows)) for c in range(len(header))]
    for r in (header, *rows):
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 0 if clean else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        bootstrap()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        write_spans(run)
    print(json.dumps({"record": run["record"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
