"""Tests of the benchmark itself, at tiny meshes.

Run from the repository root:  python3 -m pytest bench
"""

import csv
import json
import math
import shutil

import pytest

import run

run.bootstrap()

import numpy as np  # noqa: E402
import schmidt_lab.atom_photon as atom_photon  # noqa: E402
import schmidt_lab.cli as cli  # noqa: E402
import schmidt_lab.schmidt as schmidt  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Smallest meshes each workload runs cleanly at: dyn-fig2's endpoint capture
# check needs n >= ~40, and spdc-sweep-fig4's sinc needs n >= 300 at L = 4.
TINY_N = {"coord-fig1": 40, "dyn-fig2": 64, "spdc-sweep-fig4": 320, "matrix-file": 16}


def _invoke(name, work, seed=0, tracer=None):
    wl = workloads.WORKLOADS[name]
    work.mkdir(parents=True, exist_ok=True)
    argv, expected = wl.draw(np.random.default_rng(seed), work, TINY_N[name])
    out = work / "out"
    if tracer is None:
        assert cli.main([*argv, "--out", str(out)]) == 0
    else:
        with tracer.invocation():
            assert cli.main([*argv, "--out", str(out)]) == 0
    return wl, expected, out


def _perturb_k(out, delta):
    """Add delta to K in summary.json, or to the first row's K in sweep.csv."""
    sweep = out / "sweep.csv"
    if sweep.is_file():
        with sweep.open(newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("K")
        rows[1][col] = repr(float(rows[1][col]) + delta)
        with sweep.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    else:
        path = out / "summary.json"
        summary = json.loads(path.read_text())
        summary["results"]["K"] += delta
        path.write_text(json.dumps(summary))


def test_runner_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS) == set(TINY_N)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_oracle_rejects_k_perturbed_by_1e_6(name, tmp_path):
    wl, expected, out = _invoke(name, tmp_path)
    assert workloads.verify(wl, expected, out) == []
    _perturb_k(out, 1e-6)
    problems = workloads.verify(wl, expected, out)
    assert len(problems) == 1 and ": K = " in problems[0]


def test_verify_reports_missing_data_file(tmp_path):
    wl, expected, out = _invoke("coord-fig1", tmp_path)
    (out / "modes_q.csv").unlink()
    assert workloads.verify(wl, expected, out) == ["missing data file(s): modes_q.csv"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tracing_keeps_outputs_and_restores_functions(name, tmp_path):
    # Same directory both times: matrix-file's summary.json records the path.
    _, _, out = _invoke(name, tmp_path)
    plain = {f.name: f.read_bytes() for f in out.iterdir()}
    shutil.rmtree(out)
    _invoke(name, tmp_path, tracer=tracing.Tracer())
    assert {f.name: f.read_bytes() for f in out.iterdir()} == plain
    assert cli.schmidt_decompose is schmidt.schmidt_decompose
    for module in (cli, atom_photon):
        for fn in tracing.LAYER_OF:
            assert not hasattr(getattr(module, fn, None), "__wrapped__")


def _traced_run(name, out):
    return run.run_workload(name, seed=7, seconds=0, trace=True, n=TINY_N[name], out=out)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_non_negative_and_sum_to_root(name, tmp_path):
    result = _traced_run(name, tmp_path)
    assert result["result"]["correct"]
    tracer = result["tracer"]
    for k in range(tracer.invocations):
        spans, selfs = tracing.invocation_self_times(tracer, k)
        root = spans[0]
        assert root.name == "cli" and root.parent is None
        assert min(selfs) >= 0.0
        assert math.isclose(sum(selfs), root.end - root.start, rel_tol=1e-9, abs_tol=1e-12)


# (probe.calls, parse.calls) per invocation, as predicted from the seed code.
PROBE_AND_PARSE_CALLS = {
    "coord-fig1": (1, 0),
    "dyn-fig2": (1, 0),
    "spdc-sweep-fig4": (0, 0),
    "matrix-file": (0, 1),
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_between_traced_runs(name, tmp_path):
    first = _traced_run(name, tmp_path / "a")["result"]["metrics"]
    second = _traced_run(name, tmp_path / "b")["result"]["metrics"]
    counts = [m for m in tracing.LAYER_METRICS if m.endswith(tracing.COUNT_SUFFIXES)]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    calls = (first["probe.calls"]["value"], first["parse.calls"]["value"])
    assert calls == PROBE_AND_PARSE_CALLS[name]
    assert first["decompose.calls"]["value"] > 0 and first["emit.bytes"]["value"] > 0
