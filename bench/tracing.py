"""Per-layer spans for a traced benchmark run.

``Tracer.invocation()`` swaps the public function of each layer, in the
namespaces that call it, for a wrapper that records a span around the call,
and puts the originals back on exit.  Spans stay in memory; ``layer_metrics``
reduces one invocation's spans to per-layer counts and times.

Layers, after the module that owns each function:

* sample     coord_matrix, momentum_matrix, spdc_matrix (sample + normalize)
* decompose  schmidt_decompose
* probe      atom_photon.coord_capture_drift, and any sample/decompose pair
             whose grid differs from the first grid sampled under the same
             parent span (the CLI's enlarged-window convergence probe)
* dynamics   full_dynamics
* coherence  coherence, coherence_report
* emit       write_json, write_csv
* parse      parse_matrix_file
* cli        the root span: one whole ``main(argv)`` call
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

LAYER_OF = {
    "coord_matrix": "sample",
    "momentum_matrix": "sample",
    "spdc_matrix": "sample",
    "schmidt_decompose": "decompose",
    "coord_capture_drift": "probe",
    "full_dynamics": "dynamics",
    "coherence": "coherence",
    "coherence_report": "coherence",
    "write_json": "emit",
    "write_csv": "emit",
    "parse_matrix_file": "parse",
}
# The CLI imports every layer function by name; atom_photon calls
# coord_matrix, schmidt_decompose and coord_capture_drift from its globals.
NAMESPACES = ("schmidt_lab.cli", "schmidt_lab.atom_photon")

# Metric name -> unit, in the order results list them.  Counts (calls,
# nodes, bytes, kept_ratio) depend only on the inputs; the rest are times.
LAYER_METRICS = {
    "sample.calls": "count",
    "sample.s": "s",
    "sample.nodes": "count",
    "decompose.calls": "count",
    "decompose.s": "s",
    "decompose.nodes": "count",
    "decompose.kept_ratio": "ratio",
    "probe.calls": "count",
    "probe.s": "s",
    "dynamics.calls": "count",
    "dynamics.self_s": "s",
    "coherence.calls": "count",
    "coherence.s": "s",
    "emit.calls": "count",
    "emit.s": "s",
    "emit.bytes": "bytes",
    "parse.calls": "count",
    "parse.s": "s",
    "parse.bytes": "bytes",
    "cli.self_s": "s",
}
COUNT_SUFFIXES = (".calls", ".nodes", ".bytes", ".kept_ratio")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    invocation: int
    end: float | None = None
    counts: dict = field(default_factory=dict)
    grid: object = None  # first grid sampled directly under this span


class Tracer:
    """Records spans for the calls made inside ``invocation()`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocations = 0
        self._stack: list[int] = []
        self._probe_matrix = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.invocations - 1)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def _starts_probe(self, grid) -> bool:
        if any(self.spans[i].name == "probe" for i in self._stack):
            return False
        parent = self.spans[self._stack[-1]]
        if parent.grid is None:
            parent.grid = grid
            return False
        return grid != parent.grid

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            probe = False
            if layer == "sample":
                probe = self._starts_probe(args[1] if len(args) > 1 else kwargs["grid"])
                if probe:
                    self._open("probe")
            ends_probe = layer == "decompose" and args[0] is self._probe_matrix
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            span.counts = _counts(layer, args, result)
            if probe:
                self._probe_matrix = result
            if ends_probe:
                self._probe_matrix = None
                self._close()
            return result

        return wrapper

    @contextmanager
    def invocation(self):
        """Trace one CLI call: install wrappers, open the root span, restore."""
        saved = []
        for mod_name in NAMESPACES:
            mod = importlib.import_module(mod_name)
            for fn_name, layer in LAYER_OF.items():
                fn = getattr(mod, fn_name, None)
                if fn is not None:
                    saved.append((mod, fn_name, fn))
                    setattr(mod, fn_name, self._wrap(layer, fn))
        self.invocations += 1
        self._probe_matrix = None
        self._open("cli")
        try:
            yield
        finally:
            while self._stack:
                self._close()
            for mod, fn_name, fn in saved:
                setattr(mod, fn_name, fn)

    def to_records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "invocation": s.invocation,
                **s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


def _counts(layer: str, args, result) -> dict:
    if layer == "sample":
        return {"nodes": int(result.entries.size)}
    if layer == "decompose":
        A = args[0]
        return {"nodes": int(A.entries.size), "n": A.grid.n, "kept": result.rank}
    if layer in ("emit", "parse"):
        return {"bytes": Path(args[0]).stat().st_size}
    return {}


def self_times(spans: list[Span], index: dict) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``index`` maps a span's global id (its ``parent`` value) to its position
    in ``spans``.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s.parent in index:
            children[index[s.parent]].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def invocation_self_times(tracer: Tracer, invocation: int) -> tuple[list, list]:
    """One invocation's spans, root first, and the self time of each."""
    ids = [i for i, s in enumerate(tracer.spans) if s.invocation == invocation]
    spans = [tracer.spans[i] for i in ids]
    return spans, self_times(spans, {gid: pos for pos, gid in enumerate(ids)})


def layer_metrics(tracer: Tracer, invocation: int) -> dict:
    """Per-layer counts and times of one traced invocation."""
    spans, selfs = invocation_self_times(tracer, invocation)
    tot: dict = {}
    for s, self_s in zip(spans, selfs):
        for key, v in (("calls", 1), ("s", s.end - s.start), ("self_s", self_s),
                       *s.counts.items()):
            tot[f"{s.name}.{key}"] = tot.get(f"{s.name}.{key}", 0) + v
    n = tot.get("decompose.n", 0)
    tot["decompose.kept_ratio"] = tot.get("decompose.kept", 0) / n if n else 0.0
    return {m: tot.get(m, 0 if m.endswith(COUNT_SUFFIXES) else 0.0) for m in LAYER_METRICS}
