"""Spans for the traced benchmark run, and the per-layer metrics derived from them.

Tracing wraps the public names that each `simplexcode` module imports from
another layer, e.g. `search.ball` or `cli.run_experiment`. Patching the
importing module's name catches calls made inside that module as well as
calls from the CLI. Every call records a span (name, start, end, parent
span, operation id) in memory; `Tracer.save` writes them to one file when
the run ends, and `layer_metrics` computes every per-layer metric from
that file alone.
"""

from __future__ import annotations

import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, imported name, span name). A name a later version no longer
# imports is skipped and listed as missing in the result file.
PATCHES = (
    ("cli", "enumerate_perfect_codes", "search.enumerate_perfect_codes"),
    ("cli", "verify_theorem_sweep", "search.verify_theorem_sweep"),
    ("cli", "run_experiment", "channel.run_experiment"),
    ("cli", "is_perfect", "codes.is_perfect"),
    ("cli", "load_code", "codes.load_code"),
    ("search", "enumerate_perfect_codes", "search.enumerate_perfect_codes"),
    ("search", "canonicalize_code", "search.canonicalize_code"),
    ("search", "is_perfect", "codes.is_perfect"),
    ("search", "ball", "simplex.ball"),
    ("codes", "ball", "simplex.ball"),
    ("channel", "encode", "channel.encode"),
    ("channel", "receive", "channel.receive"),
    ("channel", "decode_received", "channel.decode_received"),
)

# Counts read off a span's return value: span name -> (counter, attribute or len).
COUNTERS = {
    "search.enumerate_perfect_codes": (("nodes", "nodes_explored"), ("solutions", "solution_count")),
    "channel.run_experiment": (("trials", "trials"), ("ambiguous", "ambiguous"), ("errors", "errors")),
    "simplex.ball": (("points", len),),
}

PASS_SPAN = "bench.pass"

# Per-layer metrics: name -> unit. Times and counts are per traced pass.
LAYER_METRICS = {
    "search.enumerate_perfect_codes.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.solutions_per_node": "ratio",
    "search.canonicalize_code.self_s": "s",
    "search.verify_theorem_sweep.self_s": "s",
    "simplex.ball.calls": "count",
    "simplex.ball.points": "count",
    "simplex.ball.self_s": "s",
    "codes.is_perfect.calls": "count",
    "codes.is_perfect.self_s": "s",
    "codes.load_code.self_s": "s",
    "channel.run_experiment.self_s": "s",
    "channel.encode.self_s": "s",
    "channel.receive.self_s": "s",
    "channel.decode_received.calls": "count",
    "channel.decode_received.self_s": "s",
    "channel.ambiguous_frac": "ratio",
    "channel.error_frac": "ratio",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        self.strings: list[str] = []  # span names and counter keys
        self._ids: dict[str, int] = {}
        self.name, self.parent, self.op = array("q"), array("q"), array("q")
        self.start, self.end = array("d"), array("d")
        self.c_span, self.c_key, self.c_val = array("q"), array("q"), array("q")
        self.op_id = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _intern(self, s: str) -> int:
        if s not in self._ids:
            self._ids[s] = len(self.strings)
            self.strings.append(s)
        return self._ids[s]

    def _open(self, ix: int) -> int:
        sid = len(self.start)
        self.name.append(ix)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name: str, fn):
        ix = self._intern(name)
        counters = [(self._intern(key), get) for key, get in COUNTERS.get(name, ())]

        def traced(*args, **kwargs):
            sid = self._open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            for key, get in counters:
                self.c_span.append(sid)
                self.c_key.append(key)
                self.c_val.append(get(result) if callable(get) else getattr(result, get))
            return result

        return traced

    def install(self, package) -> None:
        """Patch every name in PATCHES that the package's modules still import."""
        for module_name, attr, span_name in PATCHES:
            module = getattr(package, module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def save(self, path, untraced_pass_s: list[float], traced_pass_s: list[float]) -> None:
        np.savez_compressed(
            path,
            strings=np.array(self.strings),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            counter_span=np.frombuffer(self.c_span, dtype=np.int64),
            counter_key=np.frombuffer(self.c_key, dtype=np.int64),
            counter_value=np.frombuffer(self.c_val, dtype=np.int64),
            untraced_pass_s=np.array(untraced_pass_s, dtype=np.float64),
            traced_pass_s=np.array(traced_pass_s, dtype=np.float64),
        )


def layer_metrics(path) -> dict[str, float]:
    """Every per-layer metric, computed from a trace file written by Tracer.save."""
    with np.load(path) as f:
        t = {k: f[k] for k in f.files}
    strings = list(t["strings"])
    ids = {s: i for i, s in enumerate(strings)}
    dur = t["end"] - t["start"]
    self_t = dur.copy()
    has_parent = t["parent"] >= 0
    np.subtract.at(self_t, t["parent"][has_parent], dur[has_parent])

    def spans_of(name: str):
        return t["name"] == ids.get(name, -1)

    def counter(span_name: str, key: str) -> int:
        if key not in ids:
            return 0
        span_names = t["name"][t["counter_span"]]
        sel = (t["counter_key"] == ids[key]) & (span_names == ids.get(span_name, -1))
        return int(t["counter_value"][sel].sum())

    passes = spans_of(PASS_SPAN)
    n_passes = int(passes.sum())
    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span_name, _, kind = metric.rpartition(".")
        if kind == "self_s":
            out[metric] = float(self_t[spans_of(span_name)].sum()) / n_passes
        elif kind == "calls":
            out[metric] = int(spans_of(span_name).sum()) / n_passes

    search = "search.enumerate_perfect_codes"
    nodes, solutions = counter(search, "nodes"), counter(search, "solutions")
    search_self = out[f"{search}.self_s"] * n_passes
    out["search.nodes"] = nodes / n_passes
    out["search.nodes_per_s"] = nodes / search_self if search_self else 0.0
    out["search.solutions_per_node"] = solutions / nodes if nodes else 0.0
    out["simplex.ball.points"] = counter("simplex.ball", "points") / n_passes

    channel = "channel.run_experiment"
    trials = counter(channel, "trials")
    out["channel.ambiguous_frac"] = counter(channel, "ambiguous") / trials if trials else 0.0
    out["channel.error_frac"] = counter(channel, "errors") / trials if trials else 0.0

    traced, untraced = statistics.median(t["traced_pass_s"]), statistics.median(t["untraced_pass_s"])
    out["trace.overhead_frac"] = traced / untraced - 1
    return {name: out[name] for name in LAYER_METRICS}
