"""Traced runs: timing wrappers around the public functions of each layer,
the spans they record, and the per-layer metrics derived from them.

The wrappers replace module attributes (and BranchingMatrix.matvec) for
the duration of a traced op run; the program looks these names up at call
time, so its internal calls go through them.  A name that a later version
of the program removes or moves is skipped, and every metric that needs
it is reported as absent (None) instead of failing the run.
"""

from __future__ import annotations

import inspect
import math
import resource
import time
from contextlib import contextmanager

from metrics import median, ratio, self_seconds

# (module, attribute, span name); "BranchingMatrix.matvec" patches a class
WRAPPED = (
    ("recurrence", "sandwich_values", "recurrence.sandwich"),
    ("recurrence", "marginal_adaptive", "recurrence.adaptive"),
    ("counting", "marginal_adaptive", "recurrence.adaptive"),
    ("counting", "partition_md", "counting.partition"),
    ("counting", "partition_hc", "counting.partition"),
    ("counting", "delete_vertex", "graph.delete_vertex"),
    ("graph", "gen_graph", "graph.gen_graph"),
    ("connconst", "saw_counts", "sawtree.saw_counts"),
    ("connconst", "conn_profile", "connconst.conn_profile"),
    ("connconst", "z2_branching_matrix", "connconst.automaton"),
    ("connconst", "spectral_bound", "connconst.spectral"),
    ("connconst", "BranchingMatrix.matvec", "connconst.matvec"),
)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _describe_call(name, args):
    """Attributes of a call read from its arguments, recorded whether it
    returns or raises."""
    if name == "recurrence.sandwich":
        return {"model": args["model"], "depth": args["depth"]}
    if name == "recurrence.adaptive":
        return {"model": args["params"].model, "tol": args["tol"], "n": args["g"].n}
    if name == "counting.partition":
        return {"n": args["g"].n, "eps": args["eps"]}
    return {}


def _describe_result(name, out):
    """Attributes of a call read from what it returned."""
    if name == "recurrence.sandwich":
        lo, hi = out[0][0]
        return {"nodes": out[1], "width": hi - lo, "truncated": out[2]}
    if name == "recurrence.adaptive":
        return {"depth": out.depth_max_used, "nodes": out.nodes_expanded, "width": out.hi - out.lo}
    if name == "counting.partition":
        converged = bool(out.converged) and out.lo > 0
        return {"converged": converged, "nodes": out.nodes_expanded,
                "log_ratio": math.log(out.hi / out.lo) if converged else None}
    if name == "sawtree.saw_counts":
        return {"walks": sum(out)}
    if name == "connconst.automaton":
        return {"states_raw": out.states_raw, "states_merged": out.k, "rss_mb": _rss_mb()}
    return {}


def _describe_error(exc):
    """Attributes of a call read from the budget error it raised."""
    out = {"error": type(exc).__name__}
    for attr, key in (("nodes_expanded", "nodes"), ("depth", "depth")):
        if hasattr(exc, attr):
            out[key] = getattr(exc, attr)
    return out


# what describing a call can raise when a later program changes a signature
# or a result type; the span then records it instead of failing the run
_DESCRIBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def _guarded(span, describe):
    try:
        span.update(describe())
    except _DESCRIBE_ERRORS as exc:
        span["describe_error"] = repr(exc)


def _arguments(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op = None
        self.missing = []

    def _wrap(self, name, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self.stack[-1] if self.stack else None,
                    "op": self.op, "name": name}
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span["end"] = time.perf_counter()
                span.update(_describe_error(exc))
                raise
            else:
                span["end"] = time.perf_counter()
                _guarded(span, lambda: _describe_result(name, out))
                return out
            finally:
                self.stack.pop()
                _guarded(span, lambda: _describe_call(name, _arguments(sig, args, kwargs)))

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name of WRAPPED that exists; restore them on exit."""
        saved = []
        self.missing = []
        try:
            for mod_name, attr, span_name in WRAPPED:
                owner = self.modules[mod_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, leaf, None) if owner is not None else None
                if not callable(fn):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((owner, leaf, fn))
                setattr(owner, leaf, self._wrap(span_name, fn))
            yield self
        finally:
            for owner, leaf, fn in reversed(saved):
                setattr(owner, leaf, fn)

    def absent_spans(self) -> set:
        return {span for mod, attr, span in WRAPPED if f"{mod}.{attr}" in self.missing}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "recurrence.sandwich.calls": "count",
    "recurrence.sandwich.md.nodes": "count",
    "recurrence.sandwich.md.busy_s": "s",
    "recurrence.sandwich.md.nodes_per_s": "1/s",
    "recurrence.sandwich.hc.nodes": "count",
    "recurrence.sandwich.hc.busy_s": "s",
    "recurrence.sandwich.hc.nodes_per_s": "1/s",
    "recurrence.sandwich.budget_exhausted": "count",
    "recurrence.adaptive.calls": "count",
    "recurrence.adaptive.passes": "passes/call",
    "recurrence.adaptive.final_pass_share": "ratio",
    "recurrence.adaptive.width_slack_p50": "ratio",
    "recurrence.adaptive.depth_max": "levels",
    "counting.partition.calls": "count",
    "counting.partition.self_s": "s",
    "counting.factors": "count",
    "counting.factor_s_p50": "s",
    "counting.factor_s_max": "s",
    "counting.factor_nodes_p50": "count",
    "counting.factor_nodes_max": "count",
    "counting.eps_used": "ratio",
    "counting.factor_coverage": "ratio",
    "graph.delete_vertex.calls": "count",
    "graph.delete_vertex.busy_s": "s",
    "graph.gen_graph.busy_s": "s",
    "sawtree.saw_counts.calls": "count",
    "sawtree.saw_counts.walks": "count",
    "sawtree.saw_counts.busy_s": "s",
    "sawtree.saw_counts.walks_per_s": "1/s",
    "connconst.conn_profile.self_s": "s",
    "connconst.automaton.busy_s": "s",
    "connconst.automaton.states_raw": "count",
    "connconst.automaton.states_merged": "count",
    "connconst.automaton.states_per_s": "1/s",
    "connconst.automaton.peak_rss_mb": "MB",
    "connconst.spectral.busy_s": "s",
    "connconst.spectral.matvecs": "count",
    "trace.overhead_s": "s",
}

# span names each metric reads; a metric is absent when one was not wrapped
_NEEDS = {
    "recurrence.sandwich": "recurrence.sandwich.",
    "recurrence.adaptive": "recurrence.adaptive.",
    "counting.partition": "counting.",
    "graph.delete_vertex": "graph.delete_vertex.",
    "graph.gen_graph": "graph.gen_graph.",
    "sawtree.saw_counts": "sawtree.saw_counts.",
    "connconst.conn_profile": "connconst.conn_profile.",
    "connconst.automaton": "connconst.automaton.",
    "connconst.spectral": "connconst.spectral.",
    "connconst.matvec": "connconst.spectral.matvecs",
}


def _dur(s):
    return s["end"] - s["start"]


def _pct(values, fn):
    return fn(values) if values else None


def layer_metrics(spans, absent=frozenset()) -> dict:
    """Per-layer metric name -> value (None when absent or undefined)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    get = lambda name: by_name.get(name, [])
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    selfs = self_seconds(spans)
    m = {}

    sandwich = get("recurrence.sandwich")
    m["recurrence.sandwich.calls"] = len(sandwich)
    for model, key in (("monomerdimer", "md"), ("hardcore", "hc")):
        calls = [s for s in sandwich if s.get("model") == model]
        nodes = sum(s.get("nodes", 0) for s in calls)
        busy = sum(map(_dur, calls))
        m[f"recurrence.sandwich.{key}.nodes"] = nodes
        m[f"recurrence.sandwich.{key}.busy_s"] = busy
        m[f"recurrence.sandwich.{key}.nodes_per_s"] = ratio(nodes, busy)
    m["recurrence.sandwich.budget_exhausted"] = sum(1 for s in sandwich if "error" in s)

    adaptive = get("recurrence.adaptive")
    answered = [s for s in adaptive if "error" not in s and "nodes" in s]
    passes = {s["id"]: [c for c in children.get(s["id"], []) if c["name"] == "recurrence.sandwich"]
              for s in adaptive}
    m["recurrence.adaptive.calls"] = len(adaptive)
    m["recurrence.adaptive.passes"] = ratio(sum(len(p) for p in passes.values()), len(adaptive))
    final = sum(passes[s["id"]][-1].get("nodes", 0) for s in answered if passes[s["id"]])
    m["recurrence.adaptive.final_pass_share"] = ratio(final, sum(s["nodes"] for s in answered))
    # a fully expanded tree is exact (width 0) whatever the tolerance
    m["recurrence.adaptive.width_slack_p50"] = _pct(
        [s["width"] / (2.0 * s["tol"]) for s in answered
         if passes[s["id"]] and passes[s["id"]][-1].get("truncated")], median)
    depths = [c["depth"] for p in passes.values() for c in p if "depth" in c]
    m["recurrence.adaptive.depth_max"] = max(depths) if depths else None

    partitions = get("counting.partition")
    factors = [c for s in partitions for c in children.get(s["id"], [])
               if c["name"] == "recurrence.adaptive"]
    factor_nodes = [c["nodes"] for c in factors if "nodes" in c]
    used = [s["log_ratio"] / s["eps"] for s in partitions if s.get("log_ratio") is not None]
    m["counting.partition.calls"] = len(partitions)
    m["counting.partition.self_s"] = sum(selfs[s["id"]] for s in partitions)
    m["counting.factors"] = len(factors)
    m["counting.factor_s_p50"] = _pct([_dur(c) for c in factors], median)
    m["counting.factor_s_max"] = _pct([_dur(c) for c in factors], max)
    m["counting.factor_nodes_p50"] = _pct(factor_nodes, median)
    m["counting.factor_nodes_max"] = _pct(factor_nodes, max)
    m["counting.eps_used"] = _pct(used, median)
    m["counting.factor_coverage"] = ratio(
        sum(1 for c in factors if "error" not in c), sum(s.get("n", 0) for s in partitions))

    deletes = get("graph.delete_vertex")
    m["graph.delete_vertex.calls"] = len(deletes)
    m["graph.delete_vertex.busy_s"] = sum(map(_dur, deletes))
    m["graph.gen_graph.busy_s"] = sum(map(_dur, get("graph.gen_graph")))

    saws = get("sawtree.saw_counts")
    walks = sum(s.get("walks", 0) for s in saws)
    busy = sum(map(_dur, saws))
    m["sawtree.saw_counts.calls"] = len(saws)
    m["sawtree.saw_counts.walks"] = walks
    m["sawtree.saw_counts.busy_s"] = busy
    m["sawtree.saw_counts.walks_per_s"] = ratio(walks, busy)
    m["connconst.conn_profile.self_s"] = sum(selfs[s["id"]] for s in get("connconst.conn_profile"))

    autos = get("connconst.automaton")
    raw = sum(s.get("states_raw", 0) for s in autos)
    busy = sum(map(_dur, autos))
    m["connconst.automaton.busy_s"] = busy
    m["connconst.automaton.states_raw"] = raw
    m["connconst.automaton.states_merged"] = sum(s.get("states_merged", 0) for s in autos)
    m["connconst.automaton.states_per_s"] = ratio(raw, busy)
    m["connconst.automaton.peak_rss_mb"] = _pct([s["rss_mb"] for s in autos if "rss_mb" in s], max)
    spectral = get("connconst.spectral")
    m["connconst.spectral.busy_s"] = sum(map(_dur, spectral))
    spectral_ids = {s["id"] for s in spectral}
    m["connconst.spectral.matvecs"] = sum(
        1 for s in get("connconst.matvec") if s["parent"] in spectral_ids)

    for span_name in absent:
        prefix = _NEEDS[span_name]
        for key in m:
            if key.startswith(prefix):
                m[key] = None
    return m


def trace_rows(spans) -> list:
    """One row per sandwich pass (depth, nodes, width) and one per
    telescope factor, in call order."""
    by_id = {s["id"]: s for s in spans}
    rows = []
    factor_index = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if s["name"] == "recurrence.sandwich":
            rows.append({"kind": "depth", "op": s["op"], "model": s.get("model"),
                         "depth": s.get("depth"), "nodes": s.get("nodes"),
                         "width": s.get("width"), "error": s.get("error"),
                         "caller": parent["name"] if parent else None})
        elif s["name"] == "recurrence.adaptive" and parent and parent["name"] == "counting.partition":
            i = factor_index[parent["id"]] = factor_index.get(parent["id"], -1) + 1
            rows.append({"kind": "factor", "op": s["op"], "index": i, "n": s.get("n"),
                         "tol": s.get("tol"), "depth": s.get("depth"), "nodes": s.get("nodes"),
                         "width": s.get("width"), "seconds": _dur(s), "error": s.get("error")})
    return rows
