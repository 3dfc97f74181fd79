"""Recompute perfbench/references.json at the default seed.

    python3 perfbench/freeze_references.py > perfbench/references.json

The frozen answers are the program's own certified outputs at the commit
that froze them.  Regenerate them only when an answer is meant to change,
and say in the change which values moved and why: the file is what keeps a
speed-up from quietly changing an answer.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from sawcount import connconst, counting, recurrence  # noqa: E402

MARGINAL_VERTICES = 4


def giant_component(g) -> list:
    seen = [False] * g.n
    best = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = [s], [s]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        if len(comp) > len(best):
            best = comp
    return sorted(best)


def marginal_refs() -> list:
    g = wl.make_graph(wl.MARGINAL_GRAPH)
    rng = np.random.default_rng(wl.DEFAULT_SEED)
    vertices = sorted(int(v) for v in rng.choice(giant_component(g), MARGINAL_VERTICES, replace=False))
    out = []
    for v in vertices:
        for short, model, act in wl.MODELS:
            pairs, _, _ = recurrence.sandwich_values(g, v, model, [act], wl.MARGINAL_DEPTH)
            out.append({"name": f"{short}-marginal", "vertex": v, "model": model,
                        "activity": act, "lo": pairs[0][0], "hi": pairs[0][1]})
    return out


def certified_interval(res):
    return [res.lo, res.hi] if res.converged else None


def partition_refs() -> dict:
    out = {}
    for gname, spec in wl.PARTITION_GRAPHS:
        if gname in wl.ORACLE_GRAPHS:
            continue
        g = wl.make_graph(spec)
        for short, _, act in wl.MODELS:
            fn = getattr(counting, f"partition_{short}")
            out[f"{short}-count {gname}"] = certified_interval(fn(g, act, eps=wl.PARTITION_EPS))
    return out


def growth_refs() -> dict:
    z2 = {}
    for memory in wl.GROWTH_MEMORIES:
        m = connconst.z2_branching_matrix(memory, ordering=connconst.RELATIVE,
                                          pruning=connconst.PRUNE_WEITZ)
        z2[str(memory)] = {"states_raw": m.states_raw, "states_merged": m.k,
                           "eigenvalue": connconst.spectral_bound(m)}
    g = wl.make_graph(wl.MARGINAL_GRAPH)
    roots = connconst.sample_roots(g, wl.GROWTH_ROOTS, seed=wl.DEFAULT_SEED)
    profile = connconst.conn_profile(g, wl.GROWTH_LMAX, roots=roots)
    return {"z2": z2, "conn_profile": {"roots": roots, "cumulative": profile.cumulative}}


def readme_refs() -> dict:
    """Certified readme answers at the default seed; ops that fail there
    get no reference (their partial intervals are then only self-checked)."""
    out = {}
    for op in wl.BUILDERS["readme"](wl.DEFAULT_SEED, {"readme": {}}):
        try:
            res = op.call()
        except wl.BUDGET_ERRORS:
            continue
        if res.converged and op.check(res).accurate:
            out[op.name] = [res.lo, res.hi]
    return out


def main():
    refs = {
        "marginal": marginal_refs(),
        "partition": partition_refs(),
        "growth": growth_refs(),
        "readme": readme_refs(),
    }
    json.dump(refs, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
