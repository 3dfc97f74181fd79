"""The benchmark's workloads: inputs made from the seed, the ops run on
them, and the check of every answer against its reference.

Every op calls the public API through its module attribute
(``recurrence.sandwich_values``, ``counting.partition_md``, ...), looked up
at call time, so the timing wrappers of layers.py see the calls.

How the seed enters.  The driver compares medians over many seeds, so the
work of a run must not depend on which inputs the seed draws.  Drawing
fresh gnp graphs does: at depth 12 one gnp(2000, 3) vertex costs 0.2M
tree nodes and another 1.6M, and the telescope on gnp(50, 3, s) costs
0.3 s at some s and exhausts its budget at s = 5 and s = 12.  So the
`marginal` and `growth` graphs are the default-seed graph with its vertices
relabelled by a seed-drawn permutation.  That leaves every answer, and the
work of the monomer-dimer and SAW-count walks, unchanged (only the
hard-core pins, which follow vertex ids, move).  The telescope deletes
vertices in id order, so relabelling would change its work too: the
`partition` graphs are fixed and the seed draws the hard-core graph that
the oracle checks.  `readme` draws gnp(200, 3, seed) as the README does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from sawcount import connconst, counting, graph, recurrence
from sawcount.connconst import PowerIterationError, StateCapError
from sawcount.recurrence import AdaptiveBudgetError
from sawcount.sawtree import NodeBudgetError

DEFAULT_SEED = 1
REFERENCES = Path(__file__).resolve().parent / "references.json"

# errors an op may end with when a budget or cap runs out: a failed op
BUDGET_ERRORS = (AdaptiveBudgetError, NodeBudgetError, StateCapError, PowerIterationError)

MARGINAL_GRAPH = {"kind": "gnp", "n": 2000, "d": 3.0, "seed": DEFAULT_SEED}
MARGINAL_DEPTH = 12
MODELS = (("md", recurrence.MONOMERDIMER, 1.0), ("hc", recurrence.HARDCORE, 0.5))

PARTITION_EPS = 0.01
PARTITION_GRAPHS = (
    ("gnp50-s1", {"kind": "gnp", "n": 50, "d": 3.0, "seed": 1}),
    ("gnp50-s2", {"kind": "gnp", "n": 50, "d": 3.0, "seed": 2}),
    ("gnp50-s3", {"kind": "gnp", "n": 50, "d": 3.0, "seed": 3}),
    ("gnp50-s4", {"kind": "gnp", "n": 50, "d": 3.0, "seed": 4}),
    ("grid5x5", {"kind": "grid", "width": 5, "height": 5}),
    ("grid6x6", {"kind": "grid", "width": 6, "height": 6}),
)
ORACLE_GRAPHS = ("grid5x5",)  # small enough for oracle_Z under both models

GROWTH_MEMORIES = (14, 16)
GROWTH_LMAX = 12
GROWTH_ROOTS = 20
EIGENVALUE_TOL = 1e-6

README_N = 200


@dataclass
class Outcome:
    """What one op returned: its certified output and the work it reports."""

    lo: float | None = None
    hi: float | None = None
    value: float | None = None
    depth: int | None = None
    nodes: int | None = None
    converged: bool = False
    error: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    accurate: bool  # the certificate meets the requested accuracy
    agrees: bool  # the answer agrees with its reference
    note: str = ""


@dataclass
class Op:
    name: str
    call: Callable[[], Outcome]
    check: Callable[[Outcome], Verdict]


def outcome_of_error(exc: BaseException) -> Outcome:
    """The partial result a budget or cap error carries."""
    return Outcome(
        lo=getattr(exc, "lo", None),
        hi=getattr(exc, "hi", None),
        depth=getattr(exc, "depth", None),
        nodes=getattr(exc, "nodes_expanded", None),
        error=f"{type(exc).__name__}: {exc}",
    )


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def make_graph(spec: dict):
    params = dict(spec)
    kind = params.pop("kind")
    seed = params.pop("seed", 0)
    return graph.gen_graph(kind, seed=seed, **params)


def relabeling(n: int, seed: int) -> list:
    """Vertex permutation drawn from the seed; identity at the default seed."""
    if seed == DEFAULT_SEED:
        return list(range(n))
    return [int(x) for x in np.random.default_rng(seed).permutation(n)]


def relabel(g, perm):
    return graph.graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _overlaps(out: Outcome, ref) -> bool:
    """The answer's interval meets the reference interval (both certified,
    so a correct program can never return one disjoint from the other)."""
    if ref is None or out.lo is None:
        return True
    return max(out.lo, ref[0]) <= min(out.hi, ref[1])


def _contains(out: Outcome, exact: float) -> bool:
    return out.lo is None or out.lo <= exact <= out.hi


def _partition_check(ref=None, exact=None):
    def check(out: Outcome) -> Verdict:
        accurate = (
            out.lo is not None
            and 0 < out.lo <= out.hi
            and math.log(out.hi) - math.log(out.lo) <= PARTITION_EPS
        )
        if exact is not None:
            return Verdict(accurate, _contains(out, exact), f"oracle {exact!r}")
        if ref is not None:
            return Verdict(accurate, _overlaps(out, ref), f"frozen {ref}")
        return Verdict(accurate, True, "no reference")

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _marginal(seed: int, refs: dict) -> list:
    base = make_graph(MARGINAL_GRAPH)
    perm = relabeling(base.n, seed)
    g = relabel(base, perm)
    ops = []
    for entry in refs["marginal"]:
        v = perm[entry["vertex"]]
        ref = (entry["lo"], entry["hi"])

        def call(v=v, model=entry["model"], act=entry["activity"]):
            pairs, nodes, _ = recurrence.sandwich_values(g, v, model, [act], MARGINAL_DEPTH)
            lo, hi = pairs[0]
            return Outcome(lo, hi, 0.5 * (lo + hi), MARGINAL_DEPTH, nodes, True)

        def check(out, ref=ref):
            # a fixed-depth op requests no width: any ordered interval is accurate
            return Verdict(out.lo <= out.hi, _overlaps(out, ref), f"frozen {list(ref)}")

        ops.append(Op(f"{entry['name']} v{entry['vertex']} depth={MARGINAL_DEPTH}", call, check))
    return ops


def _partition_op(name, fn_name, g, activity, check):
    def call():
        res = getattr(counting, fn_name)(g, activity, eps=PARTITION_EPS)
        return Outcome(res.lo, res.hi, res.value, res.depth_max_used, res.nodes_expanded, res.converged)

    return Op(name, call, check)


def _partition(seed: int, refs: dict) -> list:
    frozen = refs["partition"]
    ops = []
    for gname, spec in PARTITION_GRAPHS:
        g = make_graph(spec)
        for short, model, act in MODELS:
            name = f"{short}-count {gname}"
            if gname in ORACLE_GRAPHS:
                exact = counting.oracle_Z(g, recurrence.ModelParams(model, act))
                check = _partition_check(exact=exact)
            else:
                check = _partition_check(ref=frozen[name])
            ops.append(_partition_op(name, f"partition_{short}", g, act, check))
    g = make_graph({"kind": "gnp", "n": 26, "d": 3.0, "seed": seed})
    exact = counting.oracle_Z(g, recurrence.hardcore(0.5))
    ops.append(_partition_op(f"hc-count gnp26-s{seed}", "partition_hc", g, 0.5,
                             _partition_check(exact=exact)))
    return ops


def _growth(seed: int, refs: dict) -> list:
    ref = refs["growth"]
    ops = []
    for memory in GROWTH_MEMORIES:
        zref = ref["z2"][str(memory)]

        def call(memory=memory):
            m = connconst.z2_branching_matrix(memory, ordering=connconst.RELATIVE,
                                              pruning=connconst.PRUNE_WEITZ)
            ev = connconst.spectral_bound(m)
            return Outcome(value=ev, depth=memory, nodes=m.states_raw, converged=True,
                           extra={"states_raw": m.states_raw, "states_merged": m.k})

        def check(out, zref=zref):
            agrees = (
                out.extra.get("states_raw") == zref["states_raw"]
                and out.extra.get("states_merged") == zref["states_merged"]
                and abs(out.value - zref["eigenvalue"]) <= EIGENVALUE_TOL
            )
            return Verdict(True, agrees, f"frozen {zref}")

        ops.append(Op(f"z2-branching L={memory} relative weitz", call, check))

    base = make_graph(MARGINAL_GRAPH)
    perm = relabeling(base.n, seed)
    g = relabel(base, perm)
    roots = [perm[v] for v in ref["conn_profile"]["roots"]]
    cumulative = ref["conn_profile"]["cumulative"]

    def call_conn():
        p = connconst.conn_profile(g, GROWTH_LMAX, roots=roots)
        return Outcome(value=p.estimates[-1], depth=GROWTH_LMAX, nodes=p.cumulative[-1],
                       converged=p.complete, extra={"cumulative": p.cumulative})

    def check_conn(out):
        return Verdict(True, out.extra.get("cumulative") == cumulative, "frozen cumulative counts")

    ops.append(Op(f"conn-const lmax={GROWTH_LMAX} roots={GROWTH_ROOTS}", call_conn, check_conn))
    return ops


def _readme(seed: int, refs: dict) -> list:
    g = make_graph({"kind": "gnp", "n": README_N, "d": 3.0, "seed": seed})
    frozen = refs["readme"] if seed == DEFAULT_SEED else {}
    tol = 1e-6

    def call_marginal():
        res = recurrence.marginal_adaptive(g, 0, recurrence.monomerdimer(1.0), tol=tol)
        return Outcome(res.lo, res.hi, res.value, res.depth_max_used, res.nodes_expanded, True)

    def check_marginal(out):
        ref = frozen.get("md-marginal v0")
        return Verdict(out.hi - out.lo <= 2.0 * tol, _overlaps(out, ref),
                       f"frozen {ref}" if ref else "no reference")

    return [
        Op("md-marginal v0", call_marginal, check_marginal),
        _partition_op("md-count", "partition_md", g, 1.0,
                      _partition_check(ref=frozen.get("md-count"))),
        _partition_op("hc-count", "partition_hc", g, 0.5,
                      _partition_check(ref=frozen.get("hc-count"))),
    ]


BUILDERS = {"marginal": _marginal, "partition": _partition, "growth": _growth, "readme": _readme}


def build(workload: str, seed: int) -> list:
    """Generate the inputs and references of a workload; return its ops."""
    return BUILDERS[workload](seed, load_references())
