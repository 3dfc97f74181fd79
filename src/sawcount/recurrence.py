"""Tree recurrences on SAW trees, exact and truncated with certified intervals.

Hard-core occupation ratios satisfy, at a node with child ratios R_i,

    R = lambda * prod_i 1 / (1 + R_i)

with leaf value lambda; a child pinned occupied forces R = 0 and a child
pinned unoccupied contributes a factor of 1 (equivalently R_i = 0).
Monomer probabilities satisfy

    p = 1 / (1 + gamma * sum_i p_i)

with leaf value 1.  Both recurrences are monotone decreasing in every
argument, so pinning all truncated-frontier nodes to the two extreme
values (0 and lambda, resp. 0 and 1) yields two evaluations that bracket
the exact tree value regardless of the truncation parity.  That sandwich
is the sole soundness certificate used here: no decay assumption enters.

One depth-first walker serves both models.  It fuses tree expansion
with evaluation (no nodes are materialized) and computes both extreme
evaluations for several activity values in a single pass.  Per model it
differs only in the neighbors it skips, its leaf and frontier values and
its fold: a product of 1/(1 + R_i) for hard-core, a sum of p_i closed by
1/(1 + gamma*sum) for monomer-dimer.  The materialized trees of
`expand_saw_tree` with `eval_hc`/`eval_md` are the reference
implementation the walker is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph
from .sawtree import (
    OCCUPIED,
    PLAIN,
    UNOCCUPIED,
    WEITZ,
    BoundaryCondition,
    NodeBudgetError,
    SawTree,
    loop_copy_occupied,
)

HARDCORE = "hardcore"
MONOMERDIMER = "monomerdimer"

ALL_ZERO = "all_zero"
ALL_MAX = "all_max"


@dataclass(frozen=True)
class ModelParams:
    """Model selector: hard-core activity lambda or dimer activity gamma."""

    model: str
    activity: float

    def __post_init__(self):
        if self.model not in (HARDCORE, MONOMERDIMER):
            raise ValueError(f"unknown model {self.model!r}")
        if not self.activity > 0:
            raise ValueError("activity must be positive")


def hardcore(lam: float) -> ModelParams:
    return ModelParams(HARDCORE, lam)


def monomerdimer(gamma: float) -> ModelParams:
    return ModelParams(MONOMERDIMER, gamma)


@dataclass
class ApproxResult:
    """A value with a certified enclosing interval and the work performed.

    A partition function that ran out of budget (converged False) names
    in failed_vertex the graph vertex whose factor exhausted it.
    """

    value: float
    lo: float
    hi: float
    eps_requested: float
    depth_max_used: int
    nodes_expanded: int
    converged: bool = True
    log_value: float | None = None
    advisory: object = None
    failed_vertex: int | None = None

    def width(self) -> float:
        return self.hi - self.lo


class AdaptiveBudgetError(RuntimeError):
    """Adaptive evaluation ran out of node budget before reaching tolerance.

    Carries the best certified interval found so far.
    """

    def __init__(self, lo: float, hi: float, depth: int, nodes: int):
        super().__init__(
            f"budget exhausted at depth {depth} after {nodes} nodes; "
            f"best interval [{lo:.6g}, {hi:.6g}]"
        )
        self.lo = lo
        self.hi = hi
        self.depth = depth
        self.nodes_expanded = nodes


# ---------------------------------------------------------------------------
# Fused sandwich evaluation (no tree materialization)
# ---------------------------------------------------------------------------


def sandwich_values(
    g: Graph,
    v: int,
    model: str,
    activities,
    depth: int,
    boundary: BoundaryCondition | None = None,
    budget: int = 10**7,
):
    """Evaluate the truncated recurrence under both extreme frontier pins.

    Returns (pairs, nodes, truncated) where pairs[i] = (lo, hi) brackets
    the exact marginal for activities[i] (ratio R_v for hard-core, monomer
    probability for monomer-dimer), nodes is the number of tree nodes
    visited and truncated says whether any frontier node was pinned
    (False means the tree was fully expanded, so lo == hi).

    All activities share one depth-first pass over the implicit SAW tree,
    in weitz mode for hard-core and plain mode for monomer-dimer.  The
    per-child combination order is the ascending-id child order, so
    results are bit-reproducible.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be positive")
    acts = [float(a) for a in activities]
    for a in acts:
        if not a > 0:
            raise ValueError("activity must be positive")
    if model not in (HARDCORE, MONOMERDIMER):
        raise ValueError(f"unknown model {model!r}")
    if model == MONOMERDIMER and boundary is not None:
        raise ValueError("boundary conditions apply to hard-core only")
    return _sandwich(g, v, model, acts, depth, boundary, budget)


def _fold_hc(acc, ratios):
    # hard-core: a child with ratio R multiplies its parent by 1/(1 + R)
    for j, r in enumerate(ratios):
        acc[j] *= 1.0 / (1.0 + r)


def _fold_md(acc, probs):
    # monomer-dimer: child probabilities sum until the parent is popped
    for j, p in enumerate(probs):
        acc[j] += p


def _sandwich(g, root, model, acts, max_depth, boundary, budget):
    """The depth-first walker behind sandwich_values.

    Each tree node carries one accumulator holding the (lo, hi)
    evaluations of every activity, interleaved.  The models differ in
    three places only:

      skipped neighbors -- the plain tree skips every vertex on the root
          path; the weitz tree skips only the parent and turns any other
          path vertex into a loop copy pinned by `loop_copy_occupied`.
      leaf and frontier values -- an exact leaf is lambda (resp. 1) and a
          truncated frontier node is pinned to (0, lambda) (resp. (0, 1)).
      fold -- hard-core starts a node at lambda and multiplies in
          1/(1 + R) per child; monomer-dimer sums the child values and
          takes 1/(1 + gamma*sum) when the node is popped.

    A child without extensions is pushed like any other and pops with
    exactly its leaf value; only frontier children test for extensions.
    """
    adj = g.adjacency
    hc = model == HARDCORE
    occ = blocked = frozenset()
    if boundary is not None:
        boundary.validate(g)
        if root in boundary.assignments:
            raise ValueError("boundary must not pin the root vertex")
        occ = boundary.occupied()
        # pinned unoccupied, or forced unoccupied by an occupied neighbor
        blocked = boundary.unoccupied() | {u for w in occ for u in adj[w]}
    tops = acts if hc else [1.0] * len(acts)
    if root in blocked:
        return [(0.0, 0.0)] * len(acts), 1, False
    if not adj[root]:
        return [(t, t) for t in tops], 1, False
    if max_depth == 0:
        return [(0.0, t) for t in tops], 1, True

    leaf = [x for t in tops for x in (t, t)]
    pin = [x for t in tops for x in (0.0, t)]
    gammas = [x for a in acts for x in (a, a)]
    m = len(leaf)
    start = leaf if hc else [0.0] * m
    fold = _fold_hc if hc else _fold_md
    nodes = 1
    truncated = False
    path = [root]
    path_pos = {root: 0}
    # frame: [vertex, parent, depth, accumulator, neighbor tuple, next index]
    stack = [[root, -1, 0, list(start), adj[root], 0]]
    while True:
        fr = stack[-1]
        vtx, parent, dep, acc, nbrs, i = fr
        dead = False
        while i < len(nbrs):
            w = nbrs[i]
            i += 1
            if w == parent:
                continue
            pos = path_pos.get(w)
            if pos is not None and not hc:
                continue
            nodes += 1
            if nodes > budget:
                raise NodeBudgetError(nodes)
            if pos is not None:
                # path vertices are never pinned, so the loop rule decides;
                # an occupied child zeroes the node and ends its scan
                dead = loop_copy_occupied(path, pos, vtx)
                if dead:
                    break
                continue
            if w in occ:
                dead = True
                break
            if w in blocked:
                continue  # unoccupied child: factor 1
            if dep + 1 < max_depth:
                fr[5] = i
                stack.append([w, vtx, dep + 1, list(start), adj[w], 0])
                path_pos[w] = len(path)
                path.append(w)
                break
            ext = len(adj[w]) > 1 if hc else any(x not in path_pos for x in adj[w])
            truncated = truncated or ext
            fold(acc, pin if ext else leaf)
        if stack[-1] is not fr:
            continue  # descended into a child
        stack.pop()
        if not hc:
            value = [1.0 / (1.0 + gam * x) for gam, x in zip(gammas, acc)]
        else:
            value = [0.0] * m if dead else acc
        if not stack:
            break
        path.pop()
        del path_pos[vtx]
        fold(stack[-1][3], value)

    pairs = [(a, b) if a <= b else (b, a) for a, b in zip(value[::2], value[1::2])]
    return pairs, nodes, truncated


# ---------------------------------------------------------------------------
# Evaluation of materialized trees
# ---------------------------------------------------------------------------


def _init_value(init: str, bmax: float) -> float:
    if init == ALL_ZERO:
        return 0.0
    if init == ALL_MAX:
        return bmax
    raise ValueError(f"unknown initial condition {init!r}")


def eval_hc(tree: SawTree, lam: float, init: str = ALL_MAX) -> float:
    """Occupation ratio at the root of a weitz-mode tree.

    Frontier nodes take the initial-condition value (0 or lambda); other
    leaves take lambda; pinned-unoccupied nodes evaluate to 0 and a
    pinned-occupied child zeroes its parent.
    """
    if tree.mode != WEITZ:
        raise ValueError("eval_hc needs a weitz-mode tree")
    if not lam > 0:
        raise ValueError("lambda must be positive")
    finit = _init_value(init, lam)

    def val(node):
        if node.fix == UNOCCUPIED:
            return 0.0
        if node.is_frontier:
            return finit
        if not node.children:
            return lam
        prod = lam
        for c in node.children:
            if c.fix == OCCUPIED:
                return 0.0
            prod *= 1.0 / (1.0 + val(c))
        return prod

    return val(tree.root)


def eval_md(tree: SawTree, gamma: float, init: str = ALL_MAX) -> float:
    """Monomer probability at the root of a plain-mode tree."""
    if tree.mode != PLAIN:
        raise ValueError("eval_md needs a plain-mode tree")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    finit = _init_value(init, 1.0)

    def val(node):
        if node.is_frontier:
            return finit
        if not node.children:
            return 1.0
        return 1.0 / (1.0 + gamma * sum(val(c) for c in node.children))

    return val(tree.root)


# ---------------------------------------------------------------------------
# Certified marginals
# ---------------------------------------------------------------------------


def dary_md_gaps(d: int, gamma: float, max_depth: int) -> list:
    """Sandwich gaps |F(0_l) - F(1_l)| at the root of the full d-ary tree.

    On the d-ary tree the monomer recurrence collapses by symmetry to the
    scalar iteration x -> 1/(1 + gamma*d*x), so the depth-l gap is
    computable without materializing the d**l nodes.  Entry l of the
    returned list is the gap for truncation depth l (entry 0 is 1, the
    width of the trivial pin).  Cross-checked against the full evaluator
    on small trees in the test suite.
    """
    if d < 1 or max_depth < 0 or not gamma > 0:
        raise ValueError("need d >= 1, max_depth >= 0, gamma > 0")
    a, b = 0.0, 1.0
    gaps = [1.0]
    for _ in range(max_depth):
        a, b = 1.0 / (1.0 + gamma * d * a), 1.0 / (1.0 + gamma * d * b)
        gaps.append(abs(a - b))
    return gaps


def dary_md_depth_for_tol(d: int, gamma: float, tol: float, depth_cap: int = 10**5) -> int:
    """Smallest truncation depth with d-ary-tree sandwich gap <= 2*tol."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    a, b = 0.0, 1.0
    depth = 0
    while abs(a - b) > 2.0 * tol:
        a, b = 1.0 / (1.0 + gamma * d * a), 1.0 / (1.0 + gamma * d * b)
        depth += 1
        if depth > depth_cap:
            raise ArithmeticError("gap did not reach tolerance")
    return depth


def marginal_interval(
    g: Graph,
    v: int,
    params: ModelParams,
    boundary: BoundaryCondition | None = None,
    depth: int = 0,
    budget: int = 10**7,
) -> tuple[float, float]:
    """Certified bracket for the marginal at v from a depth-`depth` tree.

    For hard-core the bracketed quantity is the occupation ratio R_v; for
    monomer-dimer it is the monomer probability p_v.  The bracket is the
    (min, max) of the two extreme-initial-condition evaluations, sound for
    either truncation parity.
    """
    pairs, _, _ = sandwich_values(
        g, v, params.model, [params.activity], depth, boundary, budget
    )
    return pairs[0]


def marginal_adaptive(
    g: Graph,
    v: int,
    params: ModelParams,
    boundary: BoundaryCondition | None = None,
    tol: float = 1e-6,
    budget: int = 10**7,
) -> ApproxResult:
    """Certified marginal to additive tolerance `tol` by adaptive deepening.

    Deepens the truncation along the predicted depth schedule of
    `_adaptive` until the sandwich width is at most 2*tol or the tree is
    fully expanded, then returns the interval midpoint.  The certificate
    is the sandwich property alone.  Raises AdaptiveBudgetError (carrying
    the best interval found) if the node budget runs out first.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi, depth, nodes = _adaptive(
        g, v, params, lambda a, b: b - a, 2.0 * tol, boundary, budget
    )
    return ApproxResult(
        value=0.5 * (lo + hi),
        lo=lo,
        hi=hi,
        eps_requested=tol,
        depth_max_used=depth,
        nodes_expanded=nodes,
    )


def _adaptive(g, v, params, measure, target, boundary, budget):
    """Deepen the sandwich at v until measure(lo, hi) <= target or the tree
    is fully expanded; returns (lo, hi, depth, nodes expanded in total).

    After each truncated pass the per-level contraction of the measure is
    fitted from the last two passes, rate = (w / w_prev)**(1/depth step),
    and the depth steps by the number of levels that rate predicts are
    still needed, ceil(log(target/w) / log(rate)).  The step is at least 1
    and at most the current depth (never more than doubling), and it is
    cut so that the next pass, extrapolated from the node growth of the
    last two passes, fits in what is left of the budget.  Without a usable
    rate (a measure that is infinite or did not shrink) the depth steps
    by 1.  Raises AdaptiveBudgetError with the best (smallest-measure)
    interval found if the budget runs out first.
    """
    bmax = params.activity if params.model == HARDCORE else 1.0
    best = (0.0, bmax, 0)
    best_w = math.inf
    total = 0
    depth = 0
    prev = None  # (depth, measure, nodes) of the previous pass
    while True:
        remaining = budget - total
        if remaining <= 0:
            raise AdaptiveBudgetError(*best, total)
        try:
            pairs, nodes, truncated = sandwich_values(
                g, v, params.model, [params.activity], depth, boundary,
                remaining,
            )
        except NodeBudgetError as exc:
            raise AdaptiveBudgetError(*best, total + exc.nodes_expanded)
        total += nodes
        lo, hi = pairs[0]
        w = measure(lo, hi)
        if w < best_w:
            best, best_w = (lo, hi, depth), w
        if w <= target or not truncated:
            return lo, hi, depth, total
        step = 1
        # a pass that did not stop measured above target, so with target > 0
        # the ratio is defined; an infinite measure gives no usable rate
        if prev is not None and target > 0 and 0.0 < w / prev[1] < 1.0:
            levels = depth - prev[0]
            per_level = math.log(w / prev[1]) / levels
            step = max(1, min(depth, math.ceil(math.log(target / w) / per_level)))
            growth = math.log(nodes / prev[2]) / levels
            left = budget - total
            if growth > 0 and left > 0:
                step = max(1, min(step, int(math.log(left / nodes) / growth)))
        prev = (depth, w, nodes)
        depth += step
