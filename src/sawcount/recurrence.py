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
evaluations of one activity value in a single pass.  Per model it
differs only in its loop copies (hard-core pins the path vertices it
meets, which are no nodes in either model), its leaf and frontier
values and its fold: a product of 1/(1 + R_i) for hard-core, a sum of
p_i closed by 1/(1 + gamma*sum) for monomer-dimer; one rule finds the
exact leaves of both.  The last tree level, about two thirds of a
truncated tree's nodes, is counted in bulk: a node one level above the
frontier is never pushed; its children are counted as exact leaves or
truncated frontier nodes, and its pair is read off one linear
table by those two counts (`_leaf_table`), bit for bit what folding them
one by one gives.  The walkers return the root's pair as walked, and
`sandwich_values` orders it into (lo, hi).  The materialized trees of
`expand_saw_tree` with `eval_hc`/`eval_md` are the reference
implementation the walker is tested against.

Trees of more than `_CAP` nodes go to a block walker, which applies
the same rules to up to `_BLOCK` nodes of one depth at a time with numpy
array operations, as `sawtree.saw_counts` does for walk counts, and
gives the same values, node counts and budget errors bit for bit.  Its
pending blocks wait on a LIFO stack that holds at most one block's
children per depth, so its memory stays within
O(depth**2 * _BLOCK * max degree) entries beside the temporaries of one
block's scan.  A numpy pass costs a fixed 100-200 us per block, more
than a small tree takes depth-first, so the depth-first walker stays for
the small trees, which are most calls of a telescope.  It also takes
every tree of depth 0 or 1, a single scan of the root's neighbors, and
truncations deeper than `_BLOCK_DEPTH`, such as a full expansion of a
long path: a deep thin tree holds a few nodes per block, and the block
walker's path arrays grow with the square of its depth.  A tree's size
is known only once it is walked: a depth-first pass that runs past
`_CAP` nodes is thrown away and the tree walked again on blocks, unless
the caller expects it above the cap.  `_adaptive` extrapolates each
pass's node count from its last two passes and sends a pass it expects
above `_CAP` straight to the block walker.  Every walk runs in the
calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

_CAP = 2048  # nodes a depth-first pass may visit before the block walker takes over
_BLOCK = 1024  # rows per block of tree nodes in the block walker
_BLOCK_DEPTH = 64  # the deepest truncation the block walker takes


@dataclass(frozen=True)
class ModelParams:
    """Model selector: hard-core activity lambda or dimer activity gamma."""

    model: str
    activity: float

    def __post_init__(self):
        if self.model not in (HARDCORE, MONOMERDIMER):
            raise ValueError(f"unknown model {self.model!r}")
        if not (math.isfinite(self.activity) and self.activity > 0):
            raise ValueError("activity must be positive and finite")


def hardcore(lam: float) -> ModelParams:
    return ModelParams(HARDCORE, lam)


def monomerdimer(gamma: float) -> ModelParams:
    return ModelParams(MONOMERDIMER, gamma)


@dataclass
class ApproxResult:
    """A value with a certified enclosing interval and the work performed.

    A partition function that ran out of budget (converged False) names
    in failed_vertex the graph vertex whose factor exhausted it.  It also
    carries its certificate in log space, log_lo <= log Z <= log_hi;
    value, lo and hi are their exponentials (value that of log_value),
    inf where that overflows the float range (a log above 709.78).
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
    log_lo: float | None = None
    log_hi: float | None = None


class AdaptiveBudgetError(RuntimeError):
    """Adaptive evaluation ran out of node budget before reaching tolerance.

    Carries the certified interval of the last pass that completed (the
    a-priori range when none did): sandwich intervals nest as the depth
    grows, so it is the narrowest one found.
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
    blocked: set | frozenset = frozenset(),
    *,
    expected_nodes: float | None = None,
):
    """Evaluate the truncated recurrence under both extreme frontier pins.

    Returns (pairs, nodes, truncated) where pairs[i] = (lo, hi) brackets
    the exact marginal for activities[i] (ratio R_v for hard-core, monomer
    probability for monomer-dimer), nodes is the number of self-avoiding
    walks visited and truncated says whether some pair is not exact
    (lo != hi).  A fully expanded tree gives exact pairs, but so can a
    truncated hard-core tree whose every frontier pin sits under an
    occupied loop copy.

    `blocked` is a set of vertices deleted from g, ids unchanged: the
    marginal is that of g minus blocked.  Blocked = deleted, in both
    models: no walker steps onto a blocked vertex, which for hard-core
    gives the value of pinning it unoccupied.  The root must not be
    blocked or pinned; a root that an occupied pin forces unoccupied gets
    (0.0, 0.0) per activity at 1 node, without a walk.

    A loop copy carries no walk, so it is no node: unoccupied it
    multiplies its parent by exactly 1, and occupied it zeroes its parent,
    whose scan stops there, so the siblings after it are not visited.  So
    nodes equals `SawTree.nodes_expanded` of the plain tree for
    monomer-dimer.  For hard-core it counts the free nodes of the weitz
    tree that this stop rule reaches, which is at most the monomer-dimer
    count; `SawTree.nodes_expanded` also counts the loop copies, the
    siblings after an occupied one and the leaves of blocked vertices.

    Each activity takes one pass over the implicit SAW tree, in weitz
    mode for hard-core and plain mode for monomer-dimer; nodes does not
    depend on the activity.  The first pass is depth-first with its
    budget capped at `_CAP` nodes, unless depth is at most 1 (one scan of
    the root's neighbors, whatever its degree) or exceeds `_BLOCK_DEPTH`.
    If the tree is larger and the budget allows it, that pass is
    repeated, and the other activities walked, by the block walker, at a
    waste of `_CAP` nodes of work.  `expected_nodes`, the caller's
    estimate of the node count, saves it: one above `_CAP` sends the
    first pass straight to the block walker with the full budget when
    the cap would apply (2 <= depth <= `_BLOCK_DEPTH` and budget above
    `_CAP`).  The hint chooses the walker only, never an output.
    Both walkers combine children in ascending-id order with the same
    float operations, so results are bit-reproducible and do not depend
    on the walker.  Each walker reads the activity's `_leaf_table`, built
    here once, and returns the root's (x0, x1) as walked, ordered here,
    and the node count.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if budget <= 0:
        raise ValueError("budget must be positive")
    acts = [float(a) for a in activities]
    if not acts:
        raise ValueError("need at least one activity")
    for a in acts:
        ModelParams(model, a)
    if blocked and (min(blocked) < 0 or max(blocked) >= g.n):
        raise ValueError("blocked vertex out of range")
    if v in blocked:
        raise ValueError("the root vertex must not be blocked")
    if boundary is not None:
        if model == MONOMERDIMER:
            raise ValueError("boundary conditions apply to hard-core only")
        boundary.validate(g)
        if v in boundary.assignments:
            raise ValueError("boundary must not pin the root vertex")
        blocked = boundary.blocked(g) | blocked
        if v in blocked:
            # an occupied neighbor forces the root unoccupied: R_v = 0
            return [(0.0, 0.0)] * len(acts), 1, False
    hc = model == HARDCORE
    size = int(g.csr.deg.max()) + 1
    table = _leaf_table(hc, acts[0], size)
    cap = budget if depth <= 1 or depth > _BLOCK_DEPTH else min(budget, _CAP)
    walk = _sandwich
    if cap < budget and expected_nodes is not None and expected_nodes > _CAP:
        walk, cap = _sandwich_blocks, budget
    try:
        first = walk(g, v, model, acts[0], depth, blocked, cap, table)
    except NodeBudgetError:
        if cap == budget:
            raise
        walk = _sandwich_blocks
        first = walk(g, v, model, acts[0], depth, blocked, budget, table)
    pairs = [first[0]] + [walk(g, v, model, a, depth, blocked, budget, _leaf_table(hc, a, size))[0]
                          for a in acts[1:]]
    # x0 and x1 swap the roles of lower and upper bound with depth parity
    pairs = [(x0, x1) if x0 <= x1 else (x1, x0) for x0, x1 in pairs]
    return pairs, first[1], any(lo != hi for lo, hi in pairs)


def _leaf_table(hc, a, size):
    """The values of a node whose i children are all at their maximum,
    for i < size: lambda times 1/(1 + lambda), i times in sequence, for
    hard-core, 1/(1 + gamma*i) for monomer-dimer.

    A node one level above the frontier with `exact` exact-leaf and `cut`
    truncated children has the pair (table[exact], table[exact + cut]),
    bit for bit what folding those children one at a time gives, in any
    order: an exact leaf folds lambda (resp. 1) into both values, a
    frontier child folds its pin, 0 into the first and lambda (resp. 1)
    into the second, and a hard-core pin of 0 multiplies by exactly 1.0,
    a monomer-dimer one adds exactly 0.0 to an integer sum.
    """
    if not hc:
        return [1.0 / (1.0 + a * i) for i in range(size)]
    factor = 1.0 / (1.0 + a)
    table = [a]
    for _ in range(size - 1):
        table.append(table[-1] * factor)
    return table


def _sandwich(g, root, model, a, max_depth, blocked, budget, table):
    """The depth-first walker behind sandwich_values, for one activity a,
    its `_leaf_table` and an unblocked root; returns ((x0, x1), nodes).

    Each tree node carries two values: its evaluation with the frontier
    pinned to 0 (x0) and the one with the frontier pinned to the maximum
    (x1).  Which is the lower bound alternates with depth, so
    sandwich_values orders the root's pair.  The models differ in three
    places only:

      loop copies -- no path vertex is a child or a node in either
          model, but in the weitz tree a path vertex other than the
          parent is a loop copy pinned by `loop_copy_occupied`: occupied,
          it zeroes the node and ends its scan.
      leaf and frontier values -- an exact leaf is lambda (resp. 1) and a
          truncated frontier node is pinned to (0, lambda) (resp. (0, 1)).
      fold -- hard-core starts a node at lambda and multiplies in
          1/(1 + R) per child; monomer-dimer sums the child values and
          takes 1/(1 + gamma*sum) when the node is popped.

    About two thirds of a truncated tree's nodes sit on its last level,
    so that level is counted in bulk: a node one level above the frontier
    (the root when max_depth is 1) is never pushed.  `last_level` scans
    its neighbors, counts its exact-leaf and truncated children, and
    looks up its values by those two counts in `_leaf_table`.  A pushed
    child without extensions pops with exactly its leaf value.

    `blocked` = deleted, in both models: a blocked neighbor is skipped in
    the test that skips the parent (for hard-core, the value of pinning it
    unoccupied, a factor of 1).  A frontier child is an exact leaf when
    no neighbor but its parent is free: not blocked, and for monomer-dimer
    not on the path (a hard-core path vertex is a loop copy, left
    unevaluated at the frontier).  Pins need no test of their own in a
    scan: an expanded vertex is never blocked, so no neighbor of it is
    pinned occupied, and the only occupied neighbors are loop copies.
    """
    adj = g.adjacency
    hc = model == HARDCORE
    top = a if hc else 1.0
    if max_depth == 0:
        if all(w in blocked for w in adj[root]):
            return (top, top), 1
        return (0.0, top), 1

    start = a if hc else 0.0
    path = [root]
    path_pos = {root: 0}

    def last_level(u, parent):
        # (x0, x1, children visited) of a node u one level above the
        # frontier; like a pushed node, u stops at its first occupied loop
        # copy and the siblings after it are not visited
        exact = cut = 0
        for w in adj[u]:
            if w == parent or w in blocked:
                continue
            pos = path_pos.get(w)
            if pos is not None:
                if hc and loop_copy_occupied(path, pos, u):
                    return 0.0, 0.0, exact + cut
                continue
            for x in adj[w]:
                if x != u and x not in blocked and (hc or x not in path_pos):
                    cut += 1  # a free neighbor: w is extended
                    break
            else:
                exact += 1
        return table[exact], table[exact + cut], exact + cut

    # a budget error reports the first node over budget, budget + 1
    last = max_depth - 1  # the depth of the nodes that last_level scans
    if last == 0:
        x0, x1, seen = last_level(root, -1)
        nodes = 1 + seen
        if nodes > budget:
            raise NodeBudgetError(budget + 1)
        return (x0, x1), nodes

    nodes = 1
    # frame: [vertex, parent, depth, x0, x1, neighbor tuple, next index]
    stack = [[root, -1, 0, start, start, adj[root], 0]]
    while True:
        fr = stack[-1]
        vtx, parent, dep, x0, x1, nbrs, i = fr
        dead = False
        while i < len(nbrs):
            w = nbrs[i]
            i += 1
            if w == parent or w in blocked:
                continue
            pos = path_pos.get(w)
            if pos is not None:
                # a path vertex is never a child.  Path vertices are never
                # pinned, so for hard-core the loop rule decides: an
                # occupied loop copy zeroes the node and ends its scan
                if hc and loop_copy_occupied(path, pos, vtx):
                    dead = True
                    break
                continue
            nodes += 1
            if nodes > budget:
                raise NodeBudgetError(budget + 1)
            if dep + 1 < last:
                fr[3], fr[4], fr[6] = x0, x1, i
                stack.append([w, vtx, dep + 1, start, start, adj[w], 0])
                path_pos[w] = len(path)
                path.append(w)
                break
            y0, y1, seen = last_level(w, vtx)
            nodes += seen
            if nodes > budget:
                raise NodeBudgetError(budget + 1)
            if hc:
                x0 *= 1.0 / (1.0 + y0)
                x1 *= 1.0 / (1.0 + y1)
            else:
                x0 += y0
                x1 += y1
        if stack[-1] is not fr:
            continue  # descended into a child
        stack.pop()
        if dead:
            x0 = x1 = 0.0
        elif not hc:
            x0 = 1.0 / (1.0 + a * x0)
            x1 = 1.0 / (1.0 + a * x1)
        if not stack:
            break
        path.pop()
        del path_pos[vtx]
        fr = stack[-1]
        if hc:
            fr[3] *= 1.0 / (1.0 + x0)
            fr[4] *= 1.0 / (1.0 + x1)
        else:
            fr[3] += x0
            fr[4] += x1

    return (x0, x1), nodes


def _sandwich_blocks(g, root, model, a, max_depth, blocked, budget, table):
    """The block walker behind sandwich_values, for trees above `_CAP`
    nodes; returns what `_sandwich` returns, bit for bit, for max_depth >= 2
    and an unblocked root.

    It walks the same tree, but a block of up to `_BLOCK` nodes of one depth
    at a time, with numpy array operations.  A block keeps the root paths
    of its nodes column-major, one int array per path position, and the
    half-edge each node arrived by, as `saw_counts` does.  `step` lists
    the steps out of every node of a block from the CSR adjacency of g
    minus blocked, every neighbour but the arrival half-edge (`Csr.steps`),
    in the depth-first walker's order, and masks its children with one
    path filter for both models: a path vertex is never a child, and for
    hard-core the ones it drops are the loop copies, whose Weitz pin stops
    a node at its first occupied copy, which the same mask applies.

    Only the levels above the last two copy path columns.  A block whose
    children sit deeper than one level above the frontier gathers its
    columns under its children, cuts them into blocks and pushes those on
    a LIFO stack above itself, where it waits under a marker.  A block
    whose children sit one level above the frontier scans them in place
    (`scan`): their paths are the block's columns read through their
    parents' rows, and their values are looked up in `_leaf_table` by
    their numbers of exact-leaf and truncated children, counted under the
    mask without compacting the frontier steps.  Two arrays over the
    half-edges u -> w of the CSR, built once per call in O(m), serve the
    exact-leaf test: whether u is w's only neighbour, which settles a
    hard-core frontier child, and for monomer-dimer the first neighbour of
    w other than u.  A monomer-dimer frontier child is also exact when its
    other neighbours are all on the path; `step` tests the first one on
    the path columns that filter the child.  That settles every child of
    degree 2 and every child whose first other neighbour is off the path;
    only the few others are tested on all neighbours.  When a marker pops,
    every child block has been folded in, so the block's values are closed
    and folded into its own parent.

    Folds keep the depth-first walker's arithmetic: child blocks fold in
    order, and within one block `np.multiply.at` and `np.add.at` fold the
    children sequentially in ascending-id order.  The stack holds at most
    one block's children per depth, each with its path, so memory stays
    within O(max_depth**2 * _BLOCK * max degree) entries.  A scan in place
    adds no path copies, only its temporaries, a few arrays of one entry
    per frontier step, O(_BLOCK * max degree**2) entries.
    """
    hc = model == HARDCORE
    csr = g.csr
    if blocked:
        is_blocked = np.zeros(g.n, dtype=bool)
        is_blocked[np.fromiter(blocked, dtype=np.intp, count=len(blocked))] = True
        # blocked = deleted, in both models: no walk steps onto one
        csr = csr.without(is_blocked)
    # lone[f]: whether u is the only neighbour of w, for the half-edge f = u -> w
    lone = csr.deg.take(csr.nbrs) == 1
    if not hc:
        # first[f]: the first neighbour of w other than u for the half-edge
        # f = u -> w, in O(m).  Where u is w's only neighbour the entry is
        # unused (w is an exact leaf), and clip keeps its index in range
        start = csr.indptr.take(csr.nbrs)
        first = csr.nbrs.take(start + (csr.back == start), mode="clip")
    table = np.array(table)
    nodes = 1

    def step(cols, end, arrive, via=None, near=False):
        # (rows, up, cand, flat, kid, dead, on): every step flat[k] out of
        # the node end[rows[k]] but its arrival, to cand[k]; the node's path
        # before it is cols at row up[k] (via[rows[k]], or rows[k] when via
        # is None).  kid masks the children, counted here; dead marks the
        # hard-core nodes an occupied loop copy zeroes.  With near
        # (monomer-dimer), on[k] says whether the first neighbour of cand[k]
        # other than its parent is on the path.
        nonlocal nodes
        rows, flat = csr.steps(end, arrive)
        cand = csr.nbrs.take(flat)
        up = rows if via is None else via.take(rows)
        kid = np.ones(len(cand), dtype=bool)
        dead = on = None
        if near:
            other = first.take(flat)
            on = other == cols[-1].take(up)
        for col in cols[:-1]:  # cols[-1], the parent, is the arrival
            at = col.take(up)
            kid &= cand != at  # never a path vertex
            if near:
                on |= other == at
        if hc and not kid.all():
            # the path vertices dropped are loop copies, pinned by
            # loop_copy_occupied: occupied when the path vertex after the
            # copied one has a smaller id than the node
            at = np.flatnonzero(~kid)
            r, w = up[at], cand[at]
            after = np.empty_like(w)
            for col, nxt in zip(cols[:-1], cols[1:]):
                hit = w == col[r]
                after[hit] = nxt[r][hit]
            at = at[after < end[rows[at]]]
            if len(at):
                # a node stops at its first occupied copy
                stop = np.full(len(end), len(cand))
                np.minimum.at(stop, rows[at], at)
                dead = stop < len(cand)
                kid &= np.arange(len(cand)) < stop.take(rows)
        nodes += int(np.count_nonzero(kid))
        if nodes > budget:
            raise NodeBudgetError(budget + 1)
        return rows, up, cand, flat, kid, dead, on

    def scan(cols, end, arrive, via):
        # (y0, y1) of the nodes end, one level above the frontier, whose
        # paths are cols at the rows via
        rows, up, cand, flat, kid, dead, on = step(cols, end, arrive, via, near=not hc)
        exact = lone.take(flat)  # no neighbour but its parent outside blocked
        if not hc:
            # a child is also exact when every other neighbour is on the
            # path.  Its first neighbour other than the parent settles it
            # unless that one is on the path and the child has more
            # neighbours; those few are tested on all of them
            maybe = np.flatnonzero(on & kid)
            deg = csr.deg.take(cand.take(maybe))
            exact[maybe[deg == 2]] = True
            test = maybe[deg > 2]
            for lo in range(0, len(test), _BLOCK):
                part = test[lo:lo + _BLOCK]
                sub, nxt = csr.steps(cand[part], csr.back.take(flat[part]))
                nxt = csr.nbrs.take(nxt)
                ext = np.ones(len(nxt), dtype=bool)
                at = up[part].take(sub)
                for col in cols:
                    ext &= nxt != col.take(at)
                exact[part] = np.bincount(sub[ext], minlength=len(part)) == 0
        width = len(end)
        y0 = table.take(np.bincount(rows[kid & exact], minlength=width))
        y1 = table.take(np.bincount(rows[kid], minlength=width))
        if dead is not None:
            y0[dead] = y1[dead] = 0.0
        return y0, y1

    def fold(blk, rows, y0, y1):
        if hc:
            np.multiply.at(blk[2], rows, 1.0 / (1.0 + y0))
            np.multiply.at(blk[3], rows, 1.0 / (1.0 + y1))
        else:
            np.add.at(blk[2], rows, y0)
            np.add.at(blk[3], rows, y1)

    last = max_depth - 1  # the depth of the nodes that scan reads off
    start = a if hc else 0.0

    def block(cols, arrive, parent, prow):
        # [cols, arrive, x0, x1, dead rows, parent block, parent row of each row]
        width = len(cols[-1])
        return [cols, arrive, np.full(width, start), np.full(width, start), None, parent, prow]

    stack = [(block([np.array([root], dtype=csr.nbrs.dtype)], None, None, None), False)]
    while True:
        blk, closed = stack.pop()
        if not closed:
            cols = blk[0]
            rows, _, cand, flat, kid, blk[4], _ = step(cols[:-1], cols[-1], blk[1])
            rows, cand = rows[kid], cand[kid]
            arrive = csr.back.take(flat[kid])
            if len(cols) < last:
                kids = [col.take(rows) for col in cols]
                kids.append(cand)
                stack.append((blk, True))
                for lo in reversed(range(0, len(cand), _BLOCK)):
                    hi = lo + _BLOCK
                    stack.append((block([col[lo:hi] for col in kids], arrive[lo:hi], blk, rows[lo:hi]), False))
                continue
            # the children sit one level above the frontier: scanned in place
            fold(blk, rows, *scan(cols, cand, arrive, rows))
        x0, x1 = blk[2], blk[3]
        if not hc:
            x0 = 1.0 / (1.0 + a * x0)
            x1 = 1.0 / (1.0 + a * x1)
        elif blk[4] is not None:
            x0[blk[4]] = x1[blk[4]] = 0.0
        if blk[5] is None:
            break
        fold(blk[5], blk[6], x0, x1)
    return (float(x0[0]), float(x1[0])), nodes


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
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
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
    if d < 1 or max_depth < 0 or not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("need d >= 1, max_depth >= 0, finite gamma > 0")
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
    `_adaptive` until the sandwich width is at most 2*tol or the pair is
    exact, then returns the interval midpoint.  The certificate
    is the sandwich property alone.  Raises AdaptiveBudgetError (carrying
    the interval of the last pass) if the node budget runs out first.
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


@dataclass
class _Deepening:
    """Where one `_adaptive` loop stands between calls, so that a caller
    can run it in stages: the last two passes as (depth, measure, nodes),
    oldest first, the interval of the last pass, and the nodes of all
    passes.  Sandwich intervals nest as the depth grows, so the last
    interval is the narrowest, and an exact one measures 0.  The node
    growth per level of the last two passes both cuts the next depth
    step to the budget and predicts the next pass's node count."""

    passes: list = field(default_factory=list)
    last: tuple = (0.0, 0.0)
    total: int = 0

    def settled(self, target) -> bool:
        """Whether the last pass met `target`, or gave an exact pair (which
        measures 0) under a target below 0."""
        return bool(self.passes) and self.passes[-1][1] <= max(target, 0.0)

    def _growth(self):
        """The per-level log growth of the node count from the pass before
        the last to the last, None before the second pass."""
        if len(self.passes) < 2:
            return None
        (d0, _, n0), (d1, _, n1) = self.passes
        return math.log(n1 / n0) / (d1 - d0)

    def expected_nodes(self, depth):
        """The nodes of a pass at `depth`, extrapolated from the last two
        passes, n1 * (n1/n0)**((depth - d1) / (d1 - d0)); the last pass's
        n1 when the count did not grow or there is one pass (trees nest,
        so n1 is a lower bound), None before the first pass."""
        if not self.passes:
            return None
        d1, _, n1 = self.passes[-1]
        growth = self._growth()
        if growth is None or growth <= 0:
            return n1
        return n1 * math.exp(growth * (depth - d1))

    def next_depth(self, target, budget) -> int:
        """The depth of the next pass (see `_adaptive`)."""
        depth, w, nodes = self.passes[-1]
        step = 1
        # a pass that did not stop measured above target, so with target > 0
        # the ratio is defined; an infinite measure gives no usable rate
        if len(self.passes) == 2 and target > 0 and 0.0 < w / self.passes[0][1] < 1.0:
            prev = self.passes[0]
            levels = depth - prev[0]
            per_level = math.log(w / prev[1]) / levels
            step = max(1, min(depth, math.ceil(math.log(target / w) / per_level)))
            growth = self._growth()
            left = budget - self.total
            if growth > 0 and left > 0:
                step = max(1, min(step, int(math.log(left / nodes) / growth)))
        return depth + step


def _adaptive(g, v, params, measure, target, boundary, budget, blocked=frozenset(),
              state=None, until=None):
    """Deepen the sandwich at v (of g minus `blocked`, see sandwich_values)
    until measure(lo, hi) <= target or the pair is exact (lo == hi, as
    when the tree is fully expanded); returns (lo, hi, depth, nodes
    expanded in total) of the last pass.

    After each truncated pass the per-level contraction of the measure is
    fitted from the last two passes, rate = (w / w_prev)**(1/depth step),
    and the depth steps by the number of levels that rate predicts are
    still needed, ceil(log(target/w) / log(rate)).  The step is at least 1
    and at most the current depth (never more than doubling), and it is
    cut so that the next pass, extrapolated from the node growth of the
    last two passes, fits in what is left of the budget.  Without a usable
    rate (a measure that is infinite or did not shrink) the depth steps
    by 1.  Raises AdaptiveBudgetError with the interval of the last pass
    (the a-priori range before the first) if the budget runs out first.
    Each pass hands `sandwich_values` its node count extrapolated by the
    same growth (`_Deepening.expected_nodes`), so a pass expected above
    `_CAP` nodes is walked on blocks once, not started depth-first and
    thrown away.  The choice of walker changes no output.

    The loop can run in stages.  A `state` (a `_Deepening`) carries it
    from one call to the next, and `until` stops it, unsettled, after
    its first pass at that depth or deeper.  A later call with the same
    state goes on from the passes already made, under its own target,
    and with `budget` counting the nodes of the earlier calls as well.
    One call without either runs the passes that the stages would.
    """
    st = _Deepening() if state is None else state
    while True:
        if not st.passes:
            depth = 0
        elif st.settled(target) or until is not None and st.passes[-1][0] >= until:
            return (*st.last, st.passes[-1][0], st.total)
        else:
            depth = st.next_depth(target, budget)
        top = params.activity if params.model == HARDCORE else 1.0
        last = (*st.last, st.passes[-1][0]) if st.passes else (0.0, top, 0)
        remaining = budget - st.total
        if remaining <= 0:
            raise AdaptiveBudgetError(*last, st.total)
        try:
            pairs, nodes, _ = sandwich_values(
                g, v, params.model, [params.activity], depth, boundary,
                remaining, blocked, expected_nodes=st.expected_nodes(depth),
            )
        except NodeBudgetError as exc:
            raise AdaptiveBudgetError(*last, st.total + exc.nodes_expanded)
        st.total += nodes
        st.last = pairs[0]
        st.passes = [*st.passes[-1:], (depth, measure(*st.last), nodes)]
