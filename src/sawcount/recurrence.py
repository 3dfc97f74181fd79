"""Tree recurrences on SAW trees, exact and truncated with certified intervals.

Hard-core occupation ratios satisfy, at a node with child ratios R_i,

    R = lambda * prod_i 1 / (1 + R_i)

with leaf value lambda; a child pinned occupied forces R = 0 and a child
pinned unoccupied contributes a factor of 1 (equivalently R_i = 0).
Monomer probabilities satisfy

    p = 1 / (1 + gamma * sum_i p_i)

with leaf value 1.  Both recurrences are monotone decreasing in every
argument, so a node whose children lie in the intervals [lo_i, hi_i]
lies in [f(hi_1, ...), f(lo_1, ...)]: each child's upper end folds into
its parent's lower end and its lower end into the upper end.  A
truncated hard-core frontier node lies in [0, lambda].  A truncated
monomer-dimer frontier node w lies in [1/(1 + gamma*k), 1], k its
neighbours outside blocked but its parent, as its children are among
them and each is at most 1 (the degree bound of Bayati, Gamarnik, Katz,
Nair and Tetali); the lower end is rounded down to a grid on which the
sums of a node's children are exact (`_pin_table`).  So folding
intervals from the frontier up brackets the exact tree value.  That
sandwich is the sole soundness certificate used here: no decay
assumption enters.  A monomer-dimer node whose interval is not a point
has its ends rounded outward by at least one float each (`_DOWN`,
`_UP`); points and hard-core intervals are rounded to nearest.

One depth-first walker serves both models.  It fuses tree expansion
with evaluation (no nodes are materialized) and carries each node's
interval (lo, hi) for one activity value in a single pass.  Per model it
differs only in its loop copies (hard-core pins the path vertices it
meets, which are no nodes in either model), its leaf and frontier
values and its fold: a product of 1/(1 + R_i) for hard-core, a sum of
p_i closed by 1/(1 + gamma*sum) for monomer-dimer; one rule finds the
exact leaves of both.  The last tree level, about two thirds of a
truncated tree's nodes, is counted in bulk: a node one level above the
frontier is never pushed; its children are counted as exact leaves or
truncated frontier nodes, and its interval is read off one linear
table by those two counts (`_leaf_table`), bit for bit what folding them
one by one gives, but for a monomer-dimer node's upper end, which takes
the sum of its truncated children's pins.  The walkers return the root's
interval.  The materialized trees of `expand_saw_tree` with
`eval_hc`/`eval_md` are the reference implementation the walker is
tested against: the frontier pinned to 0 and to its maximum brackets
every interval the walkers return.

Trees of more than `_CAP` nodes go to a block walker, which applies
the same rules to up to `_BLOCK` nodes of one depth at a time with numpy
array operations, on the blocks of `sawtree.saw_counts` (one array of
root paths, a row per depth, a column per node), and gives the same
values, node counts and budget errors bit for bit.  Its pending blocks
wait on a LIFO stack that holds at most one block's children per depth,
so its memory stays within O(depth**2 * _BLOCK * max degree) entries
beside the temporaries of one block's scan.  It reads most nodes two
levels above the frontier off a table over the half-edges of g: where no
vertex within two steps of a node, nor the first other neighbour of one
two steps away, is on its path, the node's subtree is a plain tree whose
interval and size depend only on the half-edge it was reached by
(`_cut_table`).  A numpy pass costs a fixed 100-200 us per block, more
than a small tree takes depth-first, so the depth-first walker stays for
the small trees, which are most calls of a telescope.  It also takes
every tree of depth 0 or 1, a single scan of the root's neighbors, and
truncations deeper than `_BLOCK_DEPTH`, such as a full expansion of a
long path: a deep thin tree holds a few nodes per block, and the block
walker's path arrays grow with the square of its depth.  The walker is
chosen before the walk by a bound on the tree's size: `_adaptive`
extrapolates each pass's node count from its last two passes, and
without such a hint `sandwich_values` counts the root's self-avoiding
walks up to the depth, which bound the tree's nodes, until the count
passes `_CAP`.  A tree expected above `_CAP` goes straight to the block
walker; a depth-first pass that runs past `_CAP` nodes anyway is thrown
away and the tree walked again on blocks.  Every walk runs in the
calling thread.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

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
_BLOCK = 1024  # tree nodes per block in the block walker
_BLOCK_DEPTH = 64  # the deepest truncation the block walker takes
_CUT_BYTES = 2**21  # the block walker's cut table bits take at most this, or 8 bytes a half-edge
# a positive normal float times _DOWN (_UP) is one or two floats below
# (above) it: the monomer-dimer walkers' outward rounding of a node whose
# two sums differ, in one multiply where np.nextafter costs 20-30 ns per entry
_DOWN = 1.0 - 2.0**-52
_UP = 1.0 + 2.0**-52


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

    Carries the certified interval of the last pass that completed,
    narrowed by the a-priori interval (that interval when none did):
    sandwich intervals nest as the depth grows, so it is the narrowest one
    found.
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
    """Evaluate the truncated recurrence on intervals, the frontier pinned
    to its a-priori interval: [0, lambda] for hard-core, and for
    monomer-dimer [1/(1 + gamma*k), 1] (`_pin_table`) for a node with k
    neighbours outside blocked but its parent, [1/(1 + gamma*deg), 1] for
    a root of depth 0 with deg of them.  A monomer-dimer interval that is
    not a point has its ends rounded at least one float outward.

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
    `_CAP`).  Without it the root's self-avoiding walks of up to depth
    steps in g minus blocked are counted as the estimate (`_walks_from`),
    an upper bound on the nodes, so no pass is thrown away.  The hint
    chooses the walker only, never an output.
    Both walkers combine children in ascending-id order with the same
    float operations, so results are bit-reproducible and do not depend
    on the walker.  Each walker reads the activity's `_leaf_table`, built
    here once, and returns the root's (lo, hi) and the node count.
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
    size = g.csr.max_degree + 1
    table = _leaf_table(hc, acts[0], size)
    cap = budget if depth <= 1 or depth > _BLOCK_DEPTH else min(budget, _CAP)
    if cap < budget and expected_nodes is None:
        expected_nodes = _walks_from(g.csr, v, depth, blocked)
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
    return pairs, first[1], any(lo != hi for lo, hi in pairs)


def _walks_from(csr, v, depth, blocked):
    """The number of self-avoiding walks of 0..depth steps from v in the
    graph of csr minus blocked, the nodes of v's plain SAW tree, counted
    a length at a time until it passes `_CAP`: at most `_CAP`, or a
    number above it, in O(_CAP * depth * max degree).  A weitz tree has
    no more nodes.

    A walk has deg(v) first steps at most, and its k-th step at most
    min(max degree - 1, n - k) choices: where these products put the
    count at or under `_CAP`, as for every tree of a small or sparse
    enough graph, they are taken with no array operation."""
    n = len(csr.deg)
    count = walks = 1
    for k in range(1, min(depth, n - 1) + 1):
        walks *= int(csr.deg[v]) if k == 1 else min(csr.max_degree - 1, n - k)
        count += walks
        if count > _CAP:
            break
    else:
        return count
    gone = np.fromiter(blocked, dtype=np.intp, count=len(blocked))
    paths, arrive = np.array([[v]], dtype=csr.nbrs.dtype), None
    count = 1
    for _ in range(depth):
        if count > _CAP or not paths.shape[1]:
            break
        rows, flat = csr.steps(paths[-1], arrive)
        ends = csr.nbrs.take(flat)
        keep = ~(paths[:-1].take(rows, axis=1) == ends).any(axis=0)
        if len(gone):
            keep &= ~np.isin(ends, gone)
        rows, flat = rows[keep], flat[keep]
        paths = np.vstack((paths.take(rows, axis=1), ends[keep]))
        arrive = csr.back.take(flat)
        count += len(flat)
    return count


@functools.lru_cache(maxsize=64)
def _leaf_table(hc, a, size):
    """The values of a node whose i children are all at their maximum,
    for i < size: lambda times 1/(1 + lambda), i times in sequence, for
    hard-core, 1/(1 + gamma*i) for monomer-dimer; memoized, as a tuple.

    A node one level above the frontier with `exact` exact-leaf and `cut`
    truncated children has the lower end table[exact + cut], bit for bit
    what folding those children one at a time gives, in any order: an
    exact leaf folds lambda (resp. 1) into both ends and a frontier child
    its upper end lambda (resp. 1) into the lower end.  A hard-core node's
    upper end is table[exact]: a frontier child folds its lower end 0,
    which multiplies by exactly 1.0.  A monomer-dimer frontier child
    folds its pin (`_pin_table`), so the node's upper end is
    1/(1 + gamma*s), s the sum of its truncated children's pins and its
    number of exact ones; with no truncated child it is table[exact].
    """
    if not hc:
        return tuple(1.0 / (1.0 + a * i) for i in range(size))
    factor = 1.0 / (1.0 + a)
    table = [a]
    for _ in range(size - 1):
        table.append(table[-1] * factor)
    return tuple(table)


@functools.lru_cache(maxsize=64)
def _pin_table(table):
    """The lower ends of a truncated monomer-dimer node by its number k of
    neighbours outside blocked but its parent: table[k] = 1/(1 + gamma*k)
    rounded down to a multiple of 2**-bits.

    A truncated node w has at most k children, each at most 1, so
    table[k] is a lower end of its value, and rounding down keeps it one.
    With bits = min(44, 52 - len(table).bit_length()), a sum of fewer than
    len(table) pins and ones, a node's canonical sum, is exact in floating
    point, whatever its order: the depth-first walker adds the pins of the
    truncated children and the number of exact ones, the block walker
    corrects a tabulated sum, and both get it bit for bit.  The grid is
    the same for every graph of max degree below 255, so such a graph
    minus blocked vertices and its induced subgraph give the same pins.
    A pin loses less than 2**-bits to the rounding; entry 0 is 1.0, the
    value of a lone child."""
    scale = 2.0 ** min(44, 52 - len(table).bit_length())
    return tuple(math.floor(t * scale) / scale for t in table)


def _sandwich(g, root, model, a, max_depth, blocked, budget, table):
    """The depth-first walker behind sandwich_values, for one activity a,
    its `_leaf_table` and an unblocked root; returns ((lo, hi), nodes).

    Each tree node carries its interval (lo, hi).  A child's upper end
    folds into its parent's lower end and its lower end into the upper
    end, as both recurrences decrease in every child.  The models differ
    in three places only:

      loop copies -- no path vertex is a child or a node in either
          model, but in the weitz tree a path vertex other than the
          parent is a loop copy pinned by `loop_copy_occupied`: occupied,
          it zeroes the node and ends its scan.
      leaf and frontier values -- an exact leaf is lambda (resp. 1) and a
          truncated frontier node lies in [0, lambda] (resp. [pin, 1], the
          pin of its neighbours outside blocked but its parent, whose
          number `fix` corrects for blocked vertices).
      fold -- hard-core starts a node at lambda and multiplies in
          1/(1 + R) per child; monomer-dimer sums the child values and
          takes 1/(1 + gamma*sum) when the node is popped, rounded
          outward where the two sums differ.

    About two thirds of a truncated tree's nodes sit on its last level,
    so that level is counted in bulk: a node one level above the frontier
    (the root when max_depth is 1) is never pushed.  `last_level` scans
    its neighbors, counts its exact-leaf and truncated children, and
    looks up its interval by those two counts in `_leaf_table`; for
    monomer-dimer its upper end takes the sum of its truncated children's
    pins instead.  A pushed child without extensions pops with exactly
    its leaf value.

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
    if not hc:
        # the pin of a truncated child w is pin[deg[w] - 1], or fix[w] where
        # w has blocked neighbours: O(sum of their degrees) per call
        pin, deg = _pin_table(table), g.degrees
        lost = {}
        for b in blocked:
            for x in adj[b]:
                lost[x] = lost.get(x, 0) + 1
        fix = {x: pin[max(deg[x] - 1 - k, 0)] for x, k in lost.items()}
    if max_depth == 0:
        if not hc:
            k = deg[root] - lost.get(root, 0)
            return (table[k] * _DOWN if k else 1.0, 1.0), 1
        if all(w in blocked for w in adj[root]):
            return (a, a), 1
        return (0.0, a), 1

    start = a if hc else 0.0
    path = [root]
    path_pos = {root: 0}

    def last_level(u, parent):
        # (lo, hi, children visited) of a node u one level above the
        # frontier; like a pushed node, u stops at its first occupied loop
        # copy and the siblings after it are not visited
        exact = cut = 0
        pins = 0.0  # monomer-dimer: the sum of the truncated children's lower ends
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
                    if not hc:
                        pins += fix[w] if w in fix else pin[deg[w] - 1]
                    break
            else:
                exact += 1
        if hc:
            return table[exact + cut], table[exact], exact + cut
        k, s = exact + cut, pins + exact
        if s == k:
            return table[k], table[k], k
        return table[k] * _DOWN, 1.0 / (1.0 + a * s) * _UP, k

    # a budget error reports the first node over budget, budget + 1
    last = max_depth - 1  # the depth of the nodes that last_level scans
    if last == 0:
        lo, hi, seen = last_level(root, -1)
        nodes = 1 + seen
        if nodes > budget:
            raise NodeBudgetError(budget + 1)
        return (lo, hi), nodes

    nodes = 1
    # frame: [vertex, parent, depth, lo, hi, neighbor tuple, next index]
    stack = [[root, -1, 0, start, start, adj[root], 0]]
    while True:
        fr = stack[-1]
        vtx, parent, dep, lo, hi, nbrs, i = fr
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
                fr[3], fr[4], fr[6] = lo, hi, i
                stack.append([w, vtx, dep + 1, start, start, adj[w], 0])
                path_pos[w] = len(path)
                path.append(w)
                break
            y_lo, y_hi, seen = last_level(w, vtx)
            nodes += seen
            if nodes > budget:
                raise NodeBudgetError(budget + 1)
            if hc:
                lo *= 1.0 / (1.0 + y_hi)
                hi *= 1.0 / (1.0 + y_lo)
            else:
                lo += y_hi
                hi += y_lo
        if stack[-1] is not fr:
            continue  # descended into a child
        stack.pop()
        if dead:
            lo = hi = 0.0
        elif not hc:
            if lo == hi:
                lo = hi = 1.0 / (1.0 + a * lo)
            else:
                lo = 1.0 / (1.0 + a * lo) * _DOWN
                hi = 1.0 / (1.0 + a * hi) * _UP
        if not stack:
            break
        path.pop()
        del path_pos[vtx]
        fr = stack[-1]
        if hc:
            fr[3] *= 1.0 / (1.0 + hi)
            fr[4] *= 1.0 / (1.0 + lo)
        else:
            fr[3] += hi
            fr[4] += lo

    return (lo, hi), nodes


def _sandwich_blocks(g, root, model, a, max_depth, blocked, budget, table):
    """The block walker behind sandwich_values, for trees above `_CAP`
    nodes; returns what `_sandwich` returns, bit for bit, for max_depth >= 2
    and an unblocked root.

    It walks the same tree, but a block of up to `_BLOCK` nodes of one depth
    at a time, with numpy array operations.  A block keeps its nodes'
    root paths as one (depth + 1, nodes) array in the CSR's id dtype, and
    the half-edge each node arrived by, as `saw_counts` does.  `step`
    lists the steps out of every node of a block from the CSR adjacency
    of g minus blocked, every neighbour but the arrival half-edge
    (`Csr.steps`), in the depth-first walker's order, and masks its
    children with one comparison of their gathered paths for both models:
    a path vertex is never a child, and for hard-core the ones it drops
    are the loop copies, whose Weitz pin stops a node at its first
    occupied copy, which the same mask applies.

    Only the levels above the last two copy paths.  A block whose children
    sit deeper than one level above the frontier gathers its paths under
    its children, adds their row, cuts the array into blocks of columns
    and pushes those on a LIFO stack; it waits (`_Waiting`) until every
    child has closed.  A block whose children sit one level above the
    frontier scans them in place (`scan`): their paths are the block's
    columns read through their parents' rows, and their values are looked
    up in `_leaf_table` by their numbers of exact-leaf and truncated
    children, counted under the mask without compacting the frontier
    steps.  Arrays over the half-edges u -> w of the CSR, built in O(m)
    once per adjacency (`Csr.memo`), serve the exact-leaf test: for
    hard-core whether u is w's only neighbour, and for monomer-dimer the
    first neighbour of w other than u.  A monomer-dimer frontier child is
    exact when its other neighbours are all on the path; `step` tests the
    first one on the gathered paths that filter the child.  That settles
    every child of degree 1 or 2 and every child whose first other
    neighbour is off the path; only the few others are tested on all their
    neighbours, one gather of the block's paths per chunk of `_BLOCK` of
    them.  A monomer-dimer node's upper end takes the pin sum over its
    neighbours but its parent, tabulated per arrival half-edge, less the
    pins of its path vertices, plus 1 - pin for each exact child that is
    not lone: the sums are exact (`_pin_table`), so this is bit for bit
    the depth-first walker's sum.  Where it differs from the node's number
    of children, the node's two sums differ and both its ends are rounded
    outward.  When its last child is in, a waiting block's values are
    closed, rounded as the depth-first walker rounds them, and handed to
    the block waiting on it (`settle`).

    On an unblocked call of depth 3 or more, the nodes two levels above
    the frontier are tested against the cut table (`_cut_table`) before
    they are stepped.  A node reached along the half-edge f = p -> u
    passes when f may be cut and no vertex of f's set is on its path above
    p: one gather of a byte per path vertex off f's row of bits, with
    vertex v at bit v mod the row width.  A node that passes takes its
    interval from the table and adds the nodes under it, its children and
    grandchildren, to the count; it is neither stepped nor scanned, so its
    nodes still count as tree nodes and every node count and budget error
    stays the depth-first walker's.  The nodes that fail, about one in ten
    on gnp(2000, 3), are pooled and scanned in blocks of `_BLOCK` across
    the blocks they came from.  The pool drains once it holds
    `_BLOCK` nodes or the nodes of a second block, so it keeps at most one
    waiting block alive beside those the stack holds.  Blocked calls walk
    every node: their adjacency, and so their table, differs per call.

    Folds keep the depth-first walker's arithmetic: a block's children
    fold in order, those that come back out of order held until the ones
    before them are in, and within one fold `np.multiply.at` and
    `np.add.at` fold the children sequentially in ascending-id order.  The
    stack holds at most one block's children per depth, each with its
    path, so memory stays within O(max_depth**2 * _BLOCK * max degree)
    entries, beside the cut table kept with g's adjacency (`_cut_sets`:
    at most `_CUT_BYTES` of bits and a few words per half-edge).  A scan
    in place copies no path onto the stack; its temporaries, the gathered
    paths in a buffer kept for the call and a few arrays of one entry per
    frontier step, take O(max_depth * _BLOCK * max degree**2) entries.
    """
    hc = model == HARDCORE
    csr = g.csr
    cut = None
    if blocked:
        is_blocked = np.zeros(g.n, dtype=bool)
        is_blocked[np.fromiter(blocked, dtype=np.intp, count=len(blocked))] = True
        # blocked = deleted, in both models: no walk steps onto one
        csr = csr.without(is_blocked)
    elif max_depth >= 3:
        cut = _cut_table(csr, hc, a, table)
    if hc:
        # lone[f]: whether u is the only neighbour of w, for the half-edge f = u -> w
        if "lone" not in csr.memo:
            csr.memo["lone"] = csr.deg.take(csr.nbrs) == 1
        lone = csr.memo["lone"]
    else:
        first = _first_other(csr)
        pin, sums = _pin_sums(csr, table)
    table = np.array(table)
    nodes = 1
    # one buffer for step's path gathers: fresh ones made glibc trim and
    # refault the heap (about 10% of the walk); mode "raise" would copy them
    buf = np.empty(0, dtype=csr.nbrs.dtype)

    def step(paths, end, arrive, via=None, near=False):
        # (rows, up, cand, flat, kid, dead, on): every step flat[k] out of
        # the node end[rows[k]] but its arrival, to cand[k]; the node's path
        # before it is column up[k] of paths (via[rows[k]], or rows[k] when
        # via is None), its parent in the last row.  kid masks the
        # children, counted here; dead marks the hard-core nodes an
        # occupied loop copy zeroes.  With near (monomer-dimer), on[k] says
        # whether the first neighbour of cand[k] other than its parent is
        # on the path.
        nonlocal nodes, buf
        rows, flat = csr.steps(end, arrive)
        cand = csr.nbrs.take(flat)
        up = rows if via is None else via.take(rows)
        size = len(paths) * len(up)
        if len(buf) < size:
            buf = np.empty(2 * size, dtype=buf.dtype)
        path = paths.take(up, axis=1, out=buf[:size].reshape(len(paths), len(up)), mode="clip")
        hit = path[:-1] == cand  # the last row, the parent, is the arrival
        kid = ~hit.any(axis=0)  # never a path vertex
        dead = on = None
        if near:
            on = (path == first.take(flat)).any(axis=0)
        if hc and not kid.all():
            # the path vertices dropped are loop copies, pinned by
            # loop_copy_occupied: occupied when the path vertex after the
            # copied one has a smaller id than the node
            at = np.flatnonzero(~kid)
            after = path[hit[:, at].argmax(axis=0) + 1, at]
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

    def scan(paths, end, arrive, via):
        # (lo, hi) of the nodes end, one level above the frontier, whose
        # paths are the columns via of paths
        rows, up, cand, flat, kid, dead, on = step(paths, end, arrive, via, near=not hc)
        width = len(end)
        kids = np.bincount(rows[kid], minlength=width)
        y_lo = table.take(kids)
        if hc:
            exact = lone.take(flat)  # no neighbour but its parent outside blocked
            y_hi = table.take(np.bincount(rows[kid & exact], minlength=width))
            if dead is not None:
                y_lo[dead] = y_hi[dead] = 0.0
            return y_lo, y_hi
        # a child with other neighbours is exact when they are all on the
        # path.  Its first one settles it unless that one is on the path and
        # the child has more; those few are tested on all of them
        maybe = np.flatnonzero(on & kid)
        deg = csr.deg.take(cand.take(maybe))
        exact = [maybe[deg == 2]]
        test = maybe[deg > 2]
        for lo in range(0, len(test), _BLOCK):
            part = test[lo:lo + _BLOCK]
            sub, nxt = csr.steps(cand[part], csr.back.take(flat[part]))
            nxt = csr.nbrs.take(nxt)
            ext = (paths.take(up[part].take(sub), axis=1) != nxt).all(axis=0)
            exact.append(part[np.bincount(sub[ext], minlength=len(part)) == 0])
        exact = np.concatenate(exact)
        # a node's canonical sum is sums at its arrival, less the pins of the
        # path vertices among its steps, plus 1 - pin for each exact child
        # that is not lone
        s = sums.take(arrive)
        odd = np.flatnonzero(~kid)
        np.subtract.at(s, rows.take(odd), pin.take(cand.take(odd)))
        np.add.at(s, rows.take(exact), 1.0 - pin.take(cand.take(exact)))
        return _md_ends(a, kids, s, y_lo)

    last = max_depth - 1  # the depth of the nodes that scan reads off
    start = a if hc else 0.0
    result = []
    stack = []
    pool = deque()  # (block, at, paths, arrive): children waiting to be walked
    pooled = 0

    def settle(up, lo, hi):
        # nodes closed at (lo, hi) hand their values to the blocks waiting on
        # them, (block, at, cols) each; a block whose last child this was
        # folds its children in order and closes in turn
        todo = [(up, lo, hi)]
        while todo:
            up, lo, hi = todo.pop()
            if not up:
                result.append((float(lo[0]), float(hi[0])))
            for blk, at, cols in up:
                if blk.take(at, lo[cols], hi[cols]):
                    todo.append((blk.up, *blk.close(a)))

    def scan_block(paths, arrive, up):
        # a block whose children sit one level above the frontier: they are
        # scanned in place, and the block closes at once
        rows, _, cand, flat, kid, dead, _ = step(paths[:-1], paths[-1], arrive)
        rows, cand = rows[kid], cand[kid]
        lo, hi = np.full(paths.shape[1], start), np.full(paths.shape[1], start)
        _fold(hc, lo, hi, rows, *scan(paths, cand, csr.back.take(flat[kid]), rows))
        settle(up, *_close(hc, a, lo, hi, dead))

    def drain(everything):
        # walk the pool in blocks of _BLOCK nodes, the last one short when
        # everything is to go
        nonlocal pooled
        while pooled >= _BLOCK or everything and pooled:
            width = min(pooled, _BLOCK)
            up, paths, arrive = [], [], []
            got = 0
            while got < width:
                blk, at, p, arr = pool[0]
                take = min(len(at), width - got)
                if take < len(at):
                    pool[0] = (blk, at[take:], p[:, take:], arr[take:])
                    at, p, arr = at[:take], p[:, :take], arr[:take]
                else:
                    pool.popleft()
                up.append((blk, at, slice(got, got + take)))
                paths.append(p)
                arrive.append(arr)
                got += take
            pooled -= width
            scan_block(np.hstack(paths), np.concatenate(arrive), up)

    def expand(paths, arrive, up):
        nonlocal nodes, pooled
        rows, _, cand, flat, kid, dead, _ = step(paths[:-1], paths[-1], arrive)
        rows, cand, flat = rows[kid], cand[kid], flat[kid]
        arrive = csr.back.take(flat)
        blk = _Waiting(hc, start, paths.shape[1], rows, dead, up)
        kids = np.vstack((paths.take(rows, axis=1), cand))
        if cut is None or len(kids) < last:
            for at in reversed(range(0, len(cand), _BLOCK)):
                part = slice(at, at + _BLOCK)
                stack.append((kids[:, part], arrive[part], [(blk, part, slice(None))]))
        else:
            # the children sit two levels above the frontier: read off the
            # cut table where they pass its test, pooled otherwise
            sets, lo_t, hi_t = cut
            read = sets.ok.take(flat)
            if len(kids) > 2 and read.any():
                top = kids[:-2]  # the path above each child's parent
                if sets.mask is not None:
                    top = top & sets.mask
                byte = sets.bits.take(np.add(top >> 3, (flat * sets.stride).astype(np.int32),
                                             dtype=np.int32))
                np.right_shift(byte, (top & 7).astype(np.uint8), out=byte)
                byte &= 1
                read &= ~byte.any(axis=0)
            walk = np.arange(len(cand))
            f = flat[read]
            if len(f):
                nodes += int(sets.below.take(f).sum())
                if nodes > budget:
                    raise NodeBudgetError(budget + 1)
                blk.take(np.flatnonzero(read), lo_t.take(f), hi_t.take(f))
                walk = np.flatnonzero(~read)
                kids, arrive = kids[:, walk], arrive[walk]
            if len(walk):
                pool.append((blk, walk, kids, arrive))
                pooled += len(walk)
                if pooled >= _BLOCK or len(pool) > 1:
                    drain(len(pool) > 1)
                return
        if not blk.wait:
            settle(up, *blk.close(a))

    stack.append((np.array([[root]], dtype=csr.nbrs.dtype), None, []))
    while stack:
        paths, arrive, up = stack.pop()
        (scan_block if len(paths) == last else expand)(paths, arrive, up)
        if not stack:
            drain(True)
    return result[0], nodes


class _Waiting:
    """A block of the block walker whose children are being walked: its
    nodes' accumulators (lo, hi), the parent row of each child, its dead
    rows, the blocks waiting on it (up), and wait children still out.

    Children fold in order.  Those that arrive in order, the next slice
    of children, fold at once; the others wait in (kid_lo, kid_hi) until
    the last child is in, and then fold after the first done."""

    __slots__ = ("hc", "lo", "hi", "rows", "dead", "up", "done", "kid_lo", "kid_hi", "wait")

    def __init__(self, hc, start, width, rows, dead, up):
        self.hc, self.rows, self.dead, self.up = hc, rows, dead, up
        self.lo, self.hi = np.full(width, start), np.full(width, start)
        self.done = 0
        self.kid_lo = self.kid_hi = None
        self.wait = len(rows)

    def take(self, at, lo, hi):
        """The children at (a slice or an index array) came in at (lo, hi);
        whether they were the last."""
        if isinstance(at, slice) and at.start == self.done:
            self.done += len(lo)
            _fold(self.hc, self.lo, self.hi, self.rows[at.start:self.done], lo, hi)
        else:
            if self.kid_lo is None:
                self.kid_lo, self.kid_hi = np.empty(len(self.rows)), np.empty(len(self.rows))
            self.kid_lo[at] = lo
            self.kid_hi[at] = hi
        self.wait -= len(lo)
        return not self.wait

    def close(self, a):
        """(lo, hi) of the block's nodes once every child is in, closed as
        the depth-first walker closes a node."""
        if self.done < len(self.rows):
            done = self.done
            _fold(self.hc, self.lo, self.hi, self.rows[done:], self.kid_lo[done:], self.kid_hi[done:])
        return _close(self.hc, a, self.lo, self.hi, self.dead)


def _fold(hc, lo, hi, rows, y_lo, y_hi):
    """Fold children (y_lo, y_hi) into the accumulators (lo, hi) of their
    parents rows, in order: a child's upper end folds into its parent's
    lower end.  Returns (lo, hi)."""
    if hc:
        np.multiply.at(lo, rows, 1.0 / (1.0 + y_hi))
        np.multiply.at(hi, rows, 1.0 / (1.0 + y_lo))
    else:
        np.add.at(lo, rows, y_hi)
        np.add.at(hi, rows, y_lo)
    return lo, hi


def _md_ends(a, kids, s, y_lo):
    """(lo, hi) of monomer-dimer nodes one level above the frontier with
    kids children, s their canonical sum and y_lo = table[kids] (both
    overwritten): hi = 1/(1 + gamma*s), and where s is below kids, as
    when a child is truncated, both ends rounded outward."""
    wide = s != kids
    s *= a
    s += 1.0
    y_hi = np.divide(1.0, s, out=s)
    np.multiply(y_lo, _DOWN, out=y_lo, where=wide)
    np.multiply(y_hi, _UP, out=y_hi, where=wide)
    return y_lo, y_hi


def _close(hc, a, lo, hi, dead=None):
    """The intervals of nodes whose children are folded into (lo, hi), as
    the depth-first walker closes them: a monomer-dimer node takes
    1/(1 + gamma*sum), rounded outward where its two sums differ, and a
    hard-core node an occupied loop copy stops (dead) is 0."""
    if not hc:
        wide = lo != hi
        lo = 1.0 / (1.0 + a * lo)
        hi = 1.0 / (1.0 + a * hi)
        np.multiply(lo, _DOWN, out=lo, where=wide)
        np.multiply(hi, _UP, out=hi, where=wide)
    elif dead is not None:
        lo[dead] = hi[dead] = 0.0
    return lo, hi


def _first_other(csr):
    """first[f]: the first neighbour of w other than u for the half-edge
    f = u -> w, in O(m), kept in csr.memo.  Where u is w's only neighbour
    the entry is unused (w is an exact leaf), and clip keeps its index in
    range."""
    if "first" not in csr.memo:
        start = csr.indptr.take(csr.nbrs)
        csr.memo["first"] = csr.nbrs.take(start + (csr.back == start), mode="clip")
    return csr.memo["first"]


def _pin_sums(csr, table):
    """(pin, sums) of a monomer-dimer leaf table, those of the last table
    kept in csr.memo.  pin[w] is the lower end of a truncated child w
    (`_pin_table`), 1.0 where w is lone.  For the arrival half-edge
    f = u -> p of a node u, sums[f] is the sum of pin over u's neighbours
    but p, the canonical sum of u when none of them is on the path and
    its exact children are lone.  Every such sum is exact, so its order
    does not matter."""
    kept = csr.memo.get("pin sums")
    if kept is None or kept[0] != table:
        pin = np.array(_pin_table(table)).take(np.maximum(csr.deg - 1, 0))
        src = csr.nbrs.take(csr.back)
        to = pin.take(csr.nbrs)
        sums = np.bincount(src, weights=to, minlength=len(csr.deg)).take(src) - to
        kept = csr.memo["pin sums"] = table, pin, sums
    return kept[1:]


class _CutSets(NamedTuple):
    """The graph-only half of the block walker's cut table, over the
    half-edges f = p -> u of one adjacency (`_cut_sets`).

    Row f of bits (stride bytes) has bit v mod width set for each vertex v
    of f's set: u's neighbours w1 but p, their neighbours w2 but u, and
    the first neighbour of each w2 of degree 2 or more other than its w1
    (`_first_other`).  mask is width - 1, or None when width reaches the
    vertex count and the bits are exact.  ok[f] says whether f may be cut
    at all: not when its set holds u or p, which lie on every path through
    f, nor when it has more than stride entries, which would rarely pass
    and whose build could take O(degree**2) per half-edge (a hub).
    below[f] is the number of nodes under u, its w1 and w2: the degrees
    of u's neighbours but p."""

    bits: np.ndarray
    mask: int | None
    stride: int
    ok: np.ndarray
    below: np.ndarray


def _cut_sets(csr) -> _CutSets | None:
    """The `_CutSets` of csr, or None where they do not pay (`_cut_pays`),
    built once and kept in csr.memo.  Hard-core needs only w1 and w2, but
    one table serves both models: a second would double its memory for
    about 4% more hard-core rows cut.  width is the largest power of two,
    at least 64 and at most the vertex count rounded up, whose bits fit in
    `_CUT_BYTES`.  The sets are built in chunks of about 2**14 entries;
    the build's other temporaries take O(1) words per half-edge."""
    if "cut" not in csr.memo:
        n, m2 = len(csr.deg), len(csr.nbrs)
        deg, nbrs, back = csr.deg, csr.nbrs, csr.back
        width = 64
        while width < n and m2 * width <= 4 * _CUT_BYTES:
            width *= 2
        stride = width // 8
        mask = width - 1 if width < n else None
        src = nbrs.take(back)
        ends = np.zeros(m2 + 1, dtype=np.intp)
        np.cumsum(deg.take(nbrs), out=ends[1:])
        below = (ends.take(csr.indptr[1:]) - ends.take(csr.indptr[:-1])).take(nbrs) - deg.take(src)
        one = deg.take(nbrs) - 1
        ok = one + 2 * (below - one) <= stride  # w1, and at most two per w2
        bits = np.zeros(m2 * stride, dtype=np.uint8)
        first = _first_other(csr)
        todo = np.flatnonzero(ok)
        total = np.cumsum((2 * below - one).take(todo))
        for part in np.split(todo, np.searchsorted(total, np.arange(2**14, total[-1:].sum(), 2**14))):
            r1, e1 = csr.steps(nbrs.take(part), back.take(part))
            r2, e2 = csr.steps(nbrs.take(e1), back.take(e1))
            w2 = nbrs.take(e2)
            far = deg.take(w2) > 1
            r2 = r1.take(r2)
            f = part.take(np.concatenate((r1, r2, r2[far])))
            vx = np.concatenate((nbrs.take(e1), w2, first.take(e2[far])))
            ok[f[(vx == nbrs.take(f)) | (vx == src.take(f))]] = False
            if mask is not None:
                vx &= mask
            np.bitwise_or.at(bits, f * stride + (vx >> 3), np.left_shift(1, vx & 7).astype(np.uint8))
        sets = _CutSets(bits, mask, stride, ok, below.astype(np.int32))
        csr.memo["cut"] = sets if _cut_pays(sets) else None
    return csr.memo["cut"]


def _cut_pays(sets) -> bool:
    """Whether the block walker tests rows against the cut table: when
    more than half of the half-edges may be cut.  Where short cycles reach
    most balls, as on gnp(50, 3) and small grids, few rows pass, and
    testing them costs more than the rows it cuts."""
    return 2 * np.count_nonzero(sets.ok) > len(sets.ok)


def _cut_table(csr, hc, a, table):
    """The block walker's cut table for one activity a and its leaf table:
    (`_cut_sets`, lo, hi), lo and hi the interval of the node u at the end
    of each half-edge f = p -> u that ok allows, as the walker folds and
    closes it when no vertex of f's set is on u's path; None where the
    sets do not pay.

    A row passes the test when no vertex of its set is on its path.  Then
    u has no loop copy, every w1 and w2 is a child, and its exact w2 are
    the lone ones (for monomer-dimer, every other w2 has its first other
    neighbour off the path, so it is truncated).  So u folds its w1 in
    ascending order, each at its scanned value: hard-core table[kids] and
    table[lone kids], monomer-dimer table[kids] and 1/(1 + gamma*sums) at
    its arrival, rounded outward where the two differ.  The same float
    operations as the walker's make each entry bit for bit the walked one.
    The last activity's entries are kept with the sets."""
    sets = _cut_sets(csr)
    if sets is None:
        return None
    key = ("cut values", hc)
    kept = csr.memo.get(key)
    if kept is None or kept[0] != a:
        nbrs, back, deg = csr.nbrs, csr.back, csr.deg
        fs = np.flatnonzero(sets.ok)
        rows, e1 = csr.steps(nbrs.take(fs), back.take(fs))
        w1 = nbrs.take(e1)
        kids = deg.take(w1) - 1
        leaf = np.array(table)
        y_lo = leaf.take(kids)
        start = a if hc else 0.0
        lo, hi = np.full(len(fs), start), np.full(len(fs), start)
        if hc:
            # each w1's lone children: its neighbours of degree 1, as u has two
            lone = np.bincount(nbrs.take(back), weights=deg.take(nbrs) == 1,
                               minlength=len(deg)).astype(np.intp)
            y_hi = leaf.take(lone.take(w1))
        else:
            y_lo, y_hi = _md_ends(a, kids, _pin_sums(csr, table)[1].take(back.take(e1)), y_lo)
        lo, hi = _close(hc, a, *_fold(hc, lo, hi, rows, y_lo, y_hi))
        lo_t, hi_t = np.zeros(len(nbrs)), np.zeros(len(nbrs))
        lo_t[fs], hi_t[fs] = lo, hi
        kept = csr.memo[key] = a, (lo_t, hi_t)
    return sets, *kept[1]


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
    """Sandwich widths hi - lo at the root of the full d-ary tree.

    On the d-ary tree the monomer recurrence collapses by symmetry to the
    scalar map f(x) = 1/(1 + gamma*d*x), which takes the interval [lo, hi]
    of the children to [f(hi), f(lo)], so the depth-l width is computable
    without materializing the d**l nodes.  Entry l of the returned list is
    the width for truncation depth l.  A frontier node with d children
    lies in [f(1), 1], the interval the sandwich walkers pin it to, so
    entry 0 is 1 - f(1).  Cross-checked against the full evaluator on
    small trees in the test suite.
    """
    if d < 1 or max_depth < 0 or not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("need d >= 1, max_depth >= 0, finite gamma > 0")
    lo, hi = 1.0 / (1.0 + gamma * d), 1.0
    gaps = [hi - lo]
    for _ in range(max_depth):
        lo, hi = 1.0 / (1.0 + gamma * d * hi), 1.0 / (1.0 + gamma * d * lo)
        gaps.append(hi - lo)
    return gaps


def dary_md_depth_for_tol(d: int, gamma: float, tol: float, depth_cap: int = 10**5) -> int:
    """Smallest truncation depth with d-ary-tree sandwich width <= 2*tol.

    d and gamma are checked as `dary_md_gaps` checks them."""
    dary_md_gaps(d, gamma, 0)
    if not tol > 0:
        raise ValueError("tol must be positive")
    lo, hi = 1.0 / (1.0 + gamma * d), 1.0
    depth = 0
    while hi - lo > 2.0 * tol:
        lo, hi = 1.0 / (1.0 + gamma * d * hi), 1.0 / (1.0 + gamma * d * lo)
        depth += 1
        if depth > depth_cap:
            raise ArithmeticError("gap did not reach tolerance")
    return depth


def apriori_interval(params: ModelParams, g: Graph, v: int, lo=None, hi=None):
    """The interval of the marginal at v that needs no tree, narrowed by
    the ends lo and hi where they are given: [0, lambda] for the
    hard-core ratio, [1/(1 + gamma*deg(v)), 1] for the monomer
    probability, as every neighbor's is at most 1."""
    if params.model == HARDCORE:
        return (0.0 if lo is None else lo), (params.activity if hi is None else hi)
    p_min = 1.0 / (1.0 + params.activity * len(g.adjacency[v]))
    return (p_min if lo is None else max(lo, p_min)), (1.0 if hi is None else hi)


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
    sandwich interval of `sandwich_values`.
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
    exact, then returns the midpoint of that interval narrowed by
    `apriori_interval`.  The certificate is the sandwich property alone.
    Raises AdaptiveBudgetError (carrying the interval of the last pass) if
    the node budget runs out first.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if budget <= 0:
        raise ValueError("budget must be positive")
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
    can run it in stages: its certified interval, the last two passes as
    (depth, measure, nodes), oldest first, and the nodes of all passes.
    The interval starts at the root's `apriori_interval` and is then that
    of the last pass, narrowed by it.  Sandwich intervals nest as the
    depth grows, so the last interval is the narrowest, and an exact one
    measures 0.  The node growth per level of the last two passes both
    cuts the next depth step to the budget and predicts the next pass's
    node count."""

    last: tuple
    passes: list = field(default_factory=list)
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
    expanded in total) of the last pass, its interval narrowed by
    `apriori_interval`.  The measure reads the pass's own pair.

    After each truncated pass the per-level contraction of the measure is
    fitted from the last two passes, rate = (w / w_prev)**(1/depth step),
    and the depth steps by the number of levels that rate predicts are
    still needed, ceil(log(target/w) / log(rate)).  The step is at least 1
    and at most the current depth (never more than doubling), and it is
    cut so that the next pass, extrapolated from the node growth of the
    last two passes, fits in what is left of the budget.  Without a usable
    rate (a measure that is infinite or did not shrink) the depth steps
    by 1.  Raises AdaptiveBudgetError with the loop's interval and the
    depth of its last pass (0 before the first) if the budget runs out
    first.
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
    st = _Deepening(apriori_interval(params, g, v)) if state is None else state
    while True:
        if not st.passes:
            depth = 0
        elif st.settled(target) or until is not None and st.passes[-1][0] >= until:
            return (*st.last, st.passes[-1][0], st.total)
        else:
            depth = st.next_depth(target, budget)
        last = (*st.last, st.passes[-1][0] if st.passes else 0)
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
        st.last = apriori_interval(params, g, v, *pairs[0])
        st.passes = [*st.passes[-1:], (depth, measure(*pairs[0]), nodes)]
