"""Depth-bounded self-avoiding-walk trees over a graph.

A SAW tree rooted at v has one node per self-avoiding walk starting at v;
the children of a walk are its one-step extensions.  Two modes:

  plain  -- children are the graph-neighbors of the endpoint not already on
            the root path.  Used for monomer-dimer marginals, where the
            tree transfers the monomer probability exactly.

  weitz  -- additionally, a step that returns to a vertex already on the
            root path (closing a cycle of length >= 3) is kept as a leaf
            copy of that vertex, pinned "occupied" or "unoccupied": let the
            cycle be x, x_next, ..., w, x; the copy is pinned occupied when
            x_next precedes w in the ordering of x's neighbors, else
            unoccupied.  With these pins the occupation ratio at the root
            of the tree equals the ratio in the graph.  The neighbor
            ordering is fixed to ascending vertex id everywhere, so trees
            are reproducible.  `loop_copy_occupied` defines this pin
            for `expand_saw_tree` and the depth-first walker of
            `recurrence`; the block walker (`recurrence._sandwich_blocks`,
            in `step`) applies it on whole arrays as `after < end[...]`,
            and `test_block_walker_matches_dfs` keeps the two equal.

Stepping back to the walk's immediate predecessor is never a child in
either mode (a length-2 closed walk is not a cycle of a simple graph).

A user boundary pins whole graph vertices.  A pinned vertex never enters
the root path, so loop copies are always pinned by the loop-closing rule.
A copy of a vertex pinned unoccupied is an unoccupied leaf.  An occupied
pin prunes: every graph-neighbor of an occupied vertex is forced
unoccupied, so copies of such neighbors become unoccupied leaves and their
subtrees are skipped, and the occupied vertex itself is never reached.

Expansion stops at max_depth; a node at max_depth whose walk has
extensions in the untruncated tree, other than unoccupied leaves, is
recorded on the truncated frontier (the recurrence evaluator pins frontier
nodes to an initial condition).

`saw_counts` counts plain-mode walks without building a tree: it extends
blocks of at most `_BLOCK` walks of one length at a time with numpy array
operations, keeping pending blocks on a LIFO stack, so its memory stays
within O(l_max**2 * _BLOCK * max degree) entries.  It lists a block's
steps from the graph's CSR adjacency (`Graph.csr`, `Csr.steps`): every
neighbour but the arrival half-edge, so the step back to the parent is
never listed.  The block walker of `recurrence` shares these steps and
the block's one array of paths, a row per position, a column per walk.
`nonbacktracking_totals` bounds those counts from above for every vertex
at once, by counting non-backtracking walks on the CSR's half-edges
(`_half_edge_walks`).

Both numpy walkers read subtrees near their last level off tables over
the half-edges f = p -> u, built once per adjacency by one builder
(`_half_edge_sets`) and kept in `Csr.memo`.  Row f holds, as bits, the
vertices within a few non-backtracking steps of u that do not step back
to p, vertex v at bit v mod the row width.  Where no vertex of the row
is on a walk's path, the walk's subtree below u depends on f alone:
`saw_counts` reads its last three lengths off such a table, and the
block walker of `recurrence` its nodes two levels above the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .graph import Graph

FREE = "free"
OCCUPIED = "occupied"
UNOCCUPIED = "unoccupied"

PLAIN = "plain"
WEITZ = "weitz"

_BLOCK = 4096  # walks per block in saw_counts
_CUT_BYTES = 2**21  # a half-edge table's bits take at most this, or 8 bytes a half-edge
_EXACT = 2.0**53  # float64 holds every integer below this


class NodeBudgetError(RuntimeError):
    """Expansion or enumeration exceeded its node budget."""

    def __init__(self, nodes_expanded: int):
        super().__init__(f"node budget exceeded after {nodes_expanded} nodes")
        self.nodes_expanded = nodes_expanded


@dataclass(frozen=True)
class BoundaryCondition:
    """Partial occupancy assignment on graph vertices (hard-core only).

    assignments maps vertex id -> OCCUPIED or UNOCCUPIED.  The occupied
    vertices must form an independent set; validate() checks this against
    a concrete graph.
    """

    assignments: dict

    def __post_init__(self):
        for v, state in self.assignments.items():
            if state not in (OCCUPIED, UNOCCUPIED):
                raise ValueError(f"bad pin {state!r} for vertex {v}")

    def occupied(self) -> set:
        return {v for v, s in self.assignments.items() if s == OCCUPIED}

    def unoccupied(self) -> set:
        return {v for v, s in self.assignments.items() if s == UNOCCUPIED}

    def blocked(self, g: Graph) -> set:
        """Vertices pinned unoccupied or forced unoccupied by an occupied
        neighbor."""
        return self.unoccupied() | {u for w in self.occupied() for u in g.adjacency[w]}

    def validate(self, g: Graph):
        occ = self.occupied()
        for v in self.assignments:
            if not (0 <= v < g.n):
                raise ValueError(f"pinned vertex {v} out of range")
        for v in occ:
            if any(u in occ for u in g.adjacency[v]):
                raise ValueError("occupied pins must form an independent set")


@dataclass
class SawNode:
    graph_vertex: int
    depth: int
    fix: str = FREE
    children: list = field(default_factory=list)
    is_frontier: bool = False


@dataclass
class SawTree:
    root: SawNode
    mode: str
    max_depth: int
    level_counts: list
    truncated_frontier: list
    nodes_expanded: int


def loop_copy_occupied(path: list, pos: int, last: int) -> bool:
    """Weitz pin of the loop copy of path[pos] reached from endpoint `last`.

    The cycle is path[pos], path[pos + 1], ..., last, path[pos].  With the
    ascending-id ordering at every vertex, the copy is pinned occupied
    exactly when the vertex that started the cycle, path[pos + 1], has a
    smaller id than `last`, and unoccupied otherwise.
    """
    return path[pos + 1] < last


def expand_saw_tree(
    g: Graph,
    root: int,
    max_depth: int,
    mode: str = PLAIN,
    boundary: BoundaryCondition | None = None,
    node_budget: int = 10**7,
) -> SawTree:
    """Materialize the depth-bounded SAW tree rooted at `root`.

    Raises NodeBudgetError when more than node_budget nodes would be
    created.  Deterministic: children appear in ascending vertex-id order,
    loop-closing leaves interleaved at their natural position.
    """
    if not (0 <= root < g.n):
        raise ValueError(f"root {root} out of range")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if node_budget <= 0:
        raise ValueError("node_budget must be positive")
    if mode not in (PLAIN, WEITZ):
        raise ValueError(f"unknown mode {mode!r}")
    if boundary is not None:
        if mode != WEITZ:
            raise ValueError("boundary conditions apply to weitz mode only")
        boundary.validate(g)
        if root in boundary.assignments:
            raise ValueError("boundary must not pin the root vertex")
    blocked = boundary.blocked(g) if boundary is not None else frozenset()

    adj = g.adjacency
    level_counts = [0] * (max_depth + 1)
    frontier: list[SawNode] = []
    count = 0

    def new_node(vertex, depth, fix=FREE):
        nonlocal count
        count += 1
        if count > node_budget:
            raise NodeBudgetError(count)
        level_counts[depth] += 1
        return SawNode(vertex, depth, fix)

    # path_pos maps graph vertex -> its index on the current root path,
    # so loop closures can find the vertex that started the cycle.
    path_pos = {root: 0}
    path = [root]

    def expand(node: SawNode):
        v = node.graph_vertex
        depth = node.depth
        parent = path[-2] if len(path) >= 2 else -1
        if mode == PLAIN:
            extensions = [w for w in adj[v] if w not in path_pos]
        else:
            extensions = [w for w in adj[v] if w != parent]
        if not extensions:
            return
        if depth == max_depth:
            # extensions that are all blocked would be unoccupied leaves:
            # the node then keeps its exact leaf value
            if any(w not in blocked for w in extensions):
                node.is_frontier = True
                frontier.append(node)
            return
        for w in extensions:
            pos = path_pos.get(w)
            if pos is not None:
                # loop-closing copy (weitz mode only reaches here); path
                # vertices are never pinned, so the loop rule decides
                fix = OCCUPIED if loop_copy_occupied(path, pos, v) else UNOCCUPIED
                node.children.append(new_node(w, depth + 1, fix))
                continue
            if w in blocked:
                node.children.append(new_node(w, depth + 1, UNOCCUPIED))
                continue
            child = new_node(w, depth + 1)
            path_pos[w] = len(path)
            path.append(w)
            expand(child)
            path.pop()
            del path_pos[w]
            node.children.append(child)

    root_node = new_node(root, 0)
    if root in blocked:
        root_node.fix = UNOCCUPIED
    else:
        expand(root_node)
    return SawTree(root_node, mode, max_depth, level_counts, frontier, count)


def saw_counts(g: Graph, v: int, l_max: int, budget: int = 10**8) -> list:
    """Exact self-avoiding-walk counts N(v, 1..l_max), a block of walks at a time.

    No tree is materialized.  A block holds at most `_BLOCK` walks of one
    length k as one (k + 1, walks) array in the CSR's id dtype, row i the
    vertex after i steps, and the half-edge each walk arrived by.  Extending
    a block lists every neighbour of each endpoint but the arrival half-edge
    (`Csr.steps`), and keeps the candidates that differ from every position
    older than the parent, in one comparison of their gathered paths.  The
    survivors are counted and, below l_max - 1, pushed on a LIFO stack as
    blocks of columns of their paths.  Children of length l_max - 1 are
    not pushed: their steps are listed in chunks of `_BLOCK` children and
    counted in place, their paths read as the block's columns through the
    children's rows.  A grandchild on the walk equals exactly one position
    older than its parent, so a chunk counts the grandchildren less the
    hits on those positions.

    Children of length l_max - 3 and l_max - 2 are tested against the walk
    table first, the sets of `_half_edge_sets` at radius 3 (`_walk_cut`).
    A child that ends at u, reached along f = p -> u, passes when f may be
    cut and no vertex of f's set is on its path above p: one gather of a
    byte per path vertex off f's row of bits.  A walk of 1-3 steps out of
    u that never steps back to p has distinct vertices unless it closes a
    triangle at u, which puts u in the set.  So where the set misses the
    path, u and p, every such walk is a self-avoiding extension, and the
    child has W_{j+1}[f] extensions of j steps, the walks that
    `nonbacktracking_totals` counts on f.  A passing child adds those to
    the counts of its next lengths and is not pushed.  A child of length
    l_max - 2 needs only two more lengths, whose radius-2 set lies inside
    the radius-3 one, so the same table serves it, a few rows stricter.
    The children that fail are pushed as before.  On a graph where at most
    half of the half-edges may be cut (`_cut_pays`), as on grids and small
    loopy graphs, no child is tested.

    The stack keeps at most one extension's children per length pending,
    so memory stays within O(l_max**2 * _BLOCK * max degree) entries,
    beside the walk table kept with g's adjacency (at most `_CUT_BYTES`
    of bits and 13 bytes per half-edge).

    `budget` caps the number of walks counted: NodeBudgetError(budget + 1)
    is raised as soon as the running total exceeds it, the same condition
    and value as a depth-first count that stops at its (budget + 1)-th walk.
    Walks read off the table count when they are added, and a total that
    only grows exceeds the budget at some point exactly when the final
    total does, so the error is the depth-first count's too.  A budget of
    0 is legal (`conn_profile` passes what it has left); a negative one is
    not.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    csr = g.csr
    cut = _walk_cut(csr) if l_max >= 3 else None
    counts = [0] * (l_max + 1)
    total = 0

    def count(length, found):
        nonlocal total
        counts[length] += found
        total += found
        if total > budget:
            raise NodeBudgetError(budget + 1)

    stack = [(np.array([[v]], dtype=csr.nbrs.dtype), None)]
    while stack:
        paths, arrive = stack.pop()
        length = len(paths)  # of the walks this block extends to
        rows, flat = csr.steps(paths[-1], arrive)
        cand = csr.nbrs.take(flat)
        # the last row is the endpoint, the one before it the arrival
        keep = (paths[:-2].take(rows, axis=1) != cand).all(axis=0)
        rows, flat, cand = rows[keep], flat[keep], cand[keep]
        found = len(cand)
        count(length, found)
        if length == l_max or not found:
            continue
        if length == l_max - 1:
            # the last length, in place: a grandchild on the walk equals
            # exactly one position older than its parent
            for lo in range(0, found, _BLOCK):
                part = slice(lo, lo + _BLOCK)
                sub, nxt = csr.steps(cand[part], csr.back.take(flat[part]))
                grand = csr.nbrs.take(nxt)
                on = paths[:-1].take(rows[part].take(sub), axis=1) == grand
                count(l_max, len(grand) - int(np.count_nonzero(on)))
            continue
        if cut is not None and length >= l_max - 3:
            # the children whose path above their parent misses the set of
            # their arrival half-edge: the walks out of them are theirs
            read = np.flatnonzero(cut.ok.take(flat))
            read = read[cut.misses(paths[:-1].take(rows.take(read), axis=1), flat.take(read))]
            if len(read):
                f = flat.take(read)
                for j in range(l_max - length):
                    count(length + 1 + j, int(cut.below[j].take(f).sum()))
                walk = np.ones(found, dtype=bool)
                walk[read] = False
                rows, flat, cand = rows[walk], flat[walk], cand[walk]
        children = np.vstack((paths.take(rows, axis=1), cand))
        arrive = csr.back.take(flat)
        for lo in range(0, len(cand), _BLOCK):
            stack.append((children[:, lo:lo + _BLOCK], arrive[lo:lo + _BLOCK]))
    return counts[1:]


def _half_edge_walks(csr, l_max):
    """Yield (W_k, S_k) for k = 1..l_max, as float64: W_k[f] the number of
    non-backtracking walks of k steps that start along the half-edge
    f = u -> w, and S_k[w] the sum of W_k over the half-edges out of w,
    the number of such walks from w.  W_1[f] = 1 and
    W_k[f] = S_{k-1}[w] - W_{k-1}[back[f]], in O(m) a step.  Sums of
    nonnegative integers are exact in float64 below 2**53; an entry that
    reaches it, or depends on one that did, is inf, which still bounds
    the count.  Each step overwrites the arrays of the one before, so
    the walk takes O(1) words per half-edge."""
    n = len(csr.deg)
    src = csr.nbrs.take(csr.back)  # u, for each half-edge u -> w
    walks = np.ones(len(csr.nbrs))
    for k in range(l_max):
        if k:
            prev = walks.take(csr.back)
            # clip: indices in range, and "raise" would copy into out
            np.subtract(out_sums.take(csr.nbrs, out=walks, mode="clip"), prev, out=walks)
            del prev
            walks[~(walks < _EXACT)] = np.inf  # inf - inf is nan: inf too
        # astype: with no half-edges bincount returns ints
        out_sums = np.bincount(src, weights=walks, minlength=n).astype(float, copy=False)
        out_sums[out_sums >= _EXACT] = np.inf
        yield walks, out_sums


def nonbacktracking_totals(g: Graph, l_max: int) -> np.ndarray:
    """Cumulative non-backtracking walk counts of every vertex, as float64:
    entry [v, l - 1] is the number of non-backtracking walks of 1..l steps
    from v, for l <= l_max.

    Every self-avoiding walk is non-backtracking, so row v bounds the
    running sums of saw_counts(g, v, l_max) from above.  The count runs on
    half-edges in O(l_max * m) (`_half_edge_walks`): v has S_k[v] walks
    of k steps.  An entry that reaches 2**53, or depends on one that did,
    is inf, which still bounds the count.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    totals = np.empty((g.n, l_max))
    total = np.zeros(g.n)
    for k, (_, out_sums) in enumerate(_half_edge_walks(g.csr, l_max)):
        total += out_sums
        total[total >= _EXACT] = np.inf
        totals[:, k] = total
    return totals


class _CutSets(NamedTuple):
    """Vertex sets over the half-edges f = p -> u of one adjacency
    (`_half_edge_sets`), and the walks under them.

    Row f of bits (stride bytes) has bit v mod width set for each vertex v
    of f's set: the vertices that non-backtracking walks of 1..radius
    steps out of u, never stepping back to p, reach, and with `first`
    the first neighbour of each vertex at radius, of degree 2 or more,
    other than the vertex before it.  mask is width - 1, or None when
    width reaches the vertex count and the bits are exact.  ok[f] says
    whether f may be cut at all: not when its set holds u or p, which lie
    on every path through f, nor when it may have more than stride
    entries, which would rarely pass and whose build could take
    O(degree**radius) per half-edge (a hub).  below[j - 1, f] is
    W_{j+1}[f] (`_half_edge_walks`), the walks of j steps out of u that
    do not step back to p, for j = 1..radius, as int32: exact where ok,
    clipped at stride + 1 elsewhere."""

    bits: np.ndarray
    mask: int | None
    stride: int
    ok: np.ndarray
    below: np.ndarray

    def misses(self, top, f):
        """Whether no vertex of column k of top is in the set of the
        half-edge f[k]: one gather of a byte per entry of top."""
        if self.mask is not None:
            top = top & self.mask
        byte = self.bits.take(np.add(top >> 3, (f * self.stride).astype(np.int32), dtype=np.int32))
        np.right_shift(byte, (top & 7).astype(np.uint8), out=byte)
        byte &= 1
        return ~byte.any(axis=0)


def _cut_pays(ok) -> bool:
    """Whether a walker tests rows against a table of `_CutSets` with
    this ok: when more than half of the half-edges may be cut.  Where
    short cycles reach most balls, as on gnp(50, 3) and small grids, or
    most sets outgrow the narrow rows of a large graph, few rows pass,
    and testing them costs more than the rows it cuts."""
    return 2 * np.count_nonzero(ok) > len(ok)


def _half_edge_sets(csr, radius, pays, first=None) -> _CutSets | None:
    """The `_CutSets` of csr at radius >= 1, or None where pays(ok) says
    they do not pay.  With first, a function of csr giving the first
    neighbour of w other than u for each half-edge u -> w, each set also
    holds that neighbour of each of its vertices at radius.

    width is the largest power of two, at least 64 and at most the vertex
    count rounded up, whose bits fit in `_CUT_BYTES`.  The walks below u
    bound the number of entries of each set, so the half-edges that may
    have more than stride are refused, and pays is asked first of that
    size-only ok, before any bit is allocated; the final ok, which also
    drops the sets that hold u or p, is a subset of it and is asked
    again.  The sets are built in chunks of about 2**14 entries; the
    build's other temporaries take O(radius) words per half-edge."""
    n, m2 = len(csr.deg), len(csr.nbrs)
    nbrs, back = csr.nbrs, csr.back
    width = 64
    while width < n and m2 * width <= 4 * _CUT_BYTES:
        width *= 2
    stride = width // 8
    mask = width - 1 if width < n else None
    # clipped at stride + 1, so a set's size is the sum of its column
    below = np.empty((radius, m2), dtype=np.int32)
    walks = _half_edge_walks(csr, radius + 1)
    next(walks)  # W_1, the step along f itself
    for j, (w, _) in enumerate(walks):
        np.minimum(w, stride + 1, out=below[j], casting="unsafe")
    size = below.sum(axis=0, dtype=np.int32)
    if first is not None:
        size += below[-1]  # at most one entry more per vertex at radius
    ok = size <= stride
    if not pays(ok):
        return None
    bits = np.zeros(m2 * stride, dtype=np.uint8)
    src = nbrs.take(back)
    other = first(csr) if first is not None else None
    todo = np.flatnonzero(ok)
    total = np.cumsum(size.take(todo))
    for part in np.split(todo, np.searchsorted(total, np.arange(2**14, total[-1:].sum(), 2**14))):
        rows, e = csr.steps(nbrs.take(part), back.take(part))
        f, vx = [rows], [nbrs.take(e)]
        for _ in range(1, radius):
            sub, e = csr.steps(vx[-1], back.take(e))
            rows = rows.take(sub)
            f.append(rows)
            vx.append(nbrs.take(e))
        if other is not None:
            far = csr.deg.take(vx[-1]) > 1
            f.append(rows[far])
            vx.append(other.take(e[far]))
        f = part.take(np.concatenate(f))
        vx = np.concatenate(vx)
        ok[f[(vx == nbrs.take(f)) | (vx == src.take(f))]] = False
        if mask is not None:
            vx &= mask
        np.bitwise_or.at(bits, f * stride + (vx >> 3), np.left_shift(1, vx & 7).astype(np.uint8))
    if not pays(ok):
        return None
    return _CutSets(bits, mask, stride, ok, below)


def _walk_cut(csr) -> _CutSets | None:
    """saw_counts' table: the `_CutSets` of csr at radius 3, or None where
    they do not pay (`_cut_pays`), built once and kept in csr.memo."""
    if "walk cut" not in csr.memo:
        csr.memo["walk cut"] = _half_edge_sets(csr, 3, _cut_pays)
    return csr.memo["walk cut"]
