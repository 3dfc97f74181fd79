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
at once, by counting non-backtracking walks on the CSR's half-edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

FREE = "free"
OCCUPIED = "occupied"
UNOCCUPIED = "unoccupied"

PLAIN = "plain"
WEITZ = "weitz"

_BLOCK = 4096  # walks per block in saw_counts


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
    hits on those positions.  The stack keeps at most one extension's
    children per length pending, so memory stays within
    O(l_max**2 * _BLOCK * max degree) entries.

    `budget` caps the number of walks counted: NodeBudgetError(budget + 1)
    is raised as soon as the running total exceeds it, the same condition
    and value as a depth-first count that stops at its (budget + 1)-th walk.
    A budget of 0 is legal (`conn_profile` passes what it has left); a
    negative one is not.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    csr = g.csr
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
        children = np.vstack((paths.take(rows, axis=1), cand))
        arrive = csr.back.take(flat)
        for lo in range(0, found, _BLOCK):
            stack.append((children[:, lo:lo + _BLOCK], arrive[lo:lo + _BLOCK]))
    return counts[1:]


def nonbacktracking_totals(g: Graph, l_max: int) -> np.ndarray:
    """Cumulative non-backtracking walk counts of every vertex, as float64:
    entry [v, l - 1] is the number of non-backtracking walks of 1..l steps
    from v, for l <= l_max.

    Every self-avoiding walk is non-backtracking, so row v bounds the
    running sums of saw_counts(g, v, l_max) from above.  The count runs on
    half-edges in O(l_max * m): the walks of k steps that start along
    f = u -> w number W_1[f] = 1 and W_k[f] = S_{k-1}[w] - W_{k-1}[back[f]],
    where S_k[w] sums W_k over the half-edges out of w, and v has S_k[v]
    walks of k steps.  Sums of nonnegative integers are exact in float64
    below 2**53; an entry that reaches it, or depends on one that did, is
    inf, which still bounds the count.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    exact = 2.0**53  # float64 holds every integer below this
    csr = g.csr
    src = np.repeat(np.arange(g.n), csr.deg)
    walks = np.ones(len(csr.nbrs))
    totals = np.empty((g.n, l_max))
    total = np.zeros(g.n)
    for k in range(l_max):
        if k:
            walks = out_sums.take(csr.nbrs) - walks.take(csr.back)
            walks[~(walks < exact)] = np.inf  # inf - inf is nan: inf too
        # astype: with no half-edges bincount returns ints
        out_sums = np.bincount(src, weights=walks, minlength=g.n).astype(float, copy=False)
        out_sums[out_sums >= exact] = np.inf
        total += out_sums
        total[total >= exact] = np.inf
        totals[:, k] = total
    return totals
