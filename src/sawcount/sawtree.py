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
            are reproducible.  `loop_copy_occupied` is the one definition
            of this pin, shared by `expand_saw_tree` and the fused
            evaluator in `recurrence`.

Stepping back to the walk's immediate predecessor is never a child in
either mode (a length-2 closed walk is not a cycle of a simple graph).

A user boundary pins whole graph vertices.  Pins override the loop-closing
rule on copies of pinned vertices.  An occupied pin also prunes: every
graph-neighbor of an occupied vertex is forced unoccupied, so copies of
such neighbors become unoccupied leaves and their subtrees are skipped.

Expansion stops at max_depth; a node at max_depth whose walk has
extensions in the untruncated tree is recorded on the truncated frontier
(the recurrence evaluator pins frontier nodes to an initial condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph

FREE = "free"
OCCUPIED = "occupied"
UNOCCUPIED = "unoccupied"

PLAIN = "plain"
WEITZ = "weitz"


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
    occ = boundary.occupied() if boundary is not None else frozenset()
    unocc = boundary.unoccupied() if boundary is not None else frozenset()
    forced = {u for w in occ for u in g.adjacency[w]}

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
            node.is_frontier = True
            frontier.append(node)
            return
        for w in extensions:
            pos = path_pos.get(w)
            if pos is not None:
                # loop-closing copy (weitz mode only reaches here)
                if w in unocc:
                    fix = UNOCCUPIED
                elif w in occ:
                    fix = OCCUPIED
                else:
                    fix = OCCUPIED if loop_copy_occupied(path, pos, v) else UNOCCUPIED
                node.children.append(new_node(w, depth + 1, fix))
                continue
            if mode == WEITZ and w in occ:
                node.children.append(new_node(w, depth + 1, OCCUPIED))
                continue
            if mode == WEITZ and (w in unocc or w in forced):
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
    if mode == WEITZ and root in forced:
        root_node.fix = UNOCCUPIED
    else:
        expand(root_node)
    return SawTree(root_node, mode, max_depth, level_counts, frontier, count)


def saw_counts(g: Graph, v: int, l_max: int, budget: int = 10**8) -> list:
    """Exact self-avoiding-walk counts N(v, 1..l_max) by DFS enumeration.

    No tree is materialized; `budget` caps the number of walk extensions
    visited and raises NodeBudgetError beyond it.
    """
    if not (0 <= v < g.n):
        raise ValueError(f"vertex {v} out of range")
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    counts = [0] * (l_max + 1)
    adj = g.adjacency
    visited = {v}
    steps = 0

    def dfs(u, depth):
        nonlocal steps
        for w in adj[u]:
            if w in visited:
                continue
            steps += 1
            if steps > budget:
                raise NodeBudgetError(steps)
            counts[depth] += 1
            if depth < l_max:
                visited.add(w)
                dfs(w, depth + 1)
                visited.remove(w)

    dfs(v, 1)
    return counts[1:]
