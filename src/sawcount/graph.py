"""Immutable simple undirected graphs: text I/O, generators, degree stats.

Vertex ids are dense integers 0..n-1.  The edge-list text format is one
edge "u v" per line; lines starting with '#' are comments.  An optional
first line "# n <int>" raises the vertex count above what the edge list
implies, which is the only way to represent trailing isolated vertices.

The random graph generator (kind="gnp") draws each potential edge
independently with probability min(d/n, 1) using numpy's PCG64 stream
(``numpy.random.default_rng(seed)``), scanning vertex pairs (u, v) with
u < v in lexicographic order.  Fixing the seed therefore fixes the graph
bit-for-bit across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

GNP_GENERATOR = "numpy.random.default_rng (PCG64), lexicographic pair scan"


@dataclass(frozen=True)
class Csr:
    """A graph's adjacency in CSR form: the neighbors of u, ascending, are
    nbrs[indptr[u]:indptr[u + 1]], and deg[u] is their number.  Vertex ids
    are int16 when n <= 32767 and int32 above.

    A flat index f into nbrs names the half-edge u -> nbrs[f], and back[f]
    is the flat index of its reverse, nbrs[f] -> u."""

    deg: np.ndarray
    indptr: np.ndarray
    nbrs: np.ndarray
    back: np.ndarray

    @classmethod
    def of(cls, n: int, adjacency) -> Csr:
        """The CSR form of a graph's n ascending neighbor lists, built in
        O(n + m log m)."""
        dtype = np.int16 if n <= np.iinfo(np.int16).max else np.int32
        deg = np.fromiter(map(len, adjacency), dtype=np.intp, count=n)
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(deg, out=indptr[1:])
        nbrs = np.fromiter(chain.from_iterable(adjacency), dtype=dtype, count=int(indptr[-1]))
        # the keys u*n + w of the half-edges u -> w ascend in flat order
        src = np.repeat(np.arange(n, dtype=np.intp), deg)
        key = src * n + nbrs
        back = np.searchsorted(key, nbrs.astype(np.intp) * n + src)
        return cls(deg, indptr, nbrs, back)

    def without(self, gone) -> Csr:
        """This adjacency with the vertices where the bool mask `gone` is
        set left out, in O(n + m): every half-edge at a left-out vertex is
        dropped, so those vertices keep their ids but have no neighbors."""
        src = np.repeat(np.arange(len(self.deg)), self.deg)
        keep = ~gone.take(self.nbrs) & ~gone.take(src)
        deg = np.bincount(src[keep], minlength=len(self.deg))
        indptr = np.zeros_like(self.indptr)
        np.cumsum(deg, out=indptr[1:])
        # the kept half-edges' new flat indices
        moved = np.cumsum(keep) - 1
        return Csr(deg, indptr, self.nbrs[keep], moved.take(self.back[keep]))

    @cached_property
    def max_degree(self) -> int:
        """The largest degree, 0 for no vertices; computed once."""
        return int(self.deg.max(initial=0))

    @cached_property
    def memo(self) -> dict:
        """Tables that other modules derive from this adjacency, kept with
        it under their own keys (the adjacency never changes)."""
        return {}

    def steps(self, end, arrive=None):
        """(rows, flat): every half-edge flat[k] out of every vertex
        end[rows[k]] but the one the row arrived by, grouped by row in
        ascending order, each row's neighbors ascending.

        arrive[r] is the flat index of the half-edge from end[r] back to
        the vertex it was reached from, back[f] of the step f that reached
        it; None lists every neighbor (a root)."""
        d = self.deg.take(end)
        if arrive is not None:
            d -= 1
        rows = np.repeat(np.arange(len(end)), d)
        # flat index of each step: its row's slice start + offset, plus
        # one from the arrival on
        base = self.indptr.take(end)
        base -= np.cumsum(d)
        base += d
        flat = np.arange(len(rows))
        flat += base.take(rows)
        if arrive is not None:
            flat += flat >= arrive.take(rows)
        return rows, flat


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; adjacency[v] is a strictly ascending tuple.

    Instances are immutable after construction and safe for concurrent
    shared reads.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def csr(self) -> Csr:
        """The adjacency in CSR form, built on first use and kept (the
        graph never changes)."""
        return Csr.of(self.n, self.adjacency)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """degrees[v] = len(adjacency[v]), computed once."""
        return tuple(map(len, self.adjacency))

    @property
    def num_edges(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self):
        """Yield edges as (u, v) with u < v, ascending."""
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)


def graph_from_edges(n: int, edges) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Rejects self-loops, duplicate edges (in either orientation) and
    endpoints outside 0..n-1.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    seen = set()
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, tuple(tuple(sorted(a)) for a in adj))


def graph_from_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    '#' begins a comment line; an optional first line "# n <int>" raises
    the vertex count.  Errors carry the 1-based line number.
    """
    n_header = None
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1:
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "n":
                    try:
                        n_header = int(parts[1])
                    except ValueError:
                        raise ValueError(f"line 1: malformed header {line!r}")
                    if n_header < 0:
                        raise ValueError("line 1: header n must be nonnegative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed token in {line!r}")
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex id in {line!r}")
        if u == v:
            raise ValueError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = max_id + 1
    if n_header is not None:
        n = max(n, n_header)
    return graph_from_edges(n, edges)


def graph_to_edge_list(g: Graph) -> str:
    """Serialize to the edge-list format; round-trips through the parser."""
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def degree_stats(g: Graph) -> tuple[int, float]:
    """Return (max_degree, mean_degree); (0, 0.0) for an edgeless graph."""
    if g.n == 0:
        return 0, 0.0
    degs = [len(a) for a in g.adjacency]
    return max(degs), sum(degs) / g.n


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _gen_complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _gen_grid(width: int, height: int) -> Graph:
    if width < 1 or height < 1:
        raise ValueError("grid needs width, height >= 1")
    idx = lambda x, y: y * width + x
    edges = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width:
                edges.append((idx(x, y), idx(x + 1, y)))
            if y + 1 < height:
                edges.append((idx(x, y), idx(x, y + 1)))
    return graph_from_edges(width * height, edges)


def _gen_dary_tree(d: int, depth: int) -> Graph:
    """Full d-ary tree: every vertex above the leaf level has d children."""
    if d < 1 or depth < 0:
        raise ValueError("dary_tree needs d >= 1, depth >= 0")
    n = sum(d**k for k in range(depth + 1))
    edges = []
    # BFS numbering: children of node i are d*i + 1 .. d*i + d
    next_id = 1
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for u in frontier:
            for _ in range(d):
                edges.append((u, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return graph_from_edges(n, edges)


def _gen_gnp(n: int, d: float, seed: int) -> Graph:
    if n < 1 or d <= 0:
        raise ValueError("gnp needs n >= 1, d > 0")
    p = min(d / n, 1.0)
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n - 1):
        draws = rng.random(n - 1 - u)
        for off in np.nonzero(draws < p)[0]:
            edges.append((u, u + 1 + int(off)))
    return graph_from_edges(n, edges)


def _integral(name: str, value) -> int:
    """A size parameter as an int: 2 and 2.0 give 2, anything else raises."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def gen_graph(kind: str, seed: int = 0, **params) -> Graph:
    """Generate a graph of the given kind.

    Kinds and parameters:
      cycle:     n >= 3
      complete:  n >= 1
      grid:      width, height >= 1
      dary_tree: d >= 1, depth >= 0
      gnp:       n >= 1, d > 0; each pair kept with probability min(d/n, 1)

    n, width, height, depth and the d of dary_tree take an integral value
    (2 or 2.0); gnp's d is real.  Only gnp consumes the seed; the other
    kinds ignore it.  gnp output is deterministic for a fixed seed (see
    GNP_GENERATOR).
    """
    size = lambda name: _integral(name, params[name])
    kinds = {
        "cycle": lambda: _gen_cycle(size("n")),
        "complete": lambda: _gen_complete(size("n")),
        "grid": lambda: _gen_grid(size("width"), size("height")),
        "dary_tree": lambda: _gen_dary_tree(size("d"), size("depth")),
        "gnp": lambda: _gen_gnp(size("n"), params["d"], seed),
    }
    if kind not in kinds:
        raise ValueError(f"unknown graph kind {kind!r}")
    try:
        return kinds[kind]()
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc} for kind {kind!r}")
