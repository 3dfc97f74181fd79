"""Connective-constant estimation.

Two tools:

1. conn_profile: exact SAW counts N(v, l) on a finite graph, reported as
   cumulative growth estimates (sum_{i<=l} N(v,i))**(1/l).  Evidence of
   the growth rate, not a certificate.

2. z2_branching_matrix / spectral_bound: a rigorous upper bound on the
   growth rate of the (optionally pin-pruned) SAW tree of the square
   lattice, via finite-memory walks.  A memory-L walk never revisits any
   of its last L positions (no cycles of length <= L).  Its state is the
   maximal walk suffix that can still influence future moves: the
   position s steps back stays relevant only while its Manhattan distance
   to the endpoint is at most L - s (once irrelevant, always irrelevant,
   so states compose).  Transition counts between canonical states form a
   nonnegative matrix M whose Perron eigenvalue bounds the walk growth
   rate, hence the connective constant, from above.  spectral_bound
   returns a proven upper bound on that eigenvalue: the Collatz-Wielandt
   ratio max_i ((M+I)x)_i / x_i of the shifted power iteration, taken at
   the first step where it falls by at most tol, minus 1 and padded
   outward for the roundoff of the last matrix-vector product.

   The "weitz" pruning mode additionally discards every walk that steps onto a
   vertex forced unoccupied by the tree's boundary pins: a move onto w is
   forbidden when some in-window closure from w would be pinned occupied
   (the pinned copy would zero w's subtree).  A closure of the cycle
   x, x_next, ..., w, x is pinned occupied when x_next precedes w in the
   ordering of x's neighbors:

     relative ordering: straight > right > left with respect to the
       direction the walk entered x.  For canonicalization, states in
       this mode are rotated so the last move points north, and each
       state carries the arrival move of its oldest retained position so
       pin decisions are always fully witnessed in the window (when the
       oldest position is the walk origin, its first move counts as
       "straight", which never pins occupied - a conservative choice that
       only affects transient states).

     uniform ordering: the fixed priority N > E > S > W at every vertex;
       states keep their absolute orientation.

   With pruning "none" the ordering is irrelevant and ignored.

   Isomorphic states (identical transition signatures) are merged by
   partition refinement, which preserves every count e_start^T M^l 1 and
   therefore the growth rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import lambda_c
from .graph import Graph
from .sawtree import NodeBudgetError, saw_counts

# direction encoding: index +1 is a clockwise quarter turn
_VEC = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N, E, S, W
_UNIFORM_RANK = (3, 2, 1, 0)  # N > E > S > W

RELATIVE = "relative"
UNIFORM = "uniform"
PRUNE_NONE = "none"
PRUNE_WEITZ = "weitz"

STATE_CAP_DEFAULT = 5 * 10**6
_EPS = 2.0**-52  # spacing of floats at 1.0


class StateCapError(RuntimeError):
    """State enumeration exceeded the configured cap."""

    def __init__(self, states_reached: int):
        super().__init__(f"state cap exceeded after {states_reached} states")
        self.states_reached = states_reached


class PowerIterationError(RuntimeError):
    """Power iteration hit its cap; carries the last certified bracket."""

    def __init__(self, lo: float, hi: float):
        super().__init__(f"no convergence; last bracket [{lo:.9g}, {hi:.9g}]")
        self.bracket = (lo, hi)


# ---------------------------------------------------------------------------
# Finite-graph SAW profiling
# ---------------------------------------------------------------------------


@dataclass
class ConnProfile:
    """Cumulative SAW-growth evidence: at each length l, the worst root's
    sum_{i<=l} N(v, i) and the implied estimate (sum)**(1/l)."""

    lengths: list
    cumulative: list
    estimates: list
    roots: list
    complete: bool


def sample_roots(g: Graph, m: int, seed: int = 0) -> list:
    """Deterministic sample of m distinct roots (all vertices if m >= n)."""
    if m >= g.n:
        return list(range(g.n))
    rng = np.random.default_rng(seed)
    return sorted(int(v) for v in rng.choice(g.n, size=m, replace=False))


def conn_profile(g: Graph, l_max: int, roots="all", budget: int = 10**8) -> ConnProfile:
    """SAW-growth profile over the chosen roots ("all" or a vertex list).

    On budget exhaustion the profile covers the roots finished so far and
    is flagged incomplete.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    root_list = list(range(g.n)) if roots == "all" else sorted(set(roots))
    if not root_list:
        raise ValueError("no roots to profile")
    best = [0] * l_max
    used = 0
    done = []
    complete = True
    for v in root_list:
        try:
            counts = saw_counts(g, v, l_max, budget=max(1, budget - used))
        except NodeBudgetError as exc:
            used += exc.nodes_expanded
            complete = False
            break
        used += sum(counts)
        done.append(v)
        cum = 0
        for i, c in enumerate(counts):
            cum += c
            best[i] = max(best[i], cum)
    lengths = list(range(1, l_max + 1))
    estimates = [b ** (1.0 / l) if b > 0 else 0.0 for l, b in zip(lengths, best)]
    return ConnProfile(lengths, best, estimates, done, complete)


# ---------------------------------------------------------------------------
# Square-lattice finite-memory walk automaton
# ---------------------------------------------------------------------------


@dataclass
class BranchingMatrix:
    """Sparse nonnegative transition-count matrix of walk states (COO)."""

    k: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    start: int
    memory: int
    ordering: str
    pruning: str
    merged: bool = False
    states_raw: int = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.k)

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals, minlength=self.k)

    def toarray(self) -> np.ndarray:
        m = np.zeros((self.k, self.k))
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m

    def walk_counts(self, l_max: int) -> list:
        """Exact memory-L (pruned) walk counts by length: e_start^T M^l 1."""
        y = np.ones(self.k)
        out = []
        for _ in range(l_max):
            y = self.matvec(y)
            out.append(int(round(y[self.start])))
        return out


def _rotate(moves, pre, rot):
    canon = tuple((m - rot) % 4 for m in moves)
    return canon, (None if pre is None else (pre - rot) % 4)


def _relative_rank(direction, d_in):
    turn = (direction - d_in) % 4
    # straight(0) > right(1) > left(3); turn 2 is the backtrack, never ranked
    return {0: 2, 1: 1, 3: 0}[turn]


def _transitions_from(state, L, ordering, pruning, track_pre):
    """All legal (move multiplicity collapsed later) successors of a state."""
    pre, moves = state
    pos = [(0, 0)]
    x, y = 0, 0
    for m in moves:
        dx, dy = _VEC[m]
        x += dx
        y += dy
        pos.append((x, y))
    end = pos[-1]
    body = set(pos[:-1])
    succs = []
    for delta in range(4):
        dx, dy = _VEC[delta]
        w = (end[0] + dx, end[1] + dy)
        if w in body:
            continue  # closes a cycle of length <= L (or backtracks)
        ext_moves = moves + (delta,)
        ext_pos = pos + [w]
        smax = 1
        for s in range(len(ext_moves), 1, -1):
            px, py = ext_pos[-1 - s]
            if abs(w[0] - px) + abs(w[1] - py) <= L - s:
                smax = s
                break
        new_moves = ext_moves[-smax:]
        if track_pre:
            new_pre = ext_moves[-smax - 1] if len(ext_moves) > smax else pre
        else:
            new_pre = None
        if pruning == PRUNE_WEITZ:
            window = ext_pos[-(smax + 1):]
            if _forced_unoccupied(window, new_moves, new_pre, ordering):
                continue
        if ordering == UNIFORM and pruning == PRUNE_WEITZ:
            succs.append((new_pre, new_moves))
        else:
            canon_moves, canon_pre = _rotate(new_moves, new_pre, new_moves[-1])
            succs.append((canon_pre, canon_moves))
    return succs


def _forced_unoccupied(window, window_moves, pre, ordering):
    """True when some in-window closure from the new endpoint would be
    pinned occupied, forcing the endpoint itself unoccupied."""
    w = window[-1]
    for i in range(len(window) - 2):
        qx, qy = window[i]
        if abs(w[0] - qx) + abs(w[1] - qy) != 1:
            continue
        dir_next = window_moves[i]
        nxt = window[i + 1]
        dir_w = _VEC.index((w[0] - qx, w[1] - qy))
        if ordering == UNIFORM:
            rank_next = _UNIFORM_RANK[dir_next]
            rank_w = _UNIFORM_RANK[dir_w]
        else:
            if i > 0:
                d_in = window_moves[i - 1]
            elif pre is not None:
                d_in = pre
            else:
                # the oldest window point is the walk origin: its first
                # move counts as straight, so the closure is never pinned
                # occupied
                continue
            rank_next = _relative_rank(dir_next, d_in)
            rank_w = _relative_rank(dir_w, d_in)
        if rank_next < rank_w:
            return True
    return False


def z2_branching_matrix(
    L: int,
    ordering: str = RELATIVE,
    pruning: str = PRUNE_WEITZ,
    state_cap: int = STATE_CAP_DEFAULT,
    merge: bool = True,
) -> BranchingMatrix:
    """Branching matrix of memory-L square-lattice walks.

    L must be even and >= 2 (the lattice is bipartite, so odd memory adds
    no constraints).  States are enumerated by forward closure from the
    zero-length walk; StateCapError reports the count reached if the cap
    is exceeded.
    """
    if L < 2 or L % 2 != 0:
        raise ValueError("L must be an even integer >= 2")
    if ordering not in (RELATIVE, UNIFORM):
        raise ValueError(f"unknown ordering {ordering!r}")
    if pruning not in (PRUNE_NONE, PRUNE_WEITZ):
        raise ValueError(f"unknown pruning {pruning!r}")
    track_pre = pruning == PRUNE_WEITZ and ordering == RELATIVE

    start = (None, ())
    index = {start: 0}
    order = [start]
    aligned = []
    i = 0
    while i < len(order):
        state = order[i]
        row = {}
        for succ in _transitions_from(state, L, ordering, pruning, track_pre):
            j = index.get(succ)
            if j is None:
                j = len(order)
                if j >= state_cap:
                    raise StateCapError(j + 1)
                index[succ] = j
                order.append(succ)
            row[j] = row.get(j, 0) + 1
        aligned.append(row)
        i += 1
    states_raw = len(order)
    start_idx = 0
    if merge:
        aligned, start_idx = _merge_isomorphic(aligned, start_idx)
    rows = []
    cols = []
    vals = []
    for i, row in enumerate(aligned):
        for j, c in row.items():
            rows.append(i)
            cols.append(j)
            vals.append(float(c))
    return BranchingMatrix(
        k=len(aligned),
        rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64),
        vals=np.asarray(vals, dtype=np.float64),
        start=start_idx,
        memory=L,
        ordering=ordering,
        pruning=pruning,
        merged=merge,
        states_raw=states_raw,
    )


def _merge_isomorphic(rows_d, start):
    """Coarsest partition whose classes have identical class-aggregated
    rows; preserves M^l applied to the all-ones vector, hence all walk
    counts and the growth rate."""
    k = len(rows_d)
    cls = [0] * k
    nclasses = 1
    while True:
        sigs = {}
        new_cls = [0] * k
        for i, row in enumerate(rows_d):
            agg = {}
            for j, c in row.items():
                cj = cls[j]
                agg[cj] = agg.get(cj, 0) + c
            sig = (cls[i], tuple(sorted(agg.items())))
            idx = sigs.setdefault(sig, len(sigs))
            new_cls[i] = idx
        if len(sigs) == nclasses:
            cls = new_cls
            break
        nclasses = len(sigs)
        cls = new_cls
    merged = [None] * nclasses
    for i, row in enumerate(rows_d):
        ci = cls[i]
        if merged[ci] is None:
            agg = {}
            for j, c in row.items():
                cj = cls[j]
                agg[cj] = agg.get(cj, 0) + c
            merged[ci] = agg
    return merged, cls[start]


# ---------------------------------------------------------------------------
# Dominant eigenvalue
# ---------------------------------------------------------------------------


def spectral_bound(m, tol: float = 1e-10, max_iter: int = 200_000) -> float:
    """Proven upper bound on the largest real eigenvalue rho of a
    nonnegative matrix M, by power iteration on A = M + I (the shift
    removes periodicity and keeps the iterates positive).

    For every positive x, rho + 1 <= hi = max_i (Ax)_i / x_i
    (Collatz-Wielandt), and hi never increases along x <- Ax.  The
    iteration stops at the first step where hi falls by at most tol and
    returns hi - 1 padded for roundoff.  After max_iter steps it raises
    PowerIterationError with the last ratio bracket [lo - 1, hi - 1].

    Pad (u = 2^-53, eps = 2u, w = longest row: stored entries of a
    BranchingMatrix, columns of a dense matrix): each (Ax)_i sums w + 1
    nonnegative terms, so in any order each term sees at most w + 1
    monotone roundings and the computed entry is >= (1-u)^(w+1) (Ax)_i;
    the division costs one more (1-u).  So rho + 1 <= hi (1-u)^-(w+2)
    <= hi (1 + (w+2) eps).  The computed hi is in [1, 2^53), so hi - 1
    is exact, and (hi - 1) + hi c with c = (w+3) eps loses at most
    u hi (1 + 3c) < hi eps to its two roundings: the result is >= rho.
    This is the standard rounding model, which needs no product M_ij x_j
    to underflow; x is rescaled to max 1 each step, so for integer
    counts that holds while min x >= 2^-1022 (min x falls by at most a
    factor hi per step).
    """
    if isinstance(m, BranchingMatrix):
        matvec = m.matvec
        k = m.k
        width = int(np.bincount(m.rows, minlength=1).max())
    else:
        dense = np.asarray(m, dtype=float)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("matrix must be square")
        if (dense < 0).any():
            raise ValueError("matrix must be nonnegative")
        matvec = lambda x: dense @ x
        k = width = dense.shape[0]
    if k < 1:
        raise ValueError("matrix must be nonempty")
    x = np.ones(k)
    lo, hi = math.nan, math.inf
    for _ in range(max_iter):
        y = matvec(x) + x
        ratios = y / x
        prev_hi, lo, hi = hi, float(ratios.min()), float(ratios.max())
        if prev_hi - hi <= tol:
            return hi - 1.0 + hi * ((width + 3) * _EPS)
        x = y / float(y.max())
    raise PowerIterationError(lo - 1.0, hi - 1.0)


# ---------------------------------------------------------------------------
# Lattice bounds table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeBound:
    lattice: str
    max_degree: int
    connective_constant: float
    ssm_bound: float
    note: str = ""


# published upper bounds on connective constants of common lattices
_LATTICE_CONSTANTS = (
    ("triangular", 6, 4.251419, ""),
    ("honeycomb", 3, 1.847760, ""),
    ("square", 4, 2.679193, ""),
    ("cubic", 6, 4.7387, ""),
    ("hypercubic-4d", 8, 6.8040, ""),
    ("hypercubic-5d", 10, 8.8602, ""),
    ("hypercubic-6d", 12, 10.8886, ""),
    ("square (pruned walk tree, memory 26)", 4, 2.433, "refined"),
    ("square (pruned walk tree, memory 30)", 4, 2.429, "refined"),
)


def truncate3(x: float) -> float:
    """Truncate toward zero to 3 decimals (bounds must never round up)."""
    return math.floor(x * 1000.0) / 1000.0


def lattice_bounds_table() -> list:
    """Strong-spatial-mixing activity bounds lambda_c(Delta) for embedded
    lattice connective constants, including the refined square-lattice
    walk-tree values."""
    return [
        LatticeBound(name, deg, delta, lambda_c(delta), note)
        for name, deg, delta, note in _LATTICE_CONSTANTS
    ]
