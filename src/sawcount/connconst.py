"""Connective-constant estimation.

Two tools:

1. conn_profile: exact SAW counts N(v, l) on a finite graph, reported as
   cumulative growth estimates (sum_{i<=l} N(v,i))**(1/l) of the worst
   root.  Evidence of the growth rate, not a certificate.  The counts come
   from sawtree.saw_counts, which extends blocks of up to _BLOCK walks of
   one length at a time with numpy array operations, so its memory stays
   within O(l_max**2 * _BLOCK * max degree) entries.  Near the last
   length it reads most walks off a table over the half-edges: a walk of
   length l_max - 3 none of whose vertices is reached by a
   non-backtracking walk of 1-3 steps from its end that does not step
   back has as many extensions of 1-3 steps as the half-edge it arrived
   by has non-backtracking walks of 2-4 steps, so it is counted, not
   extended; walks that fail get a second test one length later.  On
   gnp(2000, 3) about 81% pass the first test.  Most roots need no
   walk: every SAW is non-backtracking, so a root's cumulative
   non-backtracking counts (sawtree.nonbacktracking_totals, one pass over
   the half-edges for all vertices) bound its cumulative SAW counts, and
   a root is walked only up to the last length at which that bound still
   exceeds the worst root found so far.  Roots are visited in descending
   order of their bound at l_max, so the heavy ones raise the profile
   early and the rest are covered by their bound.

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

   Each state is packed into one uint64 key (2 bits per move behind a
   sentinel bit, 3 bits for the arrival move).  The closure runs one
   breadth-first level at a time on numpy arrays: the level is decoded
   into int8 moves and int16 positions, laid out position by state, all
   four moves of every state are tested at once, successor keys are built
   from their parent keys by 2-bit-lane arithmetic, and new keys are
   numbered by first discovery in (parent, move) order.  Refinement
   starts from the classes of a hash of each state's walk counts, and
   each round folds a state's signature (its class plus the sorted
   classes of its at most 4 successors) into int64 keys and groups equal
   keys with argsort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decay import lambda_c
from .graph import Graph
from .sawtree import NodeBudgetError, nonbacktracking_totals, saw_counts

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
    sum_{i<=l} N(v, i) and the implied estimate (sum)**(1/l).  `roots`
    are the roots covered, `walked` those of them that were walked, and
    `walks` the walks counted.  An incomplete profile names in
    `failed_root` the root whose walk ran out of budget."""

    lengths: list
    cumulative: list
    estimates: list
    roots: list
    complete: bool
    walks: int = 0
    walked: list = field(default_factory=list)
    failed_root: int | None = None


def sample_roots(g: Graph, m: int, seed: int = 0) -> list:
    """Deterministic sample of m distinct roots (all vertices if m >= n)."""
    if m >= g.n:
        return list(range(g.n))
    rng = np.random.default_rng(seed)
    return sorted(int(v) for v in rng.choice(g.n, size=m, replace=False))


def conn_profile(g: Graph, l_max: int, roots="all", budget: int = 10**8) -> ConnProfile:
    """SAW-growth profile over the chosen roots ("all" or a vertex list):
    `cumulative[l - 1]`, best[l - 1] below, is the largest
    sum_{i<=l} N(v, i) over the roots v.

    Roots are visited in descending order of their non-backtracking bound
    at l_max (`nonbacktracking_totals`), ties by id.  Root v is walked
    with saw_counts up to the last length d at which its bound exceeds
    best, and raises best[:d]; with no such length it is covered without
    a walk.  The result is the exact maximum: at a length past d, v's
    cumulative count is at most its bound, which is at most best, and
    best only grows.

    `roots` lists the covered roots, walked or bounded, in ascending
    order.  `budget` caps the walks counted; a bounded root spends none.
    When it runs out the profile is flagged incomplete and names the root
    it stopped at in `failed_root`.  It covers the roots handled before,
    and every root not yet handled whose bound is at most best at every
    length: best only grows, so such a root would need no walk.
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if budget <= 0:
        raise ValueError("budget must be positive")
    root_list = list(range(g.n)) if roots == "all" else sorted(set(roots))
    if not root_list:
        raise ValueError("no roots to profile")
    if not (0 <= root_list[0] and root_list[-1] < g.n):
        raise ValueError("root out of range")
    bound = nonbacktracking_totals(g, l_max)
    best = [0] * l_max
    used = 0
    done = []
    walked = []
    failed = None
    order = sorted(root_list, key=lambda v: (-bound[v, -1], v))
    for at, v in enumerate(order):
        row = bound[v].tolist()
        depth = max((l for l in range(1, l_max + 1) if row[l - 1] > best[l - 1]), default=0)
        if depth:
            try:
                counts = saw_counts(g, v, depth, budget=budget - used)
            except NodeBudgetError as exc:
                used += exc.nodes_expanded
                failed = v
                done += [u for u in order[at + 1:] if (bound[u] <= best).all()]
                break
            used += sum(counts)
            walked.append(v)
            cum = 0
            for i, c in enumerate(counts):
                cum += c
                best[i] = max(best[i], cum)
        done.append(v)
    lengths = list(range(1, l_max + 1))
    estimates = [b ** (1.0 / l) if b > 0 else 0.0 for l, b in zip(lengths, best)]
    return ConnProfile(lengths, best, estimates, sorted(done), failed is None, used,
                       sorted(walked), failed)


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

    def matvec(self, x: np.ndarray, terms: np.ndarray | None = None) -> np.ndarray:
        """M x.  terms, a float array of one entry per stored entry, holds
        the products when given, so a loop can reuse it across steps."""
        terms = np.take(x, self.cols, out=terms)
        np.multiply(terms, self.vals, out=terms)
        return np.bincount(self.rows, weights=terms, minlength=self.k)

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals, minlength=self.k)

    def toarray(self) -> np.ndarray:
        m = np.zeros((self.k, self.k))
        np.add.at(m, (self.rows, self.cols), self.vals)
        return m

    def walk_counts(self, l_max: int) -> list:
        """Exact memory-L (pruned) walk counts by length: e_start^T M^l 1."""
        y = np.ones(self.k)
        terms = np.empty(len(self.vals))
        out = []
        for _ in range(l_max):
            y = self.matvec(y, terms)
            out.append(int(round(y[self.start])))
        return out


# A state (pre, moves) is one uint64 key: a sentinel 1 bit, then the moves
# oldest first at 2 bits each, then 3 bits holding pre + 1 (0 for None).
# So the move j steps back from the endpoint sits at bits 3 + 2j.  A state
# keeps at most L - 1 moves, so a key needs 2L + 2 bits.
_MAX_MEMORY = 30
_START_KEY = np.uint64(1 << 3)  # the zero-length walk, pre None

# directions N, E, S, W: index +1 is a clockwise quarter turn
_DX = np.array((0, 1, 0, -1), dtype=np.int16)
_DY = np.array((1, 0, -1, 0), dtype=np.int16)
# relative rank by turn (direction - d_in) % 4: straight(0) > right(1) >
# left(3); turn 2 is the backtrack, never ranked
_TURN_RANK = np.array((2, 1, -1, 0), dtype=np.int8)
# Pin masks for the Weitz pruning.  A unit step (dx, dy) has the code
# (dx + 2 dy) & 7, distinct per direction.  Bit _CODE[d] of a mask is set
# when the closure from a position q onto its neighbor in direction d is
# pinned occupied.  That depends on q's next move d_next alone for the
# uniform ordering (d_next > d as indices: _UNIFORM_PINS[d_next]), and on
# it and the move d_in that entered q for the relative one (the turn to
# d_next ranks below the turn to d: _RELATIVE_PINS[4 * (d_in + 1) +
# d_next], 0 for d_in = -1, the walk origin).
_CODE = (_DX + 2 * _DY) & 7
_UNIFORM_PINS = np.array(
    [sum(1 << _CODE[d] for d in range(4) if dn > d) for dn in range(4)], dtype=np.uint8
)
_RELATIVE_PINS = np.array(
    [0] * 4
    + [
        sum(1 << _CODE[d] for d in range(4)
            if _TURN_RANK[(dn - d_in) % 4] < _TURN_RANK[(d - d_in) % 4])
        for d_in in range(4)
        for dn in range(4)
    ],
    dtype=np.uint8,
)
_FAR = 1000  # a parked position: farther than any memory from every step
# 2-bit lanes of a key body: the low and the high bit of every lane
_LOW = np.uint64(0x5555555555555555)
_HIGH = np.uint64(0xAAAAAAAAAAAAAAAA)
# The walk-count start of the refinement: the steps folded into the hash
# (the fewest that reach the fewest rounds at memories 18 and 20, in a
# sweep of 8-20 steps; BENCH_refine.json), and its multiplier (odd, so
# h -> h * C is a bijection of uint32)
_WALK_STEPS = 14
_WALK_HASH = np.uint32(0x9E3779B1)


def _unpack(keys: np.ndarray, L: int):
    """Decode keys into (moves, length, pre).  moves[j] (int8, L rows, one
    column per key) is the move j steps back from the endpoint, for
    j < length."""
    body = keys >> np.uint64(3)
    moves = np.empty((L, len(keys)), dtype=np.int8)
    length = np.zeros(len(keys), dtype=np.int16)
    for j in range(L):
        moves[j] = body & np.uint64(3)
        body >>= np.uint64(2)
        length += body != 0
    pre = (keys & np.uint64(7)).astype(np.int8) - 1
    return moves, length, pre


def _successors(keys, L, ordering, pruning):
    """(n, 4) table of the canonical successor keys of each state, by move;
    0 where the move is illegal.  The state arrays are laid out position by
    state, so every reduction over positions runs along the long axis.
    The moves are decoded only for the legality and reach tests: each
    successor key is built from its parent key (`_child_keys`), by
    shifting in the new move, cutting to the kept lanes and rotating every
    lane at once."""
    n = len(keys)
    cols = np.arange(n)
    moves, length, pre = _unpack(keys, L)
    t = np.arange(1, L, dtype=np.int16)[:, None]  # steps back from the endpoint
    # position t steps back, with the endpoint at the origin; positions
    # the state does not hold are parked out of reach of every test
    m = moves[:-1]
    px = ((m & 1) * (m - 2)).astype(np.int16)  # -_DX[m]
    py = ((~m & 1) * (m - 1)).astype(np.int16)  # -_DY[m]
    for j in range(1, L - 1):
        px[j] += px[j - 1]
        py[j] += py[j - 1]
    np.copyto(px, _FAR, where=t > length)
    # the move that arrived at the position t steps back (pre at the oldest)
    arrive = moves.copy()
    arrive[length, cols] = pre
    if pruning == PRUNE_WEITZ:
        # pin[t - 1] masks the steps onto the neighbors of the position t
        # back whose closure is pinned occupied; code[t - 1] + _CODE[delta]
        # is the code of the step from that position to the new endpoint
        if ordering == UNIFORM:
            pin = _UNIFORM_PINS.take(m)
        else:
            # with pre None the oldest closure never pins occupied
            pin = _RELATIVE_PINS.take((arrive[1:] + 1) * 4 + m)
        code = (-(px + 2 * py) & 7).astype(np.uint8)
    track_pre = pruning == PRUNE_WEITZ and ordering == RELATIVE
    rotate = not (pruning == PRUNE_WEITZ and ordering == UNIFORM)
    out = np.zeros((n, 4), dtype=np.uint64)
    dist = np.empty_like(px)
    buf = np.empty_like(py)
    for delta in range(4):
        # Manhattan distance from the new endpoint w to the position t back
        np.abs(np.subtract(px, _DX[delta], out=dist), out=dist)
        dist += np.abs(np.subtract(py, _DY[delta], out=buf), out=buf)
        # w in the body closes a cycle of length <= L (or backtracks)
        legal = ~(dist == 0).any(axis=0)
        # keep the suffix back to the oldest position still within reach
        smax = 1 + np.where(dist <= L - 1 - t, t, 0).max(axis=0)
        new_pre = arrive[smax - 1, cols] if track_pre else np.full(n, -1, np.int8)
        if pruning == PRUNE_WEITZ:
            # w is forced unoccupied when some in-window closure through a
            # neighbor q of w is pinned occupied: the move out of q outranks
            # the step from q to w
            pinned = (pin >> ((code + int(_CODE[delta])) & 7)) & (dist == 1)
            legal &= ~((pinned != 0) & (t < smax)).any(axis=0)
        out[legal, delta] = _child_keys(keys[legal], delta, smax[legal], new_pre[legal], rotate)
    return out


def _child_keys(keys, delta, length, pre, rotate):
    """Keys of the states that the move delta reaches from the states
    `keys`: delta, then the parent's moves, the first `length` of them
    kept, with the arrival move pre (-1 for None).  When rotate, the child
    is turned by -delta into the canonical frame, where the last move
    points north.  The key is built on the parent key's 2-bit lanes."""
    # the parent's moves behind their sentinel, one lane up, and delta in
    # lane 0
    lanes = keys >> np.uint64(3)
    lanes <<= np.uint64(2)
    lanes |= np.uint64(delta)
    if rotate and delta:
        # add -delta mod 4 to every lane (SWAR): the sum of the low bits
        # carries at most into its lane's high bit, and the high bits are
        # added without carry, by xor
        turn = _LOW * np.uint64(-delta & 3)  # -delta mod 4 in every lane
        high = lanes ^ turn
        high &= _HIGH
        lanes &= _LOW
        lanes += turn & _LOW
        lanes ^= high
        pre = np.where(pre >= 0, (pre - delta) & 3, -1)
    # keep `length` lanes behind a new sentinel
    sentinel = np.uint64(1) << (2 * length).astype(np.uint64)
    lanes &= sentinel - np.uint64(1)
    lanes |= sentinel
    lanes <<= np.uint64(3)
    lanes |= (pre + 1).astype(np.uint64)
    return lanes


def z2_branching_matrix(
    L: int,
    ordering: str = RELATIVE,
    pruning: str = PRUNE_WEITZ,
    state_cap: int = STATE_CAP_DEFAULT,
    merge: bool = True,
) -> BranchingMatrix:
    """Branching matrix of memory-L square-lattice walks.

    L must be even, >= 2 and <= 30 (the lattice is bipartite, so odd memory
    adds no constraints; deeper states do not fit a 64-bit key).  States
    are enumerated by forward closure from the zero-length walk, one
    breadth-first level at a time, and numbered by first discovery in
    (parent, move) order.  StateCapError(state_cap + 1) is raised before
    a level that would take the count past state_cap.
    """
    if L < 2 or L % 2 != 0 or L > _MAX_MEMORY:
        raise ValueError(f"L must be an even integer in [2, {_MAX_MEMORY}]")
    if ordering not in (RELATIVE, UNIFORM):
        raise ValueError(f"unknown ordering {ordering!r}")
    if pruning not in (PRUNE_NONE, PRUNE_WEITZ):
        raise ValueError(f"unknown pruning {pruning!r}")
    if state_cap < 1:
        raise ValueError("state_cap must be positive")

    level = np.array([_START_KEY])
    known, known_id = level, np.zeros(1, dtype=np.int32)  # sorted by key
    tables = []
    count = 1
    while len(level):
        succ = _successors(level, L, ordering, pruning).ravel()
        live = succ != 0
        keys = succ[live]  # in (parent, move) order
        at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        found = known[at] == keys
        new, first, inverse = np.unique(keys[~found], return_index=True, return_inverse=True)
        if count + len(new) > state_cap:
            raise StateCapError(state_cap + 1)
        by_first = np.argsort(first)
        new_id = np.empty(len(new), dtype=np.int32)
        new_id[by_first] = np.arange(count, count + len(new), dtype=np.int32)
        ids = np.empty(len(keys), dtype=np.int32)
        ids[found] = known_id[at[found]]
        ids[~found] = new_id[inverse]
        table = np.full(len(succ), -1, dtype=np.int32)
        table[live] = ids
        tables.append(table.reshape(-1, 4))
        slot = np.searchsorted(known, new)
        known = np.insert(known, slot, new)
        known_id = np.insert(known_id, slot, new_id)
        level = new[by_first]
        count += len(new)
    table = np.concatenate(tables)
    if merge:
        cls, reps = _merge_isomorphic(table)
    else:
        cls, reps = np.arange(count, dtype=np.int32), np.arange(count)
    rows, cols, vals = _coo(cls, table[reps])
    return BranchingMatrix(
        k=len(reps),
        rows=rows,
        cols=cols,
        vals=vals,
        start=int(cls[0]),
        memory=L,
        ordering=ordering,
        pruning=pruning,
        merged=merge,
        states_raw=count,
    )


def _merge_isomorphic(table: np.ndarray):
    """Coarsest partition whose classes have identical class-aggregated
    rows; preserves M^l applied to the all-ones vector, hence all walk
    counts and the growth rate.

    table is the (k, 4) raw successor table (-1 for no successor).
    Returns the class of each raw state, classes numbered by first member,
    and each class's first member, in class order.

    The rounds (`_refine`) start from the classes of a hash of each
    state's walk counts rather than from one class: y_0 = 1, y_{t+1}[s]
    sums y_t over s's successor slots (a missing slot reads 0), and h =
    h * _WALK_HASH + y_t folds in y_1 .. y_{_WALK_STEPS} in wraparound
    uint32.  The result cannot move.  States in one class of the coarsest
    stable partition Q have equal multisets of successor classes, so by
    induction on t equal y_t and equal h: the start is coarser than or
    equal to Q.  Moore rounds keep every partition coarser than or equal
    to Q (states of one class of Q have equal signatures under it) and
    stop at a stable one, which refines Q: so they end at Q.  A hash
    collision only coarsens the start and costs a round.
    """
    return _refine(table, _walk_count_classes(table))


def _walk_count_classes(table: np.ndarray) -> np.ndarray:
    """The states grouped by the hash of their walk counts that
    `_merge_isomorphic` starts from, numbered by first member (int32)."""
    k = len(table)
    # y[k] = 0 is the missing slot: take's "wrap" reads it for table's -1
    # and writes straight into out
    y = np.ones(k + 1, dtype=np.uint32)
    y[k] = 0
    nxt = np.zeros_like(y)
    buf = np.empty(k, dtype=np.uint32)
    h = np.zeros(k, dtype=np.uint32)
    for _ in range(_WALK_STEPS):
        np.take(y, table[:, 0], out=nxt[:k], mode="wrap")
        for j in range(1, 4):
            nxt[:k] += np.take(y, table[:, j], out=buf, mode="wrap")
        y, nxt = nxt, y
        h *= _WALK_HASH
        h += y[:k]
    del y, nxt, buf
    order, head = _group(h)
    del h
    cls = np.empty(k, dtype=np.int32)
    _number(cls, order, head, 0)
    return cls


def _refine(table: np.ndarray, cls: np.ndarray):
    """Moore rounds from the start cls (int32, classes numbered by first
    member) to the coarsest stable partition that refines it; returns
    what `_merge_isomorphic` returns.

    A state's signature is its class and the sorted classes of its
    successors, repeats standing for multiplicities.  Each round sorts
    the 4 successor classes with a 5-comparator network on int32 columns
    and folds the 5 signature fields, b bits each (b the bit width of the
    class count), into int64 keys of as many fields as fit in 63 bits.  A
    key that is full is replaced by its dense rank (one argsort) before
    the next field is shifted in, and the last key's argsort groups the
    states.  The rounds stop when no class splits.
    """
    k = len(table)
    succ = [table[:, j] for j in range(4)]
    nclasses = int(cls.max()) + 1
    cls = np.append(cls, np.int32(-1))  # table's -1 reads the last slot
    cls += 1  # class + 1; a missing successor reads 0
    while True:
        a, b, c, d = (cls[s] for s in succ)
        a, b = np.minimum(a, b), np.maximum(a, b)
        c, d = np.minimum(c, d), np.maximum(c, d)
        a, c = np.minimum(a, c), np.maximum(a, c)
        b, d = np.minimum(b, d), np.maximum(b, d)
        b, c = np.minimum(b, c), np.maximum(b, c)
        bits = nclasses.bit_length()  # every field is at most nclasses
        key, width = cls[:k].astype(np.int64), bits
        for field in (a, b, c, d):
            if width + bits > 63:  # the key is full: replace it by its dense rank
                order, head = _group(key)
                key[order] = np.cumsum(head) - 1
                width = int(np.count_nonzero(head) - 1).bit_length()
            key <<= bits
            key |= field
            width += bits
        order, head = _group(key)
        first = _number(cls, order, head, 1)
        if len(first) == nclasses:  # no class split: the numbering stood
            return cls[:k] - 1, first
        nclasses = len(first)


def _number(cls: np.ndarray, order: np.ndarray, head: np.ndarray, base: int):
    """Number the groups of (order, head), from `_group`, by first member
    from base on, writing each state's number to cls[order]; return the
    first member of each group, in number order."""
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts)
    by_first = np.argsort(first)
    number = np.empty(len(starts), dtype=np.int32)
    number[by_first] = np.arange(base, base + len(starts), dtype=np.int32)
    cls[order] = np.repeat(number, np.diff(starts, append=len(order)))
    return first[by_first]


def _group(key: np.ndarray):
    """(order, head): an argsort of key, and along it True where a run of
    equal keys starts."""
    order = np.argsort(key)
    ordered = key[order]
    head = np.empty(len(key), dtype=bool)
    head[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    return order, head


def _coo(cls: np.ndarray, succ: np.ndarray):
    """COO of the matrix whose row i counts the classes of succ[i]'s
    entries: row by row, columns by first occurrence in move order."""
    col = np.where(succ >= 0, cls[succ], -1)
    same = col[:, :, None] == col[:, None, :]
    first = (col >= 0) & ~np.tril(same, -1).any(axis=2)
    rows, slot = np.nonzero(first)
    return (
        rows.astype(np.int64),
        col[rows, slot].astype(np.int64),
        same.sum(axis=2)[rows, slot].astype(np.float64),
    )


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
    PowerIterationError with the last ratio bracket [lo - 1, hi - 1].  A
    negative (or NaN) tol could never stop it, so it raises ValueError.

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
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if isinstance(m, BranchingMatrix):
        k = m.k
        width = int(np.bincount(m.rows, minlength=1).max())
        terms = np.empty(len(m.vals))

        def matvec(x):
            return m.matvec(x, terms)
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
    # one fresh array per step, the product; x and the ratios are reused
    x = np.ones(k)
    ratios = np.empty(k)
    lo, hi = math.nan, math.inf
    for _ in range(max_iter):
        y = matvec(x)
        y += x
        np.divide(y, x, out=ratios)
        prev_hi, lo, hi = hi, float(ratios.min()), float(ratios.max())
        if prev_hi - hi <= tol:
            return hi - 1.0 + hi * ((width + 3) * _EPS)
        np.divide(y, float(y.max()), out=x)
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
