import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from sawcount import connconst
from sawcount.connconst import (
    PowerIterationError,
    StateCapError,
    conn_profile,
    lattice_bounds_table,
    sample_roots,
    spectral_bound,
    truncate3,
    z2_branching_matrix,
)
from sawcount.graph import gen_graph, graph_from_edges
from sawcount.sawtree import saw_counts


# -- finite-graph profiles ---------------------------------------------------


def test_conn_profile_cycle():
    prof = conn_profile(gen_graph("cycle", n=10), 5)
    assert prof.cumulative == [2, 4, 6, 8, 10]
    assert prof.estimates[-1] == pytest.approx(10.0 ** 0.2)
    assert all(b <= a for a, b in zip(prof.estimates, prof.estimates[1:]))
    assert prof.complete


def test_conn_profile_k4():
    prof = conn_profile(gen_graph("complete", n=4), 3)
    assert prof.cumulative == [3, 9, 15]
    assert prof.estimates[-1] == pytest.approx(15.0 ** (1.0 / 3.0))


def test_conn_profile_dary_tree():
    d = 3
    g = gen_graph("dary_tree", d=d, depth=5)
    prof = conn_profile(g, 4, roots=[0])
    # from the root: d*(d)**(l-1)... first step d ways, then d children each
    counts = [prof.cumulative[0]] + [
        prof.cumulative[i] - prof.cumulative[i - 1] for i in range(1, 4)
    ]
    assert counts[0] == d
    assert all(counts[i + 1] / counts[i] <= d for i in range(3))
    assert prof.estimates[0] <= d + 1


def test_conn_profile_budget_flag():
    g = gen_graph("complete", n=8)
    prof = conn_profile(g, 7, budget=100)
    assert not prof.complete
    assert prof.roots == [] and prof.cumulative == [0] * 7
    assert prof.failed_root == 0  # the first root visited, ties by id
    # each root of K8 has 13699 walks: two fit in 30000, the third does not
    prof = conn_profile(g, 7, budget=30000)
    assert not prof.complete
    assert prof.roots == [0, 1] and prof.failed_root == 2
    assert prof.cumulative == [7, 49, 259, 1099, 3619, 8659, 13699]


def test_conn_profile_budget_spent_exactly():
    # root 0 has 2 walks (0-1, 0-1-2); root 3, the centre of a two-leaf
    # star, has 2 walks of one step, and its bound [2, 2] exceeds best
    # [1, 2] at length 1: once the budget of 2 is spent, root 3 must not
    # count its walks
    g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (3, 5)])
    prof = conn_profile(g, 2, roots=[0, 3], budget=2)
    assert not prof.complete
    assert prof.roots == [0] and prof.cumulative == [1, 2]
    assert prof.failed_root == 3
    prof = conn_profile(g, 2, roots=[0, 3], budget=4)
    assert prof.complete and prof.roots == [0, 3] and prof.failed_root is None
    assert prof.cumulative == [2, 2] and prof.walks == 4


def test_partial_profile_lists_roots_its_bound_covers():
    # roots visit in the order 0, 3, 6, 9 (every bound reaches 2 at length
    # 2, ties by id).  Root 0 spends the budget of 2 and sets best [1, 2];
    # root 3, a two-leaf star centre with bound [2, 2], runs out.  Root 6,
    # the end of a path like root 0, has bound [1, 2] <= best and needs no
    # walk; root 9 is another star centre and stays uncovered
    g = graph_from_edges(12, [(0, 1), (1, 2), (3, 4), (3, 5), (6, 7), (7, 8),
                              (9, 10), (9, 11)])
    prof = conn_profile(g, 2, roots=[0, 3, 6, 9], budget=2)
    assert not prof.complete and prof.failed_root == 3
    assert prof.roots == [0, 6] and prof.walked == [0]
    assert prof.cumulative == [1, 2]


def unbounded_profile(g, l_max, roots):
    """Reference: saw_counts on every root, running sums maximised by hand."""
    best = [0] * l_max
    for v in roots:
        cum = itertools.accumulate(saw_counts(g, v, l_max))
        best = [max(b, c) for b, c in zip(best, cum)]
    return best


def test_conn_profile_matches_unbounded_reference(catalog6):
    graphs = list(catalog6[::5])
    graphs += [gen_graph("gnp", n=n, d=d, seed=s)
               for n, d in ((60, 3.0), (30, 5.0)) for s in range(3)]
    graphs += [gen_graph("grid", width=5, height=5), gen_graph("complete", n=7),
               gen_graph("dary_tree", d=3, depth=4)]
    for g in graphs:
        for roots in ("all", sample_roots(g, 4, seed=1)):
            root_list = list(range(g.n)) if roots == "all" else roots
            for l_max in range(1, 8):
                prof = conn_profile(g, l_max, roots=roots)
                assert prof.cumulative == unbounded_profile(g, l_max, root_list)
                assert prof.complete and prof.roots == root_list
                assert set(prof.walked) <= set(prof.roots)


def test_conn_profile_rejects_roots_out_of_range():
    # a root that the bound alone would cover must be rejected too
    g = graph_from_edges(4, [(0, 1), (0, 2), (2, 3)])
    for roots in ([-1], [0, 4]):
        with pytest.raises(ValueError):
            conn_profile(g, 2, roots=roots)


class CountingWalks:
    """Stands in for connconst.saw_counts and records (root, l_max) of
    every call."""

    def __init__(self):
        self.calls = []

    def __call__(self, g, v, l_max, budget=10**8):
        self.calls.append((v, l_max))
        return saw_counts(g, v, l_max, budget=budget)


def test_conn_profile_skips_dominated_root(monkeypatch):
    # the star centre 0 has bound [3, 3]; the edge 4-5 has [1, 1] from 4,
    # below best [3, 3], so root 4 is covered without a walk
    g = graph_from_edges(6, [(0, 1), (0, 2), (0, 3), (4, 5)])
    walks = CountingWalks()
    monkeypatch.setattr(connconst, "saw_counts", walks)
    prof = conn_profile(g, 2, roots=[0, 4])
    assert walks.calls == [(0, 2)]
    assert prof.roots == [0, 4] and prof.walked == [0]
    assert prof.cumulative == [3, 3] and prof.walks == 3 and prof.complete


def test_conn_profile_walks_only_to_last_raising_length(monkeypatch):
    # the path 0-1-2-3 from 0 has bound [1, 2, 3] and is walked first; the
    # star centre 4 has bound [2, 2, 2], above best only at length 1
    g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (4, 5), (4, 6)])
    walks = CountingWalks()
    monkeypatch.setattr(connconst, "saw_counts", walks)
    prof = conn_profile(g, 3, roots=[0, 4])
    assert walks.calls == [(0, 3), (4, 1)]
    assert prof.cumulative == [2, 2, 3]
    assert prof.walked == [0, 4] and prof.walks == 5


def test_sample_roots_deterministic():
    g = gen_graph("gnp", n=50, d=3.0, seed=0)
    a = sample_roots(g, 10, seed=1)
    assert a == sample_roots(g, 10, seed=1)
    assert len(a) == 10 and len(set(a)) == 10
    assert sample_roots(g, 99, seed=1) == list(range(50))


# -- walk automaton vs brute force -------------------------------------------

# The two neighbor orderings, written out independently of the automaton.
_VEC = ((0, 1), (1, 0), (0, -1), (-1, 0))  # N, E, S, W
_UNIFORM_RANK = (3, 2, 1, 0)  # N > E > S > W


def _relative_rank(direction, d_in):
    turn = (direction - d_in) % 4
    # straight(0) > right(1) > left(3); turn 2 is the backtrack, never ranked
    return {0: 2, 1: 1, 3: 0}[turn]


def brute_counts(L, ordering, pruning, l_max):
    """Direct enumeration of memory-L (optionally pruned) walks."""
    counts = [0] * (l_max + 1)

    def allowed(path, w):
        t = len(path) - 1
        for back in range(1, min(L - 1, t) + 1):
            if path[t - back] == w:
                return False
        if pruning == "weitz":
            for i in range(max(0, t + 2 - L), t):
                x = path[i]
                if abs(w[0] - x[0]) + abs(w[1] - x[1]) != 1:
                    continue
                nxt = path[i + 1]
                dir_next = _VEC.index((nxt[0] - x[0], nxt[1] - x[1]))
                dir_w = _VEC.index((w[0] - x[0], w[1] - x[1]))
                if ordering == "uniform":
                    rn, rw = _UNIFORM_RANK[dir_next], _UNIFORM_RANK[dir_w]
                else:
                    if i == 0:
                        continue  # origin: first move ranks as straight
                    prev = path[i - 1]
                    d_in = _VEC.index((x[0] - prev[0], x[1] - prev[1]))
                    rn = _relative_rank(dir_next, d_in)
                    rw = _relative_rank(dir_w, d_in)
                if rn < rw:
                    return False
        return True

    def rec(path):
        depth = len(path) - 1
        counts[depth] += 1
        if depth == l_max:
            return
        end = path[-1]
        for d in range(4):
            w = (end[0] + _VEC[d][0], end[1] + _VEC[d][1])
            if allowed(path, w):
                rec(path + [w])

    rec([(0, 0)])
    return counts[1:]


@pytest.mark.parametrize(
    "L,ordering,pruning",
    list(itertools.product((2, 4, 6), ("relative", "uniform"), ("none", "weitz"))),
)
def test_automaton_matches_brute_force(L, ordering, pruning):
    expected = brute_counts(L, ordering, pruning, 7)
    merged = z2_branching_matrix(L, ordering=ordering, pruning=pruning)
    raw = z2_branching_matrix(L, ordering=ordering, pruning=pruning, merge=False)
    assert merged.walk_counts(7) == expected
    assert raw.walk_counts(7) == expected


def test_l2_eigenvalue_is_three():
    for pruning in ("none", "weitz"):
        bm = z2_branching_matrix(2, pruning=pruning)
        assert spectral_bound(bm, tol=1e-12) == pytest.approx(3.0, abs=1e-9)


def test_row_sums_at_most_three_past_start():
    bm = z2_branching_matrix(6, merge=False)
    sums = bm.row_sums()
    mask = np.ones(bm.k, dtype=bool)
    mask[bm.start] = False
    assert sums[mask].max() <= 3.0
    assert sums[bm.start] == 4.0


def test_merge_preserves_eigenvalue_and_counts():
    for L in (4, 6, 8):
        merged = z2_branching_matrix(L)
        raw = z2_branching_matrix(L, merge=False)
        assert merged.k < raw.k
        assert merged.walk_counts(10) == raw.walk_counts(10)
        assert spectral_bound(merged, tol=1e-10) == pytest.approx(
            spectral_bound(raw, tol=1e-10), abs=1e-7
        )


def test_eigenvalue_sequences_frozen():
    # recorded once from runs of this implementation; guards refactors
    expected = {
        "none": [3.0, 2.831177, 2.775591, 2.744458, 2.724799, 2.711252],
        "weitz": [3.0, 2.658967, 2.549242, 2.504744, 2.482252, 2.468617],
    }
    for pruning, vals in expected.items():
        for L, want in zip((2, 4, 6, 8, 10, 12), vals):
            ev = spectral_bound(z2_branching_matrix(L, pruning=pruning), tol=1e-10)
            assert ev == pytest.approx(want, abs=5e-7), (pruning, L)


def test_eigenvalue_monotone_in_memory():
    for pruning in ("none", "weitz"):
        prev = 3.0 + 1e-12
        for L in (2, 4, 6, 8):
            ev = spectral_bound(z2_branching_matrix(L, pruning=pruning), tol=1e-10)
            assert ev <= prev + 1e-8
            prev = ev


def test_pruning_never_increases_eigenvalue():
    for L in (2, 4, 6, 8):
        ev_none = spectral_bound(z2_branching_matrix(L, pruning="none"), tol=1e-10)
        ev_weitz = spectral_bound(z2_branching_matrix(L, pruning="weitz"), tol=1e-10)
        assert ev_weitz <= ev_none + 1e-8


def test_memory_eight_pruned_bracket():
    # pruned bound at L = 8 sits strictly inside (2.433, 3): below the
    # non-backtracking rate, above the published deep-memory values
    ev = spectral_bound(z2_branching_matrix(8), tol=1e-10)
    assert 2.433 < ev < 3.0
    assert 2.429 < ev


def test_short_memory_pruning_is_inert():
    # the shortest cycle of the lattice has length 4, so with L = 2 the
    # boundary pins never fire
    none2 = z2_branching_matrix(2, pruning="none")
    weitz2 = z2_branching_matrix(2, pruning="weitz")
    assert none2.walk_counts(8) == weitz2.walk_counts(8)


def test_invalid_memory_rejected():
    for L in (0, 1, 3, 7, 32):
        with pytest.raises(ValueError):
            z2_branching_matrix(L)
    with pytest.raises(ValueError):
        z2_branching_matrix(4, ordering="lexicographic")
    with pytest.raises(ValueError):
        z2_branching_matrix(4, pruning="aggressive")


def _pack(moves, length, pre):
    """Reference key of each state (inverse of connconst._unpack): the
    first `length` rows of each column of `moves`, as 2-bit digits behind
    a sentinel bit, then 3 bits holding pre + 1."""
    digits = np.zeros(len(length), dtype=np.uint64)
    for j in range(len(moves) - 1, -1, -1):
        digits <<= np.uint64(2)
        digits |= moves[j].astype(np.uint64)
    sentinel = np.uint64(1) << (2 * length).astype(np.uint64)
    body = sentinel | (digits & (sentinel - np.uint64(1)))
    return (body << np.uint64(3)) | (pre + 1).astype(np.uint64)


def _random_states(n, L, seed):
    """(moves, length, pre) of n random states of memory L, lengths 0 and
    L - 1 included; moves are laid out position by state."""
    rng = np.random.default_rng(seed)
    moves = rng.integers(0, 4, size=(n, L), dtype=np.int8).T
    length = rng.integers(0, L, size=n).astype(np.int16)
    length[:2] = (0, L - 1)
    pre = rng.integers(-1, 4, size=n).astype(np.int8)
    return moves, length, pre


def test_state_keys_round_trip_at_memory_30():
    # the longest state of memory 30 keeps 29 moves: 62 bits of key
    # (moves are laid out position by state: one column per key)
    moves, length, pre = _random_states(200, 30, seed=3)
    keys = _pack(moves[:29], length, pre)
    got_moves, got_length, got_pre = connconst._unpack(keys, 30)
    assert np.array_equal(got_length, length) and np.array_equal(got_pre, pre)
    held = np.arange(30)[:, None] < length
    assert np.array_equal(np.where(held, got_moves, 0), np.where(held, moves, 0))


def _reference_successors(keys, L, ordering, pruning):
    """Reference `_successors`: each move tested on its own, on int16
    positions and Manhattan distances, the kept length the oldest position
    within reach found by a max over the positions."""
    n = len(keys)
    cols = np.arange(n)
    moves, length, pre = connconst._unpack(keys, L)
    t = np.arange(1, L, dtype=np.int16)[:, None]  # steps back from the endpoint
    # position t steps back, with the endpoint at the origin; positions
    # the state does not hold are parked out of reach of every test
    m = moves[:-1]
    px = ((m & 1) * (m - 2)).astype(np.int16)  # -_DX[m]
    py = ((~m & 1) * (m - 1)).astype(np.int16)  # -_DY[m]
    for j in range(1, L - 1):
        px[j] += px[j - 1]
        py[j] += py[j - 1]
    np.copyto(px, 1000, where=t > length)
    # the move that arrived at the position t steps back (pre at the oldest)
    arrive = moves.copy()
    arrive[length, cols] = pre
    if pruning == "weitz":
        if ordering == "uniform":
            pin = connconst._UNIFORM_PINS.take(m)
        else:
            pin = connconst._RELATIVE_PINS.take((arrive[1:] + 1) * 4 + m)
        code = (-(px + 2 * py) & 7).astype(np.uint8)
    track_pre = pruning == "weitz" and ordering == "relative"
    rotate = not (pruning == "weitz" and ordering == "uniform")
    out = np.zeros((n, 4), dtype=np.uint64)
    for delta in range(4):
        dist = np.abs(px - connconst._DX[delta]) + np.abs(py - connconst._DY[delta])
        legal = ~(dist == 0).any(axis=0)
        smax = 1 + np.where(dist <= L - 1 - t, t, 0).max(axis=0)
        new_pre = arrive[smax - 1, cols] if track_pre else np.full(n, -1, np.int8)
        if pruning == "weitz":
            pinned = (pin >> ((code + int(connconst._CODE[delta])) & 7)) & (dist == 1)
            legal &= ~((pinned != 0) & (t < smax)).any(axis=0)
        out[legal, delta] = connconst._child_keys(
            keys[legal], delta, smax[legal], new_pre[legal], rotate)
    return out


def _closure_keys(L, ordering, pruning):
    """Every state key that the closure from the zero-length walk reaches."""
    seen = level = np.array([connconst._START_KEY])
    while len(level):
        succ = connconst._successors(level, L, ordering, pruning)
        level = np.setdiff1d(succ[succ != 0], seen)
        seen = np.union1d(seen, level)
    return seen


def _assert_successor_keys_match_packing(keys, L, ordering, pruning):
    """Each successor key of `_successors`, built on the parent key's
    lanes, equals `_pack` of the parent's moves behind the new one, turned
    into the canonical frame, with the kept length the successor reports
    and the arrival move of its oldest position."""
    succ = connconst._successors(keys, L, ordering, pruning)
    moves, length, pre = connconst._unpack(keys, L)
    rotate = not (pruning == "weitz" and ordering == "uniform")
    track_pre = pruning == "weitz" and ordering == "relative"
    checked = 0
    for delta in range(4):
        live = np.flatnonzero(succ[:, delta])
        got = succ[live, delta]
        kept = connconst._unpack(got, L)[1]
        want_moves = np.empty((L - 1, len(live)), dtype=np.int8)
        want_moves[0] = delta
        want_moves[1:] = moves[: L - 2, live]
        # the oldest kept position, kept - 1 back from the parent, arrived
        # by the parent's move there, or by pre at the parent's oldest
        oldest = kept - 1
        want_pre = np.where(oldest < length[live], moves[oldest, live], pre[live])
        if not track_pre:
            want_pre[:] = -1
        if rotate:
            want_moves = (want_moves - delta) & 3
            want_pre = np.where(want_pre >= 0, (want_pre - delta) & 3, -1)
        assert np.array_equal(got, _pack(want_moves, kept, want_pre.astype(np.int8)))
        checked += len(live)
    return checked


@pytest.mark.parametrize(
    "L,ordering,pruning",
    list(itertools.product((4, 8, 12), ("relative", "uniform"), ("none", "weitz"))),
)
def test_successor_keys_match_packing(L, ordering, pruning):
    keys = _closure_keys(L, ordering, pruning)
    assert _assert_successor_keys_match_packing(keys, L, ordering, pruning) >= len(keys)


def test_successor_keys_match_packing_at_memory_30():
    # random states, legal walks or not, reach the key's top lanes
    moves, length, pre = _random_states(2000, 30, seed=5)
    keys = _pack(moves[:29], length, pre)
    for ordering, pruning in itertools.product(("relative", "uniform"), ("none", "weitz")):
        assert _assert_successor_keys_match_packing(keys, 30, ordering, pruning) > 0


@pytest.mark.parametrize("ordering,pruning",
                         list(itertools.product(("relative", "uniform"), ("none", "weitz"))))
def test_successors_match_reference(ordering, pruning):
    # every closure key at memories 2-16, in one call a memory
    for L in range(2, 17, 2):
        keys = _closure_keys(L, ordering, pruning)
        got = connconst._successors(keys, L, ordering, pruning)
        assert got.dtype == np.uint64
        assert np.array_equal(got, _reference_successors(keys, L, ordering, pruning)), L


def test_successors_match_reference_at_memory_30():
    # random states, legal walks or not, of every length up to 29 moves
    moves, length, pre = _random_states(2000, 30, seed=7)
    keys = _pack(moves[:29], length, pre)
    for ordering, pruning in itertools.product(("relative", "uniform"), ("none", "weitz")):
        got = connconst._successors(keys, 30, ordering, pruning)
        assert np.array_equal(got, _reference_successors(keys, 30, ordering, pruning))
        assert (got != 0).any() and (got == 0).any()


def test_closure_memory_stays_bounded(monkeypatch):
    # the closure's index temporaries are bounded by its blocks of states:
    # at memory 18 the closure peaks at 18.4 MiB (32.4 MiB unblocked) and
    # the build, whose peak is then refinement's, at 31.0 MiB
    peaks = []
    merge = connconst._merge_isomorphic
    monkeypatch.setattr(connconst, "_merge_isomorphic",
                        lambda t: peaks.append(tracemalloc.get_traced_memory()[1]) or merge(t))
    tracemalloc.start()
    try:
        z2_branching_matrix(18)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    closure, build = peaks
    assert closure < 24 * 2**20
    assert build < 36 * 10**6


def test_state_cap():
    with pytest.raises(StateCapError) as exc:
        z2_branching_matrix(10, state_cap=50)
    assert exc.value.states_reached == 51
    for cap in (0, -5):
        with pytest.raises(ValueError, match="state_cap must be positive"):
            z2_branching_matrix(4, state_cap=cap)


# -- spectral bound ----------------------------------------------------------


def test_spectral_bound_examples():
    assert spectral_bound(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0)
    assert spectral_bound(np.diag([5.0, 2.0])) == pytest.approx(5.0, abs=1e-8)


def test_spectral_bound_matches_dense_eigensolver():
    rng = np.random.default_rng(9)
    for _ in range(40):
        k = int(rng.integers(1, 9))
        m = rng.uniform(0.0, 3.0, size=(k, k))
        m[rng.random((k, k)) < 0.3] = 0.0
        want = max(abs(np.linalg.eigvals(m)))
        got = spectral_bound(m, tol=1e-12)
        assert got == pytest.approx(want, abs=1e-8)
        assert got >= want - 1e-10  # an upper bound, up to the solver's error


def test_spectral_bound_periodic_matrix():
    # the +I shift handles periodic chains that defeat naive iteration
    m = np.array([[0.0, 2.0], [1.0, 0.0]])
    assert spectral_bound(m, tol=1e-12) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_spectral_bound_validation():
    with pytest.raises(ValueError):
        spectral_bound(np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spectral_bound(np.zeros((2, 3)))
    # a negative or NaN tol never stops the iteration: a usage error, not
    # a run to max_iter
    for tol in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            spectral_bound(np.eye(2), tol=tol, max_iter=5)


def test_spectral_bound_iteration_cap():
    slow = np.array([[1.0, 1.0], [0.0, 1.0]])  # defective; converges ~ 1/k
    with pytest.raises(PowerIterationError) as err:
        spectral_bound(slow, tol=1e-14, max_iter=5)
    lo, hi = err.value.bracket
    assert lo <= 1.0 + 1e-9 and hi >= 1.0 - 1e-9


def test_branching_eigenvalues_match_dense_solver():
    # independent check of the power method on the real walk matrices; the
    # result is an upper bound, so it never falls below the dense root
    # (beyond the dense solver's own error)
    cases = [(L, pruning, 1e-11) for L in (4, 8, 12) for pruning in ("none", "weitz")]
    for L, pruning, tol in cases + [(8, "none", 1e-10)]:
        bm = z2_branching_matrix(L, pruning=pruning)
        dense = max(np.linalg.eigvals(bm.toarray()).real)
        ev = spectral_bound(bm, tol=tol)
        assert ev == pytest.approx(dense, abs=1e-8), (L, pruning, tol)
        assert ev >= dense - 1e-10, (L, pruning, tol)


def test_deeper_memory_matches_brute_force():
    for ordering, pruning in itertools.product(("relative", "uniform"), ("none", "weitz")):
        expected = brute_counts(8, ordering, pruning, 6)
        bm = z2_branching_matrix(8, ordering=ordering, pruning=pruning)
        assert bm.walk_counts(6) == expected, (ordering, pruning)


# Recorded from the tuple/dict enumerator that preceded the packed-key one:
# (states_raw, k, start, first 16 hex digits of the sha256 of the rows, cols
# and vals bytes, spectral_bound at tol 1e-10).  Any change to the states,
# their numbering or the COO order shows up here.
_FROZEN_AUTOMATA = {
    (2, "relative", "none", True): (2, 2, 0, "de6cd14001ae0978", 3.0000000000109175),
    (2, "relative", "none", False): (2, 2, 0, "de6cd14001ae0978", 3.0000000000109175),
    (2, "relative", "weitz", True): (5, 2, 0, "de6cd14001ae0978", 3.0000000000109175),
    (2, "relative", "weitz", False): (5, 5, 0, "618ef10717b7ee3f", 3.0000000000109193),
    (2, "uniform", "none", True): (2, 2, 0, "de6cd14001ae0978", 3.0000000000109175),
    (2, "uniform", "none", False): (2, 2, 0, "de6cd14001ae0978", 3.0000000000109175),
    (2, "uniform", "weitz", True): (5, 2, 0, "de6cd14001ae0978", 3.0000000000109175),
    (2, "uniform", "weitz", False): (5, 5, 0, "d23e085171776a41", 3.00000000001092),
    (4, "relative", "none", True): (7, 4, 0, "c52d2f5c2b85ef42", 2.8311772072200494),
    (4, "relative", "none", False): (7, 7, 0, "6437022eaf1decf0", 2.831177207220049),
    (4, "relative", "weitz", True): (16, 4, 0, "21363cf2c14ef1ec", 2.658967084187314),
    (4, "relative", "weitz", False): (16, 16, 0, "b0ca102f0dfcd111", 2.658967084187315),
    (4, "uniform", "none", True): (7, 4, 0, "c52d2f5c2b85ef42", 2.8311772072200494),
    (4, "uniform", "none", False): (7, 7, 0, "6437022eaf1decf0", 2.831177207220049),
    (4, "uniform", "weitz", True): (21, 13, 0, "1a45d85186b6b586", 2.6381894540081614),
    (4, "uniform", "weitz", False): (21, 21, 0, "3d34f34746b89bf8", 2.6381894540081614),
    (6, "relative", "none", True): (30, 13, 0, "039d09cdf3088eb8", 2.7755911424078077),
    (6, "relative", "none", False): (30, 30, 0, "50e946580710510a", 2.7755911424078072),
    (6, "relative", "weitz", True): (57, 13, 0, "ea75a6ac3f28dc5d", 2.54924225205646),
    (6, "relative", "weitz", False): (57, 57, 0, "b1a61fe404a9bcf7", 2.549242252056461),
    (6, "uniform", "none", True): (30, 13, 0, "039d09cdf3088eb8", 2.7755911424078077),
    (6, "uniform", "none", False): (30, 30, 0, "50e946580710510a", 2.7755911424078072),
    (6, "uniform", "weitz", True): (82, 36, 0, "e9f20ab8814bc6c1", 2.596625279373187),
    (6, "uniform", "weitz", False): (82, 82, 0, "6df5d590f5ed8700", 2.596625279373187),
    (8, "relative", "none", True): (143, 55, 0, "82239a06b3e8efe1", 2.7444582102372603),
    (8, "relative", "none", False): (143, 143, 0, "c13c0dbb8babd7b4", 2.74445821023726),
    (8, "relative", "weitz", True): (216, 77, 0, "8254480fe1cf9ce6", 2.504743682194479),
    (8, "relative", "weitz", False): (216, 216, 0, "aefbb5da9102e6ea", 2.504743682194479),
    (8, "uniform", "none", True): (143, 55, 0, "82239a06b3e8efe1", 2.7444582102372603),
    (8, "uniform", "none", False): (143, 143, 0, "c13c0dbb8babd7b4", 2.74445821023726),
    (8, "uniform", "weitz", True): (329, 147, 0, "85bbcbeb841f00e5", 2.5703910471061153),
    (8, "uniform", "weitz", False): (329, 329, 0, "999738d6e242894e", 2.5703910471061153),
    (10, "relative", "none", True): (722, 249, 0, "4935a1ce4bdc584d", 2.7247990176421477),
    (10, "relative", "none", False): (722, 722, 0, "1a9056bf12015994", 2.724799017642148),
    (10, "relative", "weitz", True): (846, 259, 0, "7cfe08d198ea242c", 2.4822522357565466),
    (10, "relative", "weitz", False): (846, 846, 0, "88e4f62a6e3855e5", 2.4822522357565466),
    (10, "uniform", "none", True): (722, 249, 0, "4935a1ce4bdc584d", 2.7247990176421477),
    (10, "uniform", "none", False): (722, 722, 0, "1a9056bf12015994", 2.724799017642148),
    (10, "uniform", "weitz", True): (1386, 561, 0, "db2ebbbf33f27b36", 2.5558358594147235),
    (10, "uniform", "weitz", False): (1386, 1386, 0, "9b2940e05ce75f96", 2.5558358594147235),
    (12, "relative", "none", True): (3807, 1216, 0, "6a0dae144b2ff017", 2.7112523387101053),
    (12, "relative", "none", False): (3807, 3807, 0, "8445eed066a5d7ca", 2.7112523387101053),
    (12, "relative", "weitz", True): (3462, 978, 0, "44e23f18886c361e", 2.468617299702379),
    (12, "relative", "weitz", False): (3462, 3462, 0, "a4c6e9b5c1e20d86", 2.468617299702379),
    (12, "uniform", "none", True): (3807, 1216, 0, "6a0dae144b2ff017", 2.7112523387101053),
    (12, "uniform", "none", False): (3807, 3807, 0, "8445eed066a5d7ca", 2.7112523387101053),
    (12, "uniform", "weitz", True): (6158, 2302, 0, "4416910813ceef74", 2.5456870247388212),
    (12, "uniform", "weitz", False): (6158, 6158, 0, "792b0313a558dbaa", 2.5456870247388212),
    (14, "relative", "weitz", True): (14817, 3909, 0, "49b66ca2d0b57400", 2.459183527176301),
    (14, "relative", "weitz", False): (14817, 14817, 0, "b1e98e05dc8c4d46", 2.459183527176301),
    (16, "relative", "weitz", True): (66073, 16659, 0, "4c3067e27b46e68e", 2.4521322967460875),
    (18, "relative", "weitz", True): (305221, 74308, 0, "e61d1f6b7d1c442b", 2.446625668014057),
}


def _coo_digest(bm):
    h = hashlib.sha256()
    for a, dtype in ((bm.rows, "<i8"), (bm.cols, "<i8"), (bm.vals, "<f8")):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("case", list(_FROZEN_AUTOMATA), ids=lambda c: "-".join(map(str, c)))
def test_automaton_frozen(case):
    L, ordering, pruning, merge = case
    bm = z2_branching_matrix(L, ordering=ordering, pruning=pruning, merge=merge)
    got = (bm.states_raw, bm.k, bm.start, _coo_digest(bm), spectral_bound(bm, tol=1e-10))
    assert got == _FROZEN_AUTOMATA[case]


def lexsort_merge(table):
    """Reference refinement: each round lexsorts the (k, 5) signatures
    (class, then the sorted successor classes) and numbers the classes by
    first member."""
    k = len(table)
    cls = np.zeros(k + 1, dtype=np.int32)
    cls[k] = -1  # table's -1 reads this slot
    nclasses = 1
    while True:
        sig = np.empty((k, 5), dtype=np.int32)
        sig[:, 0] = cls[:k]
        sig[:, 1:] = np.sort(cls[table], axis=1)
        order = np.lexsort(sig.T)
        ordered = sig[order]
        head = np.ones(k, dtype=bool)
        head[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        reps = np.sort(order[head])  # lexsort is stable: heads are first members
        number = np.empty(k, dtype=np.int32)
        number[reps] = np.arange(len(reps), dtype=np.int32)
        cls[order] = number[order[head]][np.cumsum(head) - 1]
        if len(reps) == nclasses:
            return cls[:k], reps
        nclasses = len(reps)


def _by_first_member(labels):
    """labels renumbered 0, 1, ... by the first member of each label."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int32)
    rank[np.argsort(first)] = np.arange(len(first), dtype=np.int32)
    return rank[inverse.ravel()]


def _assert_merge_matches_reference(table):
    """`_merge_isomorphic`, and `_refine` from one class, from the
    walk-count classes and from those with two classes merged, all equal
    the lexsort reference; the walk-count classes are coarser than or
    equal to its classes."""
    want_cls, want_reps = lexsort_merge(table)
    walk = connconst._walk_count_classes(table)
    assert walk.dtype == np.int32
    assert np.array_equal(walk, _by_first_member(walk))
    assert np.array_equal(walk, walk[want_reps][want_cls])
    coarse = _by_first_member(np.where(walk == walk.max(), 0, walk))
    starts = [np.zeros(len(table), dtype=np.int32), walk, coarse]
    for cls, reps in [connconst._merge_isomorphic(table)] + [
        connconst._refine(table, start) for start in starts
    ]:
        assert cls.dtype == want_cls.dtype and np.array_equal(cls, want_cls)
        assert np.array_equal(reps, want_reps)
    return len(want_reps)


@pytest.mark.parametrize(
    "L,ordering,pruning",
    list(itertools.product(range(2, 15, 2), ("relative", "uniform"), ("none", "weitz"))),
)
def test_merge_matches_lexsort_reference(monkeypatch, L, ordering, pruning):
    tables = []
    merge = connconst._merge_isomorphic
    monkeypatch.setattr(connconst, "_merge_isomorphic", lambda t: tables.append(t) or merge(t))
    z2_branching_matrix(L, ordering=ordering, pruning=pruning)
    _assert_merge_matches_reference(tables[0])


def test_merge_matches_lexsort_reference_on_random_tables():
    # more than 4096 classes need 13 bits a field: a signature then spans
    # two keys, the first replaced by its dense rank
    rng = np.random.default_rng(11)
    most = 0
    for k in (1, 2, 7, 300, 5000, 20000):
        for targets in (k, min(k, 16)):  # few targets: many equal rows
            for missing in (0.0, 0.3, 0.9):
                table = rng.integers(0, targets, size=(k, 4)).astype(np.int32)
                table[rng.random((k, 4)) < missing] = -1
                most = max(most, _assert_merge_matches_reference(table))
    assert most > 4096


def test_merge_preserves_uniform_ordering_too():
    merged = z2_branching_matrix(6, ordering="uniform", pruning="weitz")
    raw = z2_branching_matrix(6, ordering="uniform", pruning="weitz", merge=False)
    assert merged.k < raw.k
    assert merged.walk_counts(9) == raw.walk_counts(9)


# -- lattice table -----------------------------------------------------------


def test_lattice_bounds_table():
    rows = {b.lattice: b for b in lattice_bounds_table()}
    expected = {
        "triangular": (4.251419, 0.961),
        "honeycomb": (1.847760, 4.976),
        "square": (2.679193, 2.082),
        "cubic": (4.7387, 0.822),
        "hypercubic-4d": (6.8040, 0.508),
        "hypercubic-5d": (8.8602, 0.367),
        "hypercubic-6d": (10.8886, 0.288),
        "square (pruned walk tree, memory 26)": (2.433, 2.529),
        "square (pruned walk tree, memory 30)": (2.429, 2.538),
    }
    assert set(rows) == set(expected)
    for name, (delta, bound) in expected.items():
        assert rows[name].connective_constant == pytest.approx(delta)
        assert truncate3(rows[name].ssm_bound) == pytest.approx(bound)
