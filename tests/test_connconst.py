import itertools

import numpy as np
import pytest

from sawcount.connconst import (
    _UNIFORM_RANK,
    _VEC,
    PowerIterationError,
    StateCapError,
    _relative_rank,
    conn_profile,
    lattice_bounds_table,
    sample_roots,
    spectral_bound,
    truncate3,
    z2_branching_matrix,
)
from sawcount.graph import gen_graph


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
    assert len(prof.roots) < g.n


def test_sample_roots_deterministic():
    g = gen_graph("gnp", n=50, d=3.0, seed=0)
    a = sample_roots(g, 10, seed=1)
    assert a == sample_roots(g, 10, seed=1)
    assert len(a) == 10 and len(set(a)) == 10
    assert sample_roots(g, 99, seed=1) == list(range(50))


# -- walk automaton vs brute force -------------------------------------------


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
    for L in (0, 1, 3, 7):
        with pytest.raises(ValueError):
            z2_branching_matrix(L)
    with pytest.raises(ValueError):
        z2_branching_matrix(4, ordering="lexicographic")
    with pytest.raises(ValueError):
        z2_branching_matrix(4, pruning="aggressive")


def test_state_cap():
    with pytest.raises(StateCapError):
        z2_branching_matrix(10, state_cap=50)


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
    expected = brute_counts(8, "relative", "weitz", 6)
    bm = z2_branching_matrix(8, ordering="relative", pruning="weitz")
    assert bm.walk_counts(6) == expected


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
