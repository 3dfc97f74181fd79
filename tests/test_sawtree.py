import itertools
import random
import sys

import numpy as np
import pytest

from sawcount import sawtree
from sawcount.graph import gen_graph, graph_from_edges
from sawcount.sawtree import (
    OCCUPIED,
    UNOCCUPIED,
    BoundaryCondition,
    NodeBudgetError,
    expand_saw_tree,
    nonbacktracking_totals,
    saw_counts,
)


def walk(node):
    yield node
    for c in node.children:
        yield from walk(c)


def structure(node):
    return (node.graph_vertex, node.depth, node.fix, node.is_frontier,
            tuple(structure(c) for c in node.children))


def test_c4_plain_levels():
    t = expand_saw_tree(gen_graph("cycle", n=4), 0, 4, mode="plain")
    assert t.level_counts == [1, 2, 2, 2, 0]
    assert t.truncated_frontier == []


def test_c4_weitz_levels_and_fixes():
    t = expand_saw_tree(gen_graph("cycle", n=4), 0, 4, mode="weitz")
    assert t.level_counts == [1, 2, 2, 2, 2]
    closers = [n for n in walk(t.root) if n.depth == 4]
    assert sorted(n.fix for n in closers) == [OCCUPIED, UNOCCUPIED]
    assert all(n.graph_vertex == 0 for n in closers)


def test_single_vertex():
    t = expand_saw_tree(graph_from_edges(1, []), 0, 5, mode="plain")
    # counts are padded to max_depth + 1; only the root exists
    assert t.level_counts[0] == 1 and sum(t.level_counts) == 1
    assert t.truncated_frontier == []


def test_k3_weitz_structure():
    # both depth-3 nodes carry one loop-closing copy of the root; the
    # 0->1->2 branch pins it occupied (1 < 2), the other unoccupied
    t = expand_saw_tree(gen_graph("complete", n=3), 0, 3, mode="weitz")
    assert t.level_counts == [1, 2, 2, 2]
    fixes = {}
    for n in walk(t.root):
        if n.depth == 3:
            parent_branch = n.graph_vertex, n.fix
            fixes.setdefault(n.fix, 0)
            fixes[n.fix] += 1
    assert fixes == {OCCUPIED: 1, UNOCCUPIED: 1}


def test_saw_counts_examples():
    assert saw_counts(gen_graph("cycle", n=4), 0, 4) == [2, 2, 2, 0]
    assert saw_counts(gen_graph("complete", n=4), 0, 3) == [3, 6, 6]
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert saw_counts(p3, 1, 2) == [2, 0]


def test_plain_levels_match_saw_counts(catalog6):
    for g in catalog6[::7]:
        for root in range(g.n):
            t = expand_saw_tree(g, root, g.n, mode="plain")
            assert t.level_counts[1:] == saw_counts(g, root, g.n)


def test_weitz_dominates_plain_levelwise(catalog6):
    for g in catalog6[::11]:
        tp = expand_saw_tree(g, 0, g.n, mode="plain")
        tw = expand_saw_tree(g, 0, g.n, mode="weitz")
        assert all(w >= p for w, p in zip(tw.level_counts, tp.level_counts))


def test_path_repeats_only_at_loop_closing_leaves(catalog6):
    def check(node, path, weitz):
        repeated = node.graph_vertex in path
        if repeated:
            assert weitz and not node.children
            assert node.fix in (OCCUPIED, UNOCCUPIED)
        elif not node.is_frontier:
            assert node.fix == "free"
        for c in node.children:
            check(c, path + [node.graph_vertex], weitz)

    for g in catalog6[::15]:
        check(expand_saw_tree(g, 0, g.n, mode="plain").root, [], False)
        check(expand_saw_tree(g, 0, g.n, mode="weitz").root, [], True)


def test_determinism():
    g = gen_graph("gnp", n=12, d=3.0, seed=5)
    a = expand_saw_tree(g, 0, 6, mode="weitz")
    b = expand_saw_tree(g, 0, 6, mode="weitz")
    assert structure(a.root) == structure(b.root)
    assert a.level_counts == b.level_counts


def test_frontier_nodes():
    t = expand_saw_tree(gen_graph("cycle", n=4), 0, 2, mode="plain")
    assert len(t.truncated_frontier) == 2
    assert all(n.depth == 2 and n.is_frontier for n in t.truncated_frontier)
    # natural leaves at max_depth are not frontier
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    t2 = expand_saw_tree(p3, 0, 2, mode="plain")
    assert t2.truncated_frontier == []


def test_node_budget():
    g = gen_graph("complete", n=8)
    with pytest.raises(NodeBudgetError) as err:
        expand_saw_tree(g, 0, 7, mode="weitz", node_budget=100)
    assert err.value.nodes_expanded == 101


def test_saw_counts_budget():
    g = gen_graph("complete", n=8)
    with pytest.raises(NodeBudgetError) as err:
        saw_counts(g, 0, 7, budget=50)
    assert err.value.nodes_expanded == 51


def test_saw_counts_rejects_a_negative_budget():
    # budget 0 is legal, as conn_profile passes what it has left
    g = gen_graph("complete", n=4)
    with pytest.raises(ValueError, match="budget"):
        saw_counts(g, 0, 3, budget=-1)
    with pytest.raises(NodeBudgetError) as err:
        saw_counts(g, 0, 3, budget=0)
    assert err.value.nodes_expanded == 1
    assert saw_counts(graph_from_edges(2, []), 0, 3, budget=0) == [0, 0, 0]


def dfs_saw_counts(g, v, l_max, budget=10**8):
    """Reference: the recursive depth-first count that stops at its
    (budget + 1)-th walk."""
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


def _outcome(count, g, v, l_max, budget):
    try:
        return count(g, v, l_max, budget)
    except NodeBudgetError as exc:
        return ("budget", exc.nodes_expanded)


def test_saw_counts_matches_dfs(catalog6):
    graphs = list(catalog6)
    graphs += [gen_graph("gnp", n=n, d=d, seed=s)
               for n in (6, 12, 20, 40) for d in (2.0, 3.0, 4.5) for s in range(3)]
    graphs += [gen_graph("complete", n=6), gen_graph("complete", n=8),
               gen_graph("grid", width=4, height=4),
               gen_graph("dary_tree", d=3, depth=4), graph_from_edges(5, [])]
    cases = 0
    for g in graphs:
        for l_max in (1, 2, 3, 5, 8, 12):
            for budget in (1, 5, 50, 1000, 10**8):
                want = _outcome(dfs_saw_counts, g, 0, l_max, budget)
                assert _outcome(saw_counts, g, 0, l_max, budget) == want
                cases += 1
    assert cases == 5520


def test_saw_counts_small_blocks_match_dfs(monkeypatch):
    # blocks and last-length chunks of 1 and 3 rows: every split of the
    # children, and the budget hit inside a chunk of the last length
    graphs = [gen_graph("gnp", n=20, d=3.0, seed=s) for s in range(2)]
    graphs += [gen_graph("complete", n=6), gen_graph("grid", width=4, height=4)]
    for block in (1, 3):
        monkeypatch.setattr(sawtree, "_BLOCK", block)
        for g in graphs:
            for l_max in (1, 2, 3, 6):
                for budget in (1, 7, 60, 10**8):
                    want = _outcome(dfs_saw_counts, g, 0, l_max, budget)
                    assert _outcome(saw_counts, g, 0, l_max, budget) == want


def test_saw_counts_frozen_growth_root():
    # recorded with the recursive depth-first count
    counts = saw_counts(gen_graph("gnp", n=2000, d=3.0, seed=1), 55, 12)
    assert counts == [7, 17, 62, 179, 538, 1656, 5022, 14823, 44188,
                      131462, 390508, 1159141]
    assert all(type(c) is int for c in counts)


def test_saw_counts_int32_ids(sparse40k):
    # above 32767 vertices the CSR keeps vertex ids as int32
    assert sparse40k.csr.nbrs.dtype == np.int32
    assert saw_counts(sparse40k, 32774, 7) == dfs_saw_counts(sparse40k, 32774, 7)


def _count_walk_rows(monkeypatch):
    # rows[k] = [tested, passed]: the children that saw_counts tests
    # against its walk table with k lengths left to read off (their
    # half-edge may be cut), and the ones it reads them off for.  A child
    # of length l_max - k has l_max - k - 1 path rows above its parent
    rows = {"l_max": None, 2: [0, 0], 3: [0, 0]}

    class Counted(sawtree._CutSets):
        __slots__ = ()

        def misses(self, top, f):
            got = super().misses(top, f)
            row = rows[rows["l_max"] - 1 - len(top)]
            row[0] += len(f)
            row[1] += int(np.count_nonzero(got))
            return got

    build = sawtree._walk_cut

    def wrapped(csr):
        sets = build(csr)
        return None if sets is None else Counted(*sets)

    monkeypatch.setattr(sawtree, "_walk_cut", wrapped)
    return rows


def _chorded_cycle(n, step):
    # a cycle of n vertices with a chord from every step-th vertex across it
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, i + n // 2) for i in range(0, n // 2, step)])


def test_walk_cut_matches_dfs(monkeypatch):
    # saw_counts reads the walks out of a child of length l_max - 3 or
    # l_max - 2 off its arrival half-edge's row of the walk table when no
    # vertex of the row's set is on its path above its parent: counts and
    # budget errors stay the depth-first count's.  The table is tested on
    # every graph here, also where saw_counts would skip it (`_cut_pays`):
    # gnp(80-2000, 2.2-3), a 3-ary tree, a 12x9 grid and cycles with
    # chords, lmax 3-13, blocks of 1, 3 and 4096 walks, and budgets drawn
    # below each total, which run out inside a count read off the table as
    # well as elsewhere.  Rows pass at both levels on gnp and the tree, and
    # fail on the gnp graphs and the cycles, where paths come back near a
    # child.  The grid has no row to test: each edge lies on a 4-cycle, so
    # its sets hold p
    monkeypatch.setattr(sawtree, "_cut_pays", lambda ok: True)
    rows = _count_walk_rows(monkeypatch)
    where = []  # for each budget error: whether a count read off the table raised it

    class Raised(NodeBudgetError):
        def __init__(self, nodes):
            super().__init__(nodes)
            count, walker = sys._getframe(1), sys._getframe(2)
            inner = count.f_locals["length"]  # the length count adds to
            outer = walker.f_locals["length"]  # that of saw_counts' children
            where.append(outer < walker.f_locals["l_max"] - 1 and inner > outer)

    monkeypatch.setattr(sawtree, "NodeBudgetError", Raised)
    rng = random.Random(27)
    graphs = {
        "gnp": [gen_graph("gnp", n=n, d=d, seed=s)
                for n, d, s in ((80, 3.0, 1), (150, 2.2, 2), (300, 2.5, 3), (2000, 3.0, 1))],
        "tree": [gen_graph("dary_tree", d=3, depth=5)],
        "grid": [gen_graph("grid", width=12, height=9)],
        "cycle": [_chorded_cycle(90, 7), _chorded_cycle(200, 13)],
    }
    cases = 0
    for kind, gs in graphs.items():
        seen = {k: list(rows[k]) for k in (2, 3)}
        for block, cap in ((1, 2000), (3, 20000), (4096, 200000)):
            monkeypatch.setattr(sawtree, "_BLOCK", block)
            for g in gs:
                for l_max in range(3, 14):
                    rows["l_max"] = l_max
                    v = rng.randrange(g.n)
                    want = _outcome(dfs_saw_counts, g, v, l_max, cap)
                    assert _outcome(saw_counts, g, v, l_max, cap) == want
                    total = cap if isinstance(want, tuple) else sum(want)
                    if total:
                        budget = rng.randrange(total)
                        assert (_outcome(saw_counts, g, v, l_max, budget)
                                == _outcome(dfs_saw_counts, g, v, l_max, budget))
                    cases += 1
        tested = {k: rows[k][0] - seen[k][0] for k in (2, 3)}
        passed = {k: rows[k][1] - seen[k][1] for k in (2, 3)}
        if kind in ("gnp", "tree"):
            assert passed[2] > 0 and passed[3] > 0, kind
        if kind in ("gnp", "cycle"):
            assert tested[2] + tested[3] > passed[2] + passed[3], kind
        if kind == "grid":
            assert tested == {2: 0, 3: 0}
    assert cases == 264
    assert any(where) and not all(where)


def test_walk_cut_stays_bounded(sparse40k, monkeypatch):
    # the sets of the half-edges into and around a hub with 6000 leaves
    # would hold O(degree) vertices each, and are never cut; sparse40k
    # would need 600 MB of exact bits, and its bits wrap at 128 vertices a
    # row, where a colliding bit only sends a child down the walk.  Counts
    # stay the depth-first count's, with the table tested (forced where
    # saw_counts would skip it) and not; the table keeps at most
    # _CUT_BYTES of bits and 16 bytes per half-edge, and its build's peak
    # stays under _CUT_BYTES and 64 bytes per half-edge (tracemalloc)
    import tracemalloc

    from sawcount.graph import Csr

    n = 6001
    hub = graph_from_edges(n, [(0, i) for i in range(1, n)]
                           + [(i, i + 1) for i in range(1, n - 1)])
    cases = [(hub, 0, 3), (hub, 0, 4), (hub, 17, 4), (hub, 17, 6)]
    cases += [(sparse40k, 32774, l_max) for l_max in range(6, 10)]
    for force in (False, True):
        if force:
            monkeypatch.setattr(sawtree, "_cut_pays", lambda ok: True)
        for g in (hub, sparse40k):
            csr = Csr.of(g.n, g.adjacency)
            tracemalloc.start()
            sawtree._walk_cut(csr)
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            half_edges = len(csr.nbrs)
            assert kept <= sawtree._CUT_BYTES + 16 * half_edges
            assert peak <= sawtree._CUT_BYTES + 64 * half_edges
            assert (csr.memo["walk cut"] is None) != force
        for g, v, l_max in cases:
            g.csr.memo.pop("walk cut", None)
            assert saw_counts(g, v, l_max) == dfs_saw_counts(g, v, l_max)
    assert sparse40k.csr.memo["walk cut"].mask == 127


def test_refused_tables_allocate_no_bits(sparse40k):
    # on sparse40k at most half of the half-edges may be cut in either
    # table (`_cut_pays`), and the walks below each half-edge say so before
    # any bit is set: the refused build of the walk table and of the block
    # walker's peaks under 48 bytes per half-edge (tracemalloc), where
    # their bits alone would take 16 more, and keeps no more than its
    # memo entry
    import tracemalloc

    from sawcount import recurrence
    from sawcount.graph import Csr

    for build in (sawtree._walk_cut, lambda csr: recurrence._cut_sets(csr, 2),
                  lambda csr: recurrence._cut_sets(csr, 3),
                  lambda csr: sawtree._half_edge_sets(csr, 3, sawtree._cut_pays,
                                                      recurrence._first_other)):
        csr = Csr.of(sparse40k.n, sparse40k.adjacency)
        tracemalloc.start()
        assert build(csr) is None
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 48 * len(csr.nbrs)
        assert kept <= 4096


def brute_nonbacktracking(g, v, l_max):
    """Reference: non-backtracking walks of 1..l_max steps from v, listed
    one by one, as running sums."""
    counts = [0] * (l_max + 1)

    def rec(prev, u, depth):
        counts[depth] += 1
        if depth < l_max:
            for w in g.adjacency[u]:
                if w != prev:
                    rec(u, w, depth + 1)

    rec(-1, v, 0)
    return list(itertools.accumulate(counts[1:]))


def test_nonbacktracking_totals_match_brute_force(catalog6):
    graphs = list(catalog6)
    graphs += [gen_graph("gnp", n=12, d=3.0, seed=s) for s in range(3)]
    graphs += [gen_graph("complete", n=5), gen_graph("cycle", n=5),
               gen_graph("grid", width=3, height=3), graph_from_edges(4, [(0, 1)])]
    for g in graphs:
        for l_max in (1, 2, 5):
            totals = nonbacktracking_totals(g, l_max)
            assert totals.shape == (g.n, l_max)
            for v in range(g.n):
                assert totals[v].tolist() == brute_nonbacktracking(g, v, l_max)


def test_nonbacktracking_totals_bound_saw_counts(catalog6):
    for g in catalog6[::7]:
        totals = nonbacktracking_totals(g, 6)
        for v in range(g.n):
            cum = itertools.accumulate(saw_counts(g, v, 6))
            assert all(c <= b for c, b in zip(cum, totals[v]))


def test_nonbacktracking_totals_inf_at_2_53():
    # K40: 39 * 38**(k - 1) walks of k steps; the running sums pass 2**53
    # between 10 and 11 steps
    totals = nonbacktracking_totals(gen_graph("complete", n=40), 12)
    want = list(itertools.accumulate(39 * 38 ** (k - 1) for k in range(1, 13)))
    assert want[9] < 2**53 <= want[10]
    assert (totals[:, :10] == np.array(want[:10], dtype=float)).all()
    assert want[:10] == [int(x) for x in totals[0, :10]]
    assert np.isinf(totals[:, 10:]).all()


def test_boundary_validation():
    c4 = gen_graph("cycle", n=4)
    with pytest.raises(ValueError, match="independent"):
        expand_saw_tree(c4, 0, 3, mode="weitz",
                        boundary=BoundaryCondition({1: OCCUPIED, 2: OCCUPIED}))
    with pytest.raises(ValueError, match="root"):
        expand_saw_tree(c4, 0, 3, mode="weitz",
                        boundary=BoundaryCondition({0: OCCUPIED}))
    with pytest.raises(ValueError, match="weitz"):
        expand_saw_tree(c4, 0, 3, mode="plain",
                        boundary=BoundaryCondition({1: OCCUPIED}))
    with pytest.raises(ValueError, match="bad pin"):
        BoundaryCondition({1: "maybe"})


def test_boundary_pruning():
    # pinning 2 occupied in C4 forces its neighbors 1 and 3 unoccupied,
    # so the tree below the root's children is pruned immediately
    c4 = gen_graph("cycle", n=4)
    t = expand_saw_tree(c4, 0, 4, mode="weitz",
                        boundary=BoundaryCondition({2: OCCUPIED}))
    kids = t.root.children
    assert [k.graph_vertex for k in kids] == [1, 3]
    assert all(k.fix == UNOCCUPIED and not k.children for k in kids)


def test_invalid_args():
    c4 = gen_graph("cycle", n=4)
    with pytest.raises(ValueError):
        expand_saw_tree(c4, 7, 3)
    with pytest.raises(ValueError):
        expand_saw_tree(c4, 0, -1)
    with pytest.raises(ValueError):
        expand_saw_tree(c4, 0, 3, mode="fancy")
    with pytest.raises(ValueError):
        saw_counts(c4, 0, 0)
