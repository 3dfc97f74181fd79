import math
import random

import numpy as np
import pytest

from sawcount import recurrence
from sawcount.counting import oracle_marginal
from sawcount.graph import gen_graph, graph_from_edges
from sawcount.recurrence import (
    ALL_MAX,
    ALL_ZERO,
    AdaptiveBudgetError,
    HARDCORE,
    MONOMERDIMER,
    ModelParams,
    dary_md_depth_for_tol,
    dary_md_gaps,
    eval_hc,
    eval_md,
    hardcore,
    marginal_adaptive,
    marginal_interval,
    monomerdimer,
    sandwich_values,
)
from sawcount.sawtree import (
    FREE,
    OCCUPIED,
    UNOCCUPIED,
    BoundaryCondition,
    NodeBudgetError,
    expand_saw_tree,
)

ACTIVITIES = (0.5, 1.0, 2.0)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams("ising", 1.0)
    with pytest.raises(ValueError):
        hardcore(0.0)
    with pytest.raises(ValueError):
        monomerdimer(-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            hardcore(bad)
        with pytest.raises(ValueError, match="finite"):
            monomerdimer(bad)


def test_infinite_activity_rejected():
    c5 = gen_graph("cycle", n=5)
    for model in (HARDCORE, MONOMERDIMER):
        with pytest.raises(ValueError, match="finite"):
            sandwich_values(c5, 0, model, [math.inf], 3)
    with pytest.raises(ValueError, match="finite"):
        eval_md(expand_saw_tree(c5, 0, 3, mode="plain"), math.inf)
    with pytest.raises(ValueError, match="finite"):
        dary_md_gaps(2, math.inf, 3)


# -- materialized-tree evaluators -------------------------------------------


def test_eval_hc_single_node():
    t = expand_saw_tree(graph_from_edges(1, []), 0, 3, mode="weitz")
    assert eval_hc(t, 2.0) == 2.0


def test_eval_hc_two_free_leaves():
    # P3 rooted at the middle: two free leaf children
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    t = expand_saw_tree(p3, 1, 3, mode="weitz")
    assert eval_hc(t, 1.0) == pytest.approx(0.25, abs=0)


def test_eval_hc_k3_exact():
    t = expand_saw_tree(gen_graph("complete", n=3), 0, 3, mode="weitz")
    for init in (ALL_ZERO, ALL_MAX):
        assert eval_hc(t, 1.0, init) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_eval_md_examples():
    single = expand_saw_tree(graph_from_edges(1, []), 0, 3, mode="plain")
    assert eval_md(single, 1.0) == 1.0
    k2 = expand_saw_tree(graph_from_edges(2, [(0, 1)]), 0, 2, mode="plain")
    assert eval_md(k2, 1.0) == 0.5
    c4 = expand_saw_tree(gen_graph("cycle", n=4), 0, 4, mode="plain")
    for init in (ALL_ZERO, ALL_MAX):
        assert eval_md(c4, 1.0, init) == pytest.approx(3.0 / 7.0, rel=1e-14)


def test_eval_mode_mismatch():
    plain = expand_saw_tree(gen_graph("cycle", n=4), 0, 2, mode="plain")
    weitz = expand_saw_tree(gen_graph("cycle", n=4), 0, 2, mode="weitz")
    with pytest.raises(ValueError):
        eval_hc(plain, 1.0)
    with pytest.raises(ValueError):
        eval_md(weitz, 1.0)


def _eval_md_pinned(tree, g, gamma):
    # (lo, hi) at the root of a materialized plain-mode tree with every
    # truncated node w in [1/(1 + gamma*(deg(w) - 1)), 1] (deg(w) for the
    # root): its children exclude its parent, and each is at most 1.  An
    # independent statement of the walkers' monomer-dimer frontier pin,
    # whose lower end below the root is rounded down to a multiple of
    # 2**-44 (the graphs here have small degrees), and of their rounding:
    # a node whose two sums differ has its ends multiplied by 1 -/+ 2**-52
    bits = 44
    down, up = 1.0 - 2.0**-52, 1.0 + 2.0**-52

    def val(node):
        if node.is_frontier:
            d = len(g.adjacency[node.graph_vertex]) - (node.depth > 0)
            p = 1.0 / (1.0 + gamma * d)
            if node.depth > 0:
                p = math.ldexp(math.floor(math.ldexp(p, bits)), -bits)
            elif d:
                p *= down
            return p, 1.0
        s_lo = s_hi = 0.0
        for child in node.children:
            c_lo, c_hi = val(child)
            s_lo += c_hi
            s_hi += c_lo
        lo, hi = 1.0 / (1.0 + gamma * s_lo), 1.0 / (1.0 + gamma * s_hi)
        if s_lo != s_hi:
            lo, hi = lo * down, hi * up
        return lo, hi

    return val(tree.root)


def test_eval_matches_fused_sandwich(catalog6):
    # the materialized evaluators and the fused pass are two independent
    # implementations of the same recurrence, pinned trees included: the
    # hard-core frontier pinned to [0, lambda], the monomer-dimer one to
    # its degree bound
    for g in catalog6[::9]:
        pins = [None]
        if g.n > 1:
            pins += [BoundaryCondition({g.n - 1: state}) for state in (OCCUPIED, UNOCCUPIED)]
        depth = max(1, g.n // 2)
        for bc in pins:
            t = expand_saw_tree(g, 0, depth, mode="weitz", boundary=bc)
            for act in ACTIVITIES:
                a = eval_hc(t, act, ALL_ZERO)
                b = eval_hc(t, act, ALL_MAX)
                pair = sandwich_values(g, 0, HARDCORE, [act], depth, bc)[0][0]
                assert min(a, b) == pytest.approx(pair[0], rel=1e-13, abs=1e-15)
                assert max(a, b) == pytest.approx(pair[1], rel=1e-13, abs=1e-15)
        t = expand_saw_tree(g, 0, depth, mode="plain")
        for act in ACTIVITIES:
            pair = sandwich_values(g, 0, MONOMERDIMER, [act], depth)[0][0]
            assert pair == _eval_md_pinned(t, g, act)


def test_monomer_dimer_pins_are_sound(catalog6, monkeypatch):
    # every pinned monomer-dimer pair, depth-first and (with the cap at one
    # node) on blocks, with and without blocked vertices, at every depth:
    # it contains the exact marginal, lies inside the unpinned pair of the
    # materialized tree of g minus blocked (eval_md with the frontier at 0
    # and at 1, in either order by depth parity) up to the walkers' outward
    # rounding, and is exact (lo == hi)
    # once the tree is fully expanded
    graphs = catalog6[::4] + [gen_graph("gnp", n=n, d=d, seed=s)
                              for n in (8, 10) for d in (3.0, 5.0) for s in (1, 2)]
    rng = random.Random(24)
    checked = 0
    for cap in (recurrence._CAP, 1):
        monkeypatch.setattr(recurrence, "_CAP", cap)
        for g in graphs:
            drop = frozenset(rng.sample(range(1, g.n), rng.randrange(g.n // 3 + 1)))
            for blocked in (frozenset(), drop):
                keep = [v for v in range(g.n) if v not in blocked]
                index = {v: i for i, v in enumerate(keep)}
                h = graph_from_edges(len(keep), [(index[u], index[v]) for u, v in g.edges()
                                                 if u in index and v in index])
                exact = [oracle_marginal(h, 0, monomerdimer(act)) for act in ACTIVITIES]
                for depth in range(g.n + 1):
                    pairs, _, truncated = sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, depth,
                                                          blocked=blocked)
                    tree = expand_saw_tree(h, 0, depth, mode="plain")
                    for act, p, (lo, hi) in zip(ACTIVITIES, exact, pairs):
                        ends = eval_md(tree, act, ALL_MAX), eval_md(tree, act, ALL_ZERO)
                        # the walkers round each level outward by one ulp,
                        # eval_md to nearest
                        slack = (depth + 1) * 2.0 ** -51
                        assert min(ends) * (1.0 - slack) <= lo <= hi <= max(ends) * (1.0 + slack)
                        assert lo - 1e-12 <= p <= hi + 1e-12
                        if not tree.truncated_frontier:
                            assert lo == hi
                        checked += 1
                    assert truncated == any(lo != hi for lo, hi in pairs)
                    if depth >= h.n:
                        assert not truncated
    assert checked > 2000


def test_sandwich_outputs_frozen():
    # (pairs, nodes, truncated) recorded from earlier walkers, compared bit
    # for bit: the per-model walkers, and for the bulk-scan cases below the
    # single walker that still pushed every node above the frontier.  Node
    # counts are walks: under a boundary a blocked vertex is no node of the
    # hard-core tree, and neither is a loop copy
    g = gen_graph("gnp", n=12, d=3.0, seed=2)
    assert sandwich_values(g, 0, HARDCORE, ACTIVITIES, 5) == (
        [(0.218428316136688, 0.22215512171398627),
         (0.28870868230531177, 0.31665049744145796),
         (0.33979986740420864, 0.4702666686200684)], 64, True)
    assert sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, 5) == (
        [(0.5010813483680185, 0.5029494083089585),
         (0.3796296146567397, 0.38769062874121396),
         (0.2768473056073928, 0.29995791365436136)], 76, True)
    occupied = BoundaryCondition({1: OCCUPIED})
    assert sandwich_values(g, 0, HARDCORE, [1.0], 5, occupied) == (
        [(0.29836829836829837, 0.30303030303030304)], 16, True)
    unoccupied = BoundaryCondition({1: UNOCCUPIED})
    assert sandwich_values(g, 0, HARDCORE, [1.0], 5, unoccupied) == (
        [(0.28999675823816223, 0.3147605083088954)], 49, True)
    edge = graph_from_edges(2, [(0, 1)])  # degree-1 root at depth 0
    assert sandwich_values(edge, 0, HARDCORE, [1.5], 0) == ([(0.0, 1.5)], 1, True)
    assert sandwich_values(edge, 0, MONOMERDIMER, [1.5], 0) == ([(0.3999999999999999, 1.0)], 1, True)
    c5 = gen_graph("cycle", n=5)  # fully expanded
    assert sandwich_values(c5, 0, HARDCORE, [1.0], 5) == (
        [(0.37500000000000006, 0.37500000000000006)], 9, False)
    assert sandwich_values(c5, 0, MONOMERDIMER, [1.0], 5) == (
        [(0.45454545454545453, 0.45454545454545453)], 9, False)
    for model in (HARDCORE, MONOMERDIMER):
        with pytest.raises(NodeBudgetError) as err:
            sandwich_values(g, 0, model, [1.0], 8, budget=37)
        assert err.value.nodes_expanded == 38
    # the level above the frontier is scanned in bulk: the root at depth 1,
    # the root's children at depth 2; vertex 9 pinned occupied blocks the
    # root child 8 and the grandchild 11, vertex 4 is a root child.  So at
    # depth 1 the root child 7, whose only other neighbor is 11, is an
    # exact leaf (R = 1/3).  A truncated monomer-dimer child w lies in
    # [1/(1 + gamma*(deg(w) - 1)), 1]
    assert sandwich_values(g, 0, HARDCORE, ACTIVITIES, 1) == (
        [(0.14814814814814814, 0.5), (0.125, 1.0),
         (0.07407407407407407, 2.0)], 4, True)
    assert sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, 1) == (
        [(0.3999999999999999, 0.5357142857142999), (0.24999999999999994, 0.44444444444444453),
         (0.14285714285714282, 0.38181818181820243)], 4, True)
    assert sandwich_values(g, 0, HARDCORE, ACTIVITIES, 2) == (
        [(0.16666666666666666, 0.24495967741935484),
         (0.16666666666666666, 0.3950617283950617),
         (0.13333333333333333, 0.6703448275862072)], 9, True)
    assert sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, 2) == (
        [(0.48956931359353856, 0.5357142857142859),
         (0.3557772236076449, 0.44444444444444453),
         (0.24134238454918625, 0.381818181818182)], 9, True)
    occupied9 = BoundaryCondition({9: OCCUPIED})
    unoccupied4 = BoundaryCondition({4: UNOCCUPIED})
    assert sandwich_values(g, 0, HARDCORE, [1.0], 1, occupied9) == (
        [(0.25, 0.5)], 3, True)
    assert sandwich_values(g, 0, HARDCORE, [1.0], 1, unoccupied4) == (
        [(0.25, 1.0)], 3, True)
    assert sandwich_values(g, 0, HARDCORE, [1.0], 2, occupied9) == (
        [(0.3333333333333333, 0.3333333333333333)], 4, False)
    assert sandwich_values(g, 0, HARDCORE, [1.0], 2, unoccupied4) == (
        [(0.25, 0.5925925925925926)], 7, True)
    # budgets that run out inside a bulk scan: of the root (depth 1) and of
    # the root child 8, whose children are nodes 7-9 (depth 2)
    for model in (HARDCORE, MONOMERDIMER):
        for depth, budget in ((1, 2), (2, 7)):
            with pytest.raises(NodeBudgetError) as err:
                sandwich_values(g, 0, model, [1.0], depth, budget=budget)
            assert err.value.nodes_expanded == budget + 1
    # the benchmark graph, at a depth that runs in milliseconds
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    assert sandwich_values(big, 943, HARDCORE, ACTIVITIES, 9) == (
        [(0.2850955575677363, 0.28570210953326375),
         (0.41540424078124716, 0.42616225319966006),
         (0.5200203596837023, 0.6033398500302531)], 8197, True)
    assert sandwich_values(big, 943, MONOMERDIMER, ACTIVITIES, 9) == (
        [(0.6060784267850262, 0.606141665366708),
         (0.47972474058582976, 0.4803485456054087),
         (0.3593522601867304, 0.36259130786707355)], 8204, True)
    # an isolated root is its own exact leaf at every depth, and a root
    # whose neighbor is pinned occupied is forced unoccupied
    isolated = graph_from_edges(3, [(1, 2)])
    for depth in range(4):
        assert sandwich_values(isolated, 0, HARDCORE, ACTIVITIES, depth) == (
            [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)], 1, False)
        assert sandwich_values(isolated, 0, MONOMERDIMER, ACTIVITIES, depth) == (
            [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], 1, False)
    occupied4 = BoundaryCondition({4: OCCUPIED})
    assert sandwich_values(g, 0, HARDCORE, ACTIVITIES, 3, occupied4) == (
        [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0)], 1, False)
    # several activities give what one call per activity gives
    for model in (HARDCORE, MONOMERDIMER):
        pairs, nodes, truncated = sandwich_values(g, 0, model, ACTIVITIES, 5)
        singles = [sandwich_values(g, 0, model, [a], 5) for a in ACTIVITIES]
        assert [([pair], nodes, truncated) for pair in pairs] == singles


def _table(g, model, a):
    # the leaf table sandwich_values hands to either walker
    return recurrence._leaf_table(model == HARDCORE, a, int(g.csr.deg.max()) + 1)


def _walk(walker, *args):
    try:
        return walker(*args)
    except NodeBudgetError as err:
        return "budget", err.nodes_expanded


def test_block_walker_matches_dfs(monkeypatch):
    # the block walker against the depth-first walker, bit for bit on
    # pair and node count and on the budget error, with blocks of a
    # few rows so that a parent's children are split over several blocks
    # and folded across block boundaries; from depth 2, since shallower
    # trees never reach the block walker
    rng = random.Random(10)
    cases = 0
    for rows in (2, 5):
        monkeypatch.setattr(recurrence, "_BLOCK", rows)
        for n in range(6, 31, 2):
            for seed in range(2):
                g = gen_graph("gnp", n=n, d=3.0, seed=seed)
                for model in (HARDCORE, MONOMERDIMER):
                    for depth in range(2, 9):
                        blocked = set(rng.sample(range(n), rng.randrange(n // 3 + 1)))
                        if model == HARDCORE and rng.random() < 0.5:
                            pins = rng.sample(range(n), rng.randrange(1, 4))
                            bc = BoundaryCondition({v: rng.choice((OCCUPIED, UNOCCUPIED))
                                                    for v in pins})
                            try:
                                bc.validate(g)
                            except ValueError:
                                continue  # occupied pins not independent
                            blocked = bc.blocked(g) | set(pins)
                        roots = [v for v in range(n) if v not in blocked]
                        if not roots:
                            continue
                        args = (g, rng.choice(roots), model, rng.choice(ACTIVITIES), depth,
                                frozenset(blocked))
                        table = _table(g, model, args[3])
                        want = recurrence._sandwich(*args, 10**7, table)
                        got = recurrence._sandwich_blocks(*args, 10**7, table)
                        assert got == want
                        # both walkers return the root's interval (lo, hi)
                        assert want[0][0] <= want[0][1] and got[0][0] <= got[0][1]
                        budget = rng.randrange(1, want[1] + 1)
                        assert (_walk(recurrence._sandwich_blocks, *args, budget, table)
                                == _walk(recurrence._sandwich, *args, budget, table))
                        cases += 1
    assert cases > 600


def test_leaf_table_matches_folding():
    # a last-level node's pair is (table[exact], table[exact + cut]), bit
    # for bit what folding its children one at a time gives, in any order:
    # an exact leaf folds its leaf value into both, a frontier child its
    # pins, 0 (x1.0 hard-core, +0.0 monomer-dimer) and the maximum
    rng = random.Random(3)
    for hc in (True, False):
        for a in ACTIVITIES:
            top = a if hc else 1.0
            table = recurrence._leaf_table(hc, a, 129)
            assert len(table) == 129
            for exact in range(65):
                for cut in range(65):
                    kids = [(top, top)] * exact + [(0.0, top)] * cut
                    rng.shuffle(kids)
                    if hc:
                        x0 = x1 = a
                        for y0, y1 in kids:
                            x0 *= 1.0 / (1.0 + y0)
                            x1 *= 1.0 / (1.0 + y1)
                    else:
                        s0 = s1 = 0.0
                        for y0, y1 in kids:
                            s0 += y0
                            s1 += y1
                        x0, x1 = 1.0 / (1.0 + a * s0), 1.0 / (1.0 + a * s1)
                    assert (table[exact], table[exact + cut]) == (x0, x1)


def test_shallow_trees_stay_depth_first(monkeypatch):
    # depth 0 and 1 are one scan of the root's neighbors: the depth-first
    # walker takes them with the full budget, whatever the root's degree.
    # The hub is the centre of a 6000-leaf star whose leaves are joined by
    # a path; values frozen
    calls = []
    blocks = recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append(args[4]) or blocks(*args))
    n = 6001
    hub = graph_from_edges(n, [(0, i) for i in range(1, n)]
                           + [(i, i + 1) for i in range(1, n - 1)])
    assert sandwich_values(hub, 0, HARDCORE, [0.5], 0) == ([(0.0, 0.5)], 1, True)
    assert sandwich_values(hub, 0, MONOMERDIMER, [0.5], 0) == (
        [(0.00033322225924691765, 1.0)], 1, True)
    # 0.5 * (2/3)**6000 underflows, and round-to-nearest keeps the product
    # at the smallest subnormal
    assert sandwich_values(hub, 0, HARDCORE, [0.5], 1) == ([(5e-324, 0.5)], 6001, True)
    assert sandwich_values(hub, 0, MONOMERDIMER, [0.5], 1) == (
        [(0.00033322225924691765, 0.0006661485511269017)], 6001, True)
    for model in (HARDCORE, MONOMERDIMER):
        with pytest.raises(NodeBudgetError) as err:
            sandwich_values(hub, 0, model, [0.5], 1, budget=6000)
        assert err.value.nodes_expanded == 6001
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    for model in (HARDCORE, MONOMERDIMER):
        for depth in (0, 1):
            sandwich_values(big, 943, model, ACTIVITIES, depth)
    assert calls == []
    # from depth 2 a tree of more than _CAP nodes goes to the block walker
    assert sandwich_values(hub, 0, MONOMERDIMER, [0.5], 2) == (
        [(0.0004997406108258532, 0.0006661485511269015)], 17999, True)
    assert calls == [2]


def test_block_walker_int32_ids(sparse40k):
    # above 32767 vertices the CSR keeps vertex ids, and so the block
    # walker its path arrays, as int32; depths 6 to 9, with and without
    # blocked vertices, the tree of depth 9 above _CAP nodes
    g = sparse40k
    assert g.csr.nbrs.dtype == np.int32
    blocked = frozenset(random.Random(4).sample(range(g.n), 4000)) - {32774}
    for model in (HARDCORE, MONOMERDIMER):
        for drop in (frozenset(), blocked):
            for depth in range(6, 10):
                args = (g, 32774, model, 1.0, depth, drop)
                table = _table(g, model, 1.0)
                want = recurrence._sandwich(*args, 10**7, table)
                assert depth < 9 or want[1] > recurrence._CAP
                assert recurrence._sandwich_blocks(*args, 10**7, table) == want
                assert (_walk(recurrence._sandwich_blocks, *args, want[1] // 2, table)
                        == ("budget", want[1] // 2 + 1))


def _count_cut_rows(monkeypatch):
    # counts["tested"] and counts["passed"]: the rows the block walker
    # tests against the cut table and the ones it reads off it, seen
    # through its takes of the table's ok and below arrays
    counts = {"tested": 0, "passed": 0}

    class Counted(np.ndarray):
        def take(self, index, *args, **kwargs):
            counts[self.key] += len(index)
            return np.asarray(self).take(index, *args, **kwargs)

    def counted(key, array):
        out = array.view(Counted)
        out.key = key
        return out

    table = recurrence._cut_table

    def wrapped(*args):
        got = table(*args)
        if got is None:
            return None
        sets, lo, hi = got
        return sets._replace(ok=counted("tested", sets.ok),
                             below=counted("passed", sets.below)), lo, hi

    monkeypatch.setattr(recurrence, "_cut_table", wrapped)
    return counts


def _chorded_cycle(n, step):
    # a cycle of n vertices with a chord from every step-th vertex across it
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                            + [(i, i + n // 2) for i in range(0, n // 2, step)])


def test_cut_table_matches_dfs(monkeypatch):
    # the block walker reads nodes two levels above the frontier off the
    # cut table where no vertex of their half-edge's set is on their path,
    # and walks the others: bit for bit the depth-first walker's pair,
    # node count and budget error.  The table is tested on every graph
    # here, also where the walker would skip it (`_cut_pays`): gnp(80-300,
    # 2.2-3), a grid, a 3-ary tree and cycles with chords, both models,
    # blocks of 3 and 1024 rows, with and without blocked sets and
    # hard-core boundaries (the table serves unblocked calls only).  Rows
    # pass on every kind of graph, and fail on all but the tree, where no
    # path comes back near a node
    monkeypatch.setattr(recurrence, "_cut_pays", lambda sets: True)
    counts = _count_cut_rows(monkeypatch)
    rng = random.Random(26)
    graphs = {
        "gnp": [gen_graph("gnp", n=n, d=d, seed=s)
                for n, d, s in ((80, 3.0, 1), (150, 2.2, 2), (300, 2.5, 3), (300, 3.0, 4))],
        "grid": [gen_graph("grid", width=12, height=9)],
        "tree": [gen_graph("dary_tree", d=3, depth=5)],
        "cycle": [_chorded_cycle(90, 7), _chorded_cycle(200, 13)],
    }
    cases = 0
    for kind, gs in graphs.items():
        seen = dict(counts)
        for rows in (3, 1024):
            monkeypatch.setattr(recurrence, "_BLOCK", rows)
            for g in gs:
                for model in (HARDCORE, MONOMERDIMER):
                    for depth in range(3, 10):
                        blocked = frozenset()
                        if rng.random() < 0.25:
                            blocked = frozenset(rng.sample(range(g.n), rng.randrange(1, g.n // 8)))
                            if model == HARDCORE and rng.random() < 0.5:
                                pins = {v: rng.choice((OCCUPIED, UNOCCUPIED))
                                        for v in rng.sample(range(g.n), 3)}
                                try:
                                    BoundaryCondition(pins).validate(g)
                                except ValueError:
                                    continue  # occupied pins not independent
                                blocked = BoundaryCondition(pins).blocked(g) | set(pins)
                        root = rng.choice([v for v in range(g.n) if v not in blocked])
                        a = rng.choice(ACTIVITIES)
                        args = (g, root, model, a, depth, frozenset(blocked))
                        table = _table(g, model, a)
                        want = recurrence._sandwich(*args, 10**7, table)
                        assert recurrence._sandwich_blocks(*args, 10**7, table) == want
                        budget = rng.randrange(1, want[1] + 1)
                        assert (_walk(recurrence._sandwich_blocks, *args, budget, table)
                                == _walk(recurrence._sandwich, *args, budget, table))
                        cases += 1
        passed = counts["passed"] - seen["passed"]
        failed = counts["tested"] - seen["tested"] - passed
        assert passed > 0 and (failed > 0) == (kind != "tree"), kind
    assert cases > 200


def test_cut_table_stays_bounded(sparse40k, monkeypatch):
    # a hub with 6000 leaves has O(degree**2) entries in the sets of the
    # half-edges into it, which are never cut, and sparse40k would need
    # 600 MB of exact bits: its bits wrap at 128 vertices a row, where a
    # colliding bit only sends a row down the walk.  Bit for bit the
    # depth-first walker's pairs and node counts, with the table tested
    # (forced where the walker would skip it) and not; the table of both
    # models keeps at most _CUT_BYTES of bits and 64 bytes per half-edge,
    # and its build's peak stays under _CUT_BYTES and 128 bytes per
    # half-edge (tracemalloc)
    import tracemalloc

    from sawcount.graph import Csr

    n = 6001
    hub = graph_from_edges(n, [(0, i) for i in range(1, n)]
                           + [(i, i + 1) for i in range(1, n - 1)])
    cases = [(hub, 0, 3), (hub, 0, 4), (hub, 17, 4)]
    cases += [(sparse40k, 32774, depth) for depth in range(6, 10)]
    for force in (False, True):
        if force:
            monkeypatch.setattr(recurrence, "_cut_pays", lambda sets: True)
        for g in (hub, sparse40k):
            csr = Csr.of(g.n, g.adjacency)
            tracemalloc.start()
            for model in (HARDCORE, MONOMERDIMER):
                recurrence._cut_table(csr, model == HARDCORE, 1.0, _table(g, model, 1.0))
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            half_edges = len(csr.nbrs)
            assert kept <= recurrence._CUT_BYTES + 64 * half_edges
            assert peak <= recurrence._CUT_BYTES + 128 * half_edges
            assert (csr.memo["cut"] is None) != force
        for g, root, depth in cases:
            g.csr.memo.clear()
            for model in (HARDCORE, MONOMERDIMER):
                args = (g, root, model, 1.0, depth, frozenset())
                table = _table(g, model, 1.0)
                want = recurrence._sandwich(*args, 10**7, table)
                assert recurrence._sandwich_blocks(*args, 10**7, table) == want
    assert sparse40k.csr.memo["cut"].mask == 127


def test_walk_count_bounds_the_tree_and_picks_the_walker(monkeypatch):
    # without a hint, sandwich_values counts the root's self-avoiding walks
    # of up to depth steps in g minus blocked, stopping past _CAP: the
    # count (sawtree.saw_counts of that graph) is the monomer-dimer node
    # count and bounds the hard-core one, so a tree above _CAP goes
    # straight to the block walker and one at or under it depth-first,
    # with no pass thrown away
    from sawcount.sawtree import saw_counts

    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    drop = frozenset({894, 7, 1317})
    cut = graph_from_edges(big.n, [e for e in big.edges() if not set(e) & drop])
    for blocked, h in ((frozenset(), big), (drop, cut)):
        for depth in range(2, 11):
            count = recurrence._walks_from(big.csr, 943, depth, blocked)
            walks = 1 + sum(saw_counts(h, 943, depth))
            if walks <= recurrence._CAP:
                assert walks <= count <= recurrence._CAP
            else:
                assert recurrence._CAP < count <= walks
            for model in (HARDCORE, MONOMERDIMER):
                nodes = sandwich_values(big, 943, model, [1.0], depth, blocked=blocked)[1]
                assert nodes <= walks and (model == HARDCORE or nodes == walks)
    # where the degrees bound the count at or under _CAP, that bound is
    # taken (exact on a complete graph); past it the walks are counted
    k8 = gen_graph("complete", n=8)
    assert recurrence._walks_from(k8.csr, 0, 3, frozenset()) == 1 + 7 + 42 + 210
    count = recurrence._walks_from(k8.csr, 0, 7, frozenset())
    assert recurrence._CAP < count <= 1 + sum(saw_counts(k8, 0, 7))
    calls = []
    dfs, blocks = recurrence._sandwich, recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich",
                        lambda *args: calls.append("dfs") or dfs(*args))
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append("blocks") or blocks(*args))
    for depth, walker in ((5, "dfs"), (10, "blocks")):
        for model in (HARDCORE, MONOMERDIMER):
            calls.clear()
            sandwich_values(big, 943, model, ACTIVITIES, depth)
            assert calls == [walker] * 3


def test_block_walker_at_its_deepest_truncation(monkeypatch):
    # at depth _BLOCK_DEPTH the walker's path arrays reach their most
    # rows, one per depth above the nodes it scans in place: a cycle of
    # 128 vertices with 8 chords across it has walks longer than that,
    # and trees of 10-13 thousand nodes unblocked.  Bit for bit the
    # depth-first walker's pair, node count and budget error, with blocks
    # of the default width and of 7 nodes, with and without blocked
    # vertices
    n = 128
    g = graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                         + [(i, i + n // 2) for i in range(0, n // 2, 8)])
    depth = recurrence._BLOCK_DEPTH
    for width in (recurrence._BLOCK, 7):
        monkeypatch.setattr(recurrence, "_BLOCK", width)
        for model in (HARDCORE, MONOMERDIMER):
            for root in (0, 7):
                for drop in (frozenset(), frozenset({40, 99})):
                    args = (g, root, model, 1.0, depth, drop)
                    table = _table(g, model, 1.0)
                    want = recurrence._sandwich(*args, 10**7, table)
                    assert drop or want[1] > recurrence._CAP
                    assert recurrence._sandwich_blocks(*args, 10**7, table) == want
                    assert (_walk(recurrence._sandwich_blocks, *args, want[1] // 2, table)
                            == ("budget", want[1] // 2 + 1))


def test_sandwich_values_above_the_cap(monkeypatch):
    # trees of more than _CAP nodes go to the block walker; values frozen
    # from the depth-first walker
    calls = []
    blocks = recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append(args[4]) or blocks(*args))
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    assert sandwich_values(big, 943, HARDCORE, [1.0], 5) == (
        [(0.4008152454955233, 0.4603599426789176)], 106, True)
    assert calls == []
    assert sandwich_values(big, 943, HARDCORE, ACTIVITIES, 10) == (
        [(0.28511785571550624, 0.28543293310972134),
         (0.4158222243406578, 0.42298366929764664),
         (0.5223720318148909, 0.58825795398411)], 24427, True)
    assert sandwich_values(big, 943, MONOMERDIMER, ACTIVITIES, 10) == (
        [(0.6061168420570733, 0.6061415710709687),
         (0.4800444824905199, 0.4803479376199075),
         (0.36072786958969005, 0.36258947935685165)], 24485, True)
    pins = BoundaryCondition({1317: OCCUPIED, 501: UNOCCUPIED})
    assert sandwich_values(big, 943, HARDCORE, [1.0], 10, pins) == (
        [(0.6763237535335309, 0.6825987386345193)], 4693, True)
    assert sandwich_values(big, 943, MONOMERDIMER, [1.0], 10, blocked={894}) == (
        [(0.43981269094469894, 0.44008925681417244)], 23322, True)
    # a budget above the cap and below both node counts runs out in the
    # block walker, one at or below the cap in the depth-first pass; both
    # report the first node over budget
    for model in (HARDCORE, MONOMERDIMER):
        for budget in (24426, recurrence._CAP, 100):
            with pytest.raises(NodeBudgetError) as err:
                sandwich_values(big, 943, model, [1.0], 10, budget=budget)
            assert err.value.nodes_expanded == budget + 1
    assert calls == [10] * 10
    # a truncation deeper than _BLOCK_DEPTH stays depth-first: the one
    # untruncated pass over a path of 5000 vertices
    path = graph_from_edges(5000, [(i, i + 1) for i in range(4999)])
    pairs, nodes, truncated = sandwich_values(path, 0, MONOMERDIMER, [1.0], 5000)
    assert (nodes, truncated) == (5000, False)
    assert pairs[0][0] == pairs[0][1] == pytest.approx(0.618034, rel=1e-6)
    assert calls == [10] * 10


def test_block_walker_budget_edge(monkeypatch):
    # the last nodes a block walk counts are the frontier children of the
    # nodes scanned in place: a budget equal to the node count completes,
    # one less raises at the first node over it
    calls = []
    blocks = recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append(args[4]) or blocks(*args))
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    drop = frozenset(random.Random(5).sample(range(big.n), 200)) - {943, 1019}
    for root in (943, 1019):
        for model in (HARDCORE, MONOMERDIMER):
            for blocked in (frozenset(), drop):
                def run(budget):
                    return sandwich_values(big, root, model, [1.0], 10, budget=budget,
                                           blocked=blocked, expected_nodes=10**6)
                pairs, nodes, _ = run(10**7)
                assert nodes > recurrence._CAP
                assert run(nodes) == (pairs, nodes, True)
                with pytest.raises(NodeBudgetError) as err:
                    run(nodes - 1)
                assert err.value.nodes_expanded == nodes
    assert calls == [10] * 24


def test_block_walker_scans_the_root_block_in_place(monkeypatch):
    # with one row per block, depth 2 scans the root's children in place
    # from the root block, and depth 3 scans the grandchildren from each
    # one-node block of a child; pair, node count and budget error bit for
    # bit those of the depth-first walker.  The triangle with a pendant
    # vertex and the denser graphs hold frontier children of degree 3 or
    # more whose first neighbour other than the parent is on the path, and
    # the 40-leaf fan whose leaves are joined by a path many monomer-dimer
    # rows whose tabulated pin sum is corrected for path vertices
    monkeypatch.setattr(recurrence, "_BLOCK", 1)
    rng = random.Random(11)
    graphs = [graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
              graph_from_edges(41, [(0, i) for i in range(1, 41)]
                               + [(i, i + 1) for i in range(1, 40)])]
    graphs += [gen_graph("gnp", n=n, d=d, seed=seed)
               for n in (8, 20, 40) for d in (3.0, 6.0) for seed in range(2)]
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    cases = [(g, v) for g in graphs for v in range(0, g.n, 3)] + [(big, v) for v in (7, 943, 1019)]
    for g, root in cases:
        for model in (HARDCORE, MONOMERDIMER):
            for depth in (2, 3):
                for blocked in (frozenset(), frozenset(rng.sample(range(g.n), g.n // 4)) - {root}):
                    args = (g, root, model, rng.choice(ACTIVITIES), depth, blocked)
                    table = _table(g, model, args[3])
                    want = recurrence._sandwich(*args, 10**7, table)
                    assert recurrence._sandwich_blocks(*args, 10**7, table) == want
                    for budget in (want[1], want[1] - 1):
                        if budget:
                            assert (_walk(recurrence._sandwich_blocks, *args, budget, table)
                                    == _walk(recurrence._sandwich, *args, budget, table))


def test_pin_table_sums_exactly():
    # pins lie on a grid on which every sum of fewer than len(table) pins
    # and ones is exact: two orders give the same sum as exact rationals,
    # and each pin is at most its 1/(1 + gamma*k), 1.0 for k = 0
    from fractions import Fraction

    rng = random.Random(7)
    for size in (2, 4, 12, 101, 6001):
        for a in ACTIVITIES:
            table = recurrence._leaf_table(False, a, size)
            pins = recurrence._pin_table(table)
            assert pins[0] == 1.0
            bits = min(44, 52 - size.bit_length())
            assert all(0.0 < p <= t and t - p < 2.0 ** -bits for p, t in zip(pins, table))
            for _ in range(20):
                terms = [rng.choice(pins + (1.0,)) for _ in range(rng.randrange(1, min(size, 300)))]
                forward = backward = 0.0
                for x in terms:
                    forward += x
                for x in reversed(terms):
                    backward += x
                assert forward == backward == sum(map(Fraction, terms))


HINTS = (None, 0, recurrence._CAP + 1, 10**9)


def test_expected_nodes_hint_changes_no_output(monkeypatch):
    # a hint above _CAP sends the first activity straight to the block
    # walker when the budget is above the cap; pairs, node counts, flags
    # and budget errors are those of no hint, with blocked sets and pins,
    # on trees below and above the cap
    calls = []
    dfs, blocks = recurrence._sandwich, recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich",
                        lambda *args: calls.append("dfs") or dfs(*args))
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append("blocks") or blocks(*args))
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    pins = BoundaryCondition({1317: OCCUPIED, 501: UNOCCUPIED})
    cases = [(HARDCORE, None, frozenset()), (MONOMERDIMER, None, frozenset()),
             (HARDCORE, pins, frozenset({894})), (MONOMERDIMER, None, frozenset({894, 7}))]
    for model, boundary, blocked in cases:
        for depth in (2, 5, 10):
            want = sandwich_values(big, 943, model, ACTIVITIES, depth, boundary,
                                   blocked=blocked)
            for hint in HINTS:
                calls.clear()
                got = sandwich_values(big, 943, model, ACTIVITIES, depth, boundary,
                                      blocked=blocked, expected_nodes=hint)
                assert got == want
                if hint is not None and hint > recurrence._CAP:
                    assert calls == ["blocks"] * 3
                elif want[1] <= recurrence._CAP:
                    assert calls == ["dfs"] * 3
            for budget in (want[1] - 1, recurrence._CAP, 100):
                if not 1 <= budget < want[1]:
                    continue
                for hint in HINTS:
                    calls.clear()
                    with pytest.raises(NodeBudgetError) as err:
                        sandwich_values(big, 943, model, [1.0], depth, boundary, budget,
                                        blocked, expected_nodes=hint)
                    assert err.value.nodes_expanded == budget + 1
                    if budget <= recurrence._CAP:
                        assert calls == ["dfs"]  # the budget leaves no room for blocks
    # a boundary that pins a neighbor of the root occupied forces the root
    # unoccupied: R = 0 at one node, settled before either walker runs
    grid = gen_graph("grid", width=4, height=4)
    pinned = BoundaryCondition({1: OCCUPIED})
    for depth in (0, 1, 5):
        for hint in HINTS:
            calls.clear()
            assert sandwich_values(grid, 0, HARDCORE, ACTIVITIES, depth, pinned,
                                   expected_nodes=hint) == ([(0.0, 0.0)] * 3, 1, False)
            assert calls == []


def test_expected_nodes_hint_keeps_shallow_and_deep_trees_depth_first(monkeypatch):
    # depths 0 and 1 and truncations deeper than _BLOCK_DEPTH never reach
    # the block walker, whatever the hint
    calls = []
    blocks = recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append(args[4]) or blocks(*args))
    n = 6001
    hub = graph_from_edges(n, [(0, i) for i in range(1, n)]
                           + [(i, i + 1) for i in range(1, n - 1)])
    path = graph_from_edges(5000, [(i, i + 1) for i in range(4999)])
    for hint in HINTS:
        for model in (HARDCORE, MONOMERDIMER):
            for depth in (0, 1):
                assert (sandwich_values(hub, 0, model, [0.5], depth, expected_nodes=hint)
                        == sandwich_values(hub, 0, model, [0.5], depth))
            for depth in (recurrence._BLOCK_DEPTH + 1, 5000):
                got = sandwich_values(path, 0, model, [1.0], depth, expected_nodes=hint)
                assert got == sandwich_values(path, 0, model, [1.0], depth)
    assert calls == []


def test_expected_nodes_extrapolates_the_last_two_passes():
    st = recurrence._Deepening((0.0, 1.0))
    assert st.expected_nodes(3) is None
    st.passes = [(2, 0.5, 40)]
    assert st.expected_nodes(6) == 40  # one pass: its count, a lower bound
    st.passes = [(2, 0.5, 40), (4, 0.1, 360)]
    assert st.expected_nodes(4) == 360
    assert st.expected_nodes(6) == pytest.approx(3240, rel=1e-12)  # x3 per level
    assert st.expected_nodes(5) == pytest.approx(1080, rel=1e-12)
    st.passes = [(2, 0.5, 40), (4, 0.1, 40)]
    assert st.expected_nodes(8) == 40  # no growth: the last count


def test_sandwich_needs_an_activity():
    g = gen_graph("cycle", n=5)
    for model in (HARDCORE, MONOMERDIMER):
        with pytest.raises(ValueError, match="activity"):
            sandwich_values(g, 0, model, [], 3)


def test_blocked_vertices_act_as_deleted(monkeypatch):
    # a blocked vertex is deleted from the graph, ids unchanged: both models
    # give bit for bit the values and node counts of the induced subgraph,
    # in the depth-first walker and, with the cap at one node, in the block
    # walker from depth 2
    calls = []
    blocks = recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append(args[4]) or blocks(*args))
    g = gen_graph("gnp", n=12, d=3.0, seed=2)
    blocked = {4, 9, 10}
    keep = [v for v in range(g.n) if v not in blocked]
    index = {v: i for i, v in enumerate(keep)}
    h = graph_from_edges(len(keep), [(index[u], index[v]) for u, v in g.edges()
                                     if u in index and v in index])
    for cap in (recurrence._CAP, 1):
        monkeypatch.setattr(recurrence, "_CAP", cap)
        for root in (0, 5, 8):
            for depth in range(7):
                for model in (HARDCORE, MONOMERDIMER):
                    got = sandwich_values(g, root, model, ACTIVITIES, depth, blocked=blocked)
                    assert got == sandwich_values(h, index[root], model, ACTIVITIES, depth)
    assert set(calls) == set(range(2, 7))
    with pytest.raises(ValueError, match="blocked"):
        sandwich_values(g, 4, MONOMERDIMER, [1.0], 3, blocked=blocked)


def _stop_rule_walks(node):
    # the walks of a weitz tree that the stop rule reaches: the free nodes,
    # each node's children taken in order up to its first occupied one
    walks = 1
    for child in node.children:
        if child.fix == OCCUPIED:
            break
        if child.fix == FREE:
            walks += _stop_rule_walks(child)
    return walks


def test_walker_node_counts_against_materialized_trees(catalog6, monkeypatch):
    # nodes counts the self-avoiding walks the walker visits, in both
    # walkers: every node of the plain tree, and on a weitz tree the free
    # nodes the stop rule reaches, so no loop copy, no unoccupied leaf of
    # a blocked vertex and no sibling after an occupied copy, all of which
    # expand_saw_tree creates.  With the cap at one node every tree of
    # depth 2 or more goes through the block walker
    calls = []
    blocks = recurrence._sandwich_blocks
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: calls.append(args[4]) or blocks(*args))
    graphs = catalog6 + [gen_graph("gnp", n=n, d=3.0, seed=s)
                         for n in (12, 20) for s in range(1, 4)]
    for cap in (recurrence._CAP, 1):
        monkeypatch.setattr(recurrence, "_CAP", cap)
        for g in graphs:
            pins = [None] + [BoundaryCondition({g.n - 1: state})
                             for state in (OCCUPIED, UNOCCUPIED) if g.n > 1]
            for depth in range(7):
                md = sandwich_values(g, 0, MONOMERDIMER, [1.0], depth)[1]
                assert md == expand_saw_tree(g, 0, depth, mode="plain").nodes_expanded
                for bc in pins:
                    hc = sandwich_values(g, 0, HARDCORE, [1.0], depth, bc)[1]
                    tree = expand_saw_tree(g, 0, depth, mode="weitz", boundary=bc)
                    assert hc == _stop_rule_walks(tree.root)
                    assert hc <= md
    assert set(calls) == set(range(2, 7))
    g = gen_graph("gnp", n=12, d=3.0, seed=2)
    assert expand_saw_tree(g, 0, 5, mode="weitz").nodes_expanded == 98
    assert sandwich_values(g, 0, HARDCORE, [1.0], 5)[1] == 64
    occupied = BoundaryCondition({1: OCCUPIED})
    assert expand_saw_tree(g, 0, 5, mode="weitz", boundary=occupied).nodes_expanded == 34
    assert sandwich_values(g, 0, HARDCORE, [1.0], 5, occupied)[1] == 16


def test_truncated_flag_means_some_pair_is_not_exact():
    # gnp(5, 3, 1) at root 1, depth 4: the weitz tree is truncated, but
    # every frontier pin sits under an occupied loop copy, so the pair is
    # the exact ratio 2/7 and the flag is False
    g = gen_graph("gnp", n=5, d=3.0, seed=1)
    assert expand_saw_tree(g, 1, 4, mode="weitz").truncated_frontier
    (pair,), nodes, truncated = sandwich_values(g, 1, HARDCORE, [1.0], 4)
    assert pair == (2 / 7, 2 / 7)
    assert (nodes, truncated) == (15, False)
    assert oracle_marginal(g, 1, hardcore(1.0))[1] == pytest.approx(2 / 7, rel=1e-12)


def test_blocked_ids_out_of_range():
    # a blocked id outside range(g.n) is an error, whichever walker the
    # tree would go to: depth 5 is depth-first, depth 10 the block walker
    big = gen_graph("gnp", n=2000, d=3.0, seed=1)
    for model in (HARDCORE, MONOMERDIMER):
        for depth in (5, 10):
            for bad in (-1, 5000):
                with pytest.raises(ValueError, match="blocked vertex out of range"):
                    sandwich_values(big, 943, model, [1.0], depth, blocked={bad, 7})


def test_marginal_adaptive_rejects_vertices_out_of_range():
    # checked before the a-priori interval reads the vertex's degree
    g = gen_graph("cycle", n=4)
    for params in (hardcore(1.0), monomerdimer(1.0)):
        for bad in (4, -1):
            with pytest.raises(ValueError, match=f"vertex {bad} out of range"):
                marginal_adaptive(g, bad, params)


# -- certified intervals -----------------------------------------------------


def test_marginal_interval_trivial():
    single = graph_from_edges(1, [])
    assert marginal_interval(single, 0, hardcore(1.0), depth=0) == (1.0, 1.0)


def test_marginal_interval_c4_md():
    c4 = gen_graph("cycle", n=4)
    lo, hi = marginal_interval(c4, 0, monomerdimer(1.0), depth=4)
    assert lo == hi == pytest.approx(3.0 / 7.0, rel=1e-14)
    # at depth 2 the frontier vertex 2 has one child, 3, so its pin [1/2, 1]
    # is exact and so is the lower end, 3/7 but for the outward rounding
    # that keeps it below 3/7
    lo2, hi2 = marginal_interval(c4, 0, monomerdimer(1.0), depth=2)
    assert lo2 == pytest.approx(3.0 / 7.0, rel=1e-15) and hi2 == pytest.approx(0.5)
    assert lo2 < 3.0 / 7.0 < hi2


def test_sandwich_soundness(catalog6):
    # brute-force marginal always lies inside the certified interval,
    # at every depth, for both models
    for g in catalog6[::5]:
        for depth in range(g.n + 1):
            hc_pairs, _, _ = sandwich_values(g, 0, HARDCORE, ACTIVITIES, depth)
            md_pairs, _, _ = sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, depth)
            for act, (lo, hi) in zip(ACTIVITIES, hc_pairs):
                _, ratio = oracle_marginal(g, 0, ModelParams(HARDCORE, act))
                assert lo - 1e-12 <= ratio <= hi + 1e-12
            for act, (lo, hi) in zip(ACTIVITIES, md_pairs):
                p = oracle_marginal(g, 0, ModelParams(MONOMERDIMER, act))
                assert lo - 1e-12 <= p <= hi + 1e-12


def test_sandwich_soundness_larger_random_graphs():
    # extends the exhaustive small-graph check to sampled graphs on 9 and
    # 10 vertices, every depth, both models
    graphs = [gen_graph("gnp", n=n, d=d, seed=s)
              for n in (9, 10) for d in (2.0, 3.5) for s in (1, 2, 3)]
    for g in graphs:
        for depth in range(g.n + 1):
            hc_pairs, _, _ = sandwich_values(g, 0, HARDCORE, ACTIVITIES, depth)
            md_pairs, _, _ = sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, depth)
            for act, (lo, hi) in zip(ACTIVITIES, hc_pairs):
                _, ratio = oracle_marginal(g, 0, ModelParams(HARDCORE, act))
                assert lo - 1e-12 <= ratio <= hi + 1e-12
            for act, (lo, hi) in zip(ACTIVITIES, md_pairs):
                p = oracle_marginal(g, 0, ModelParams(MONOMERDIMER, act))
                assert lo - 1e-12 <= p <= hi + 1e-12


def test_width_nonincreasing_in_depth(catalog6):
    for g in catalog6[::13]:
        for model in (HARDCORE, MONOMERDIMER):
            prev = math.inf
            for depth in range(g.n + 1):
                lo, hi = sandwich_values(g, 0, model, [1.0], depth)[0][0]
                assert hi - lo <= prev + 1e-12
                prev = hi - lo


def test_value_ranges(catalog6):
    for g in catalog6[::17]:
        maxdeg = max(len(a) for a in g.adjacency)
        for act in ACTIVITIES:
            lo, hi = sandwich_values(g, 0, HARDCORE, [act], g.n)[0][0]
            assert 0.0 <= lo <= hi <= act
            lo, hi = sandwich_values(g, 0, MONOMERDIMER, [act], g.n)[0][0]
            assert 1.0 / (1.0 + act * maxdeg) - 1e-12 <= lo <= hi <= 1.0


def test_boundary_conditions_against_oracle(catalog6):
    # hard-core marginals with occupied/unoccupied pins match conditional
    # enumeration
    rng_graphs = [g for g in catalog6 if 4 <= g.n <= 6][::6]
    for g in rng_graphs:
        v = 0
        for pin_vertex in (g.n - 1, g.n - 2):
            for state in (OCCUPIED, UNOCCUPIED):
                bc = BoundaryCondition({pin_vertex: state})
                _, ratio = oracle_marginal(g, v, hardcore(1.0), boundary=bc)
                lo, hi = marginal_interval(g, v, hardcore(1.0), boundary=bc,
                                           depth=g.n + 1)
                assert lo == pytest.approx(hi, abs=1e-12)
                assert ratio == pytest.approx(lo, rel=1e-10, abs=1e-12)


def test_multi_pin_boundaries_against_oracle(catalog6):
    # exhaustive one- and two-vertex pins on a catalog slice: pins must
    # override loop-closing rules and prune occupied neighborhoods exactly
    import itertools

    for g in catalog6[2::4]:
        if g.n < 3:
            continue
        others = list(range(1, g.n))
        pin_sets = [(v,) for v in others] + list(itertools.combinations(others, 2))
        for pins in pin_sets:
            for states in itertools.product((OCCUPIED, UNOCCUPIED),
                                            repeat=len(pins)):
                bc = BoundaryCondition(dict(zip(pins, states)))
                try:
                    bc.validate(g)
                except ValueError:
                    continue  # occupied pair not independent
                _, ratio = oracle_marginal(g, 0, hardcore(2.0), boundary=bc)
                pairs, _, _ = sandwich_values(g, 0, HARDCORE, [2.0], g.n + 1,
                                              boundary=bc)
                lo, hi = pairs[0]
                assert hi - lo <= 1e-12 * max(1.0, hi)
                assert abs(lo - ratio) <= 1e-10 * max(1.0, abs(ratio))


def test_extreme_activities():
    # numerical robustness far from activity 1
    g = gen_graph("gnp", n=10, d=3.0, seed=6)
    for lam in (1e-6, 1e-3, 1e3, 1e6):
        _, ratio = oracle_marginal(g, 0, hardcore(lam))
        pairs, _, _ = sandwich_values(g, 0, HARDCORE, [lam], g.n)
        lo, hi = pairs[0]
        assert lo - 1e-12 * lam <= ratio <= hi + 1e-12 * lam
        assert abs(lo - ratio) <= 1e-9 * max(ratio, 1e-300)
    for gam in (1e-6, 1e-3, 1e3, 1e6):
        p = oracle_marginal(g, 0, monomerdimer(gam))
        pairs, _, _ = sandwich_values(g, 0, MONOMERDIMER, [gam], g.n)
        lo, hi = pairs[0]
        assert abs(lo - p) <= 1e-9 * p


def test_boundary_rejected_for_md():
    c4 = gen_graph("cycle", n=4)
    with pytest.raises(ValueError, match="hard-core"):
        marginal_interval(c4, 0, monomerdimer(1.0),
                          boundary=BoundaryCondition({2: OCCUPIED}), depth=2)


# -- adaptive marginals ------------------------------------------------------


def test_adaptive_k3():
    res = marginal_adaptive(gen_graph("complete", n=3), 0, hardcore(1.0),
                            tol=1e-6)
    assert abs(res.value - 1.0 / 3.0) <= 1e-6
    assert res.hi - res.lo <= 2e-6
    assert res.converged


def test_adaptive_trivial_tolerance():
    g = gen_graph("cycle", n=5)
    res = marginal_adaptive(g, 0, hardcore(1.0), tol=1.0)
    assert res.depth_max_used == 0
    assert (res.lo, res.hi) == (0.0, 1.0)


def test_adaptive_six_ary_tree():
    # frozen from a recorded run: near the critical activity the width
    # shrinks slowly, so the schedule steps at its doubling cap (depths 0,
    # 1, 2, 4, 8); depth 8 fully expands the height-6 tree (57593 nodes
    # over all passes, exact answer)
    from sawcount.decay import lambda_c

    g = gen_graph("dary_tree", d=6, depth=6)
    lam = lambda_c(5.0) - 0.1
    res = marginal_adaptive(g, 0, hardcore(lam), tol=1e-4, budget=10**7)
    assert res.converged
    assert res.hi - res.lo <= 2e-4
    assert res.depth_max_used == 8
    assert res.nodes_expanded == 57593


def test_adaptive_schedule_stops_near_minimal_depth():
    # the binary tree's sandwich gaps are known in closed form, so the
    # minimal sufficient depth is exact; the doubling schedule probes
    # depths 0, 1, 2, 4, 8, 16 and overshoots it
    g = gen_graph("dary_tree", d=2, depth=16)
    for tol in (1e-3, 1e-4):
        res = marginal_adaptive(g, 0, monomerdimer(1.0), tol=tol)
        minimal = dary_md_depth_for_tol(2, 1.0, tol)
        assert res.hi - res.lo <= 2 * tol
        assert minimal <= res.depth_max_used <= minimal + 1
        doubling_nodes, depth = 0, 0
        while True:
            pairs, nodes, _ = sandwich_values(g, 0, MONOMERDIMER, [1.0], depth)
            doubling_nodes += nodes
            if pairs[0][1] - pairs[0][0] <= 2 * tol:
                break
            depth = max(1, 2 * depth)
        assert res.nodes_expanded < doubling_nodes


def test_adaptive_in_stages_runs_the_same_passes():
    # a loop stopped at a depth and resumed under the same target and
    # budget makes the passes of one uninterrupted call, bit for bit
    g = gen_graph("gnp", n=200, d=3.0, seed=1)
    width = lambda lo, hi: hi - lo  # noqa: E731
    for v in (0, 7, 43):
        for params in (hardcore(0.5), monomerdimer(1.0)):
            for until in (0, 2, 4):
                whole = recurrence._adaptive(g, v, params, width, 1e-3, None, 10**6)
                state = recurrence._Deepening(recurrence.apriori_interval(params, g, v))
                first = recurrence._adaptive(g, v, params, width, 1e-3, None, 10**6,
                                             state=state, until=until)
                assert first[2] >= until and first[3] == state.total
                assert recurrence._adaptive(g, v, params, width, 1e-3, None, 10**6,
                                            state=state) == whole


def test_monomer_dimer_adaptive_keeps_the_apriori_lower_end():
    # the loop starts at the a-priori interval and narrows every pass by
    # it, so neither a budget error nor a depth-0 answer carries a monomer
    # probability below 1/(1 + gamma*deg(v))
    for g in (gen_graph("cycle", n=6), gen_graph("grid", width=4, height=4)):
        for gamma in (0.5, 2.0):
            for v in range(g.n):
                p_min = 1.0 / (1.0 + gamma * len(g.adjacency[v]))
                for budget in (1, 2, 3, 5):
                    with pytest.raises(AdaptiveBudgetError) as err:
                        marginal_adaptive(g, v, monomerdimer(gamma), tol=1e-9, budget=budget)
                    assert p_min <= err.value.lo <= err.value.hi <= 1.0
    c6 = gen_graph("cycle", n=6)
    with pytest.raises(AdaptiveBudgetError) as err:
        marginal_adaptive(c6, 0, monomerdimer(1.0), budget=2)
    assert (err.value.lo, err.value.hi, err.value.depth) == (1 / 3, 1.0, 0)
    res = marginal_adaptive(c6, 0, monomerdimer(1.0), tol=0.5)
    assert (res.lo, res.hi, res.depth_max_used) == (1 / 3, 1.0, 0)


def test_adaptive_budget_error():
    g = gen_graph("dary_tree", d=3, depth=8)
    with pytest.raises(AdaptiveBudgetError) as err:
        marginal_adaptive(g, 0, monomerdimer(2.0), tol=1e-12, budget=500)
    assert 0.0 <= err.value.lo <= err.value.hi <= 1.0
    assert err.value.nodes_expanded <= 500 + 1


# -- scalar d-ary collapse ---------------------------------------------------


def test_dary_md_gaps_match_tree_evaluator():
    for d, depth in ((2, 8), (3, 5)):
        g = gen_graph("dary_tree", d=d, depth=depth)
        gaps = dary_md_gaps(d, 1.0, depth - 1)
        for ell in range(depth):
            lo, hi = marginal_interval(g, 0, monomerdimer(1.0), depth=ell)
            assert hi - lo == pytest.approx(gaps[ell], rel=1e-12, abs=1e-15)


def test_dary_md_depth_for_tol_rejects_bad_input():
    # the same check as dary_md_gaps: d >= 1 and finite gamma > 0
    for d, gamma in ((0, 1.0), (-2, 1.0), (1, -1.0), (2, 0.0), (2, math.inf), (2, math.nan)):
        with pytest.raises(ValueError, match="need d >= 1"):
            dary_md_gaps(d, gamma, 3)
        with pytest.raises(ValueError, match="need d >= 1"):
            dary_md_depth_for_tol(d, gamma, 0.1)
    with pytest.raises(ValueError, match="tol"):
        dary_md_depth_for_tol(2, 1.0, 0.0)


def test_dary_md_gaps_shape():
    gaps = dary_md_gaps(2, 1.0, 30)
    assert gaps[0] == 1.0 - 1.0 / 3.0  # a frontier node with 2 children: [1/3, 1]
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
