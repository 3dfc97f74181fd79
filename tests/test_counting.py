import math
from decimal import Decimal

import pytest

from sawcount import counting, recurrence
from sawcount.counting import (
    _cost_shares,
    _cycle_cutting_order,
    _forest_log_z,
    _roundoff_pad,
    oracle_Z,
    oracle_marginal,
    partition_hc,
    partition_md,
)
from sawcount.decay import decay_factor_hc
from sawcount.graph import gen_graph, graph_from_edges
from sawcount.recurrence import hardcore, monomerdimer


def test_oracle_z_examples():
    c4 = gen_graph("cycle", n=4)
    assert oracle_Z(c4, hardcore(1.0)) == 7.0
    assert oracle_Z(c4, monomerdimer(1.0)) == 7.0
    p3 = graph_from_edges(3, [(0, 1), (1, 2)])
    assert oracle_Z(p3, monomerdimer(1.0)) == 3.0
    k2 = graph_from_edges(2, [(0, 1)])
    assert oracle_Z(k2, monomerdimer(2.0)) == 3.0
    single = graph_from_edges(1, [])
    assert oracle_Z(single, hardcore(2.0)) == 3.0
    empty3 = graph_from_edges(3, [])
    assert oracle_Z(empty3, monomerdimer(5.0)) == 1.0


def test_oracle_z_known_formulas():
    # independent sets of a path: Fibonacci; matchings of K4 with weight g
    p5 = graph_from_edges(5, [(i, i + 1) for i in range(4)])
    assert oracle_Z(p5, hardcore(1.0)) == 13.0
    k4 = gen_graph("complete", n=4)
    g = 0.5
    assert oracle_Z(k4, monomerdimer(g)) == pytest.approx(1 + 6 * g + 3 * g * g)


def test_oracle_marginal_examples():
    k3 = gen_graph("complete", n=3)
    p, r = oracle_marginal(k3, 0, hardcore(1.0))
    assert (p, r) == (0.25, pytest.approx(1.0 / 3.0))
    c4 = gen_graph("cycle", n=4)
    assert oracle_marginal(c4, 0, monomerdimer(1.0)) == pytest.approx(3.0 / 7.0)
    single = graph_from_edges(1, [])
    assert oracle_marginal(single, 0, monomerdimer(1.0)) == 1.0


def test_oracle_size_guards():
    big = graph_from_edges(29, [])
    with pytest.raises(ValueError, match="n <= 28"):
        oracle_Z(big, hardcore(1.0))
    wide = gen_graph("grid", width=21, height=2)  # 41 edges
    with pytest.raises(ValueError, match="edges"):
        oracle_Z(wide, monomerdimer(1.0))


def test_oracle_marginal_boundary_guard():
    c4 = gen_graph("cycle", n=4)
    from sawcount.sawtree import OCCUPIED, BoundaryCondition

    with pytest.raises(ValueError, match="independent"):
        oracle_marginal(c4, 0, hardcore(1.0),
                        boundary=BoundaryCondition({1: OCCUPIED, 2: OCCUPIED}))
    with pytest.raises(ValueError, match="query vertex"):
        oracle_marginal(c4, 0, hardcore(1.0),
                        boundary=BoundaryCondition({0: OCCUPIED}))


def test_partition_hc_examples():
    k3 = gen_graph("complete", n=3)
    res = partition_hc(k3, 1.0, 0.01)
    assert abs(res.value - 4.0) <= 0.04
    assert res.lo - 1e-12 <= 4.0 <= res.hi + 1e-12
    c4 = gen_graph("cycle", n=4)
    res = partition_hc(c4, 1.0, 0.01)
    assert abs(res.value - 7.0) <= 0.07
    single = graph_from_edges(1, [])
    assert partition_hc(single, 2.0, 0.5).value == pytest.approx(3.0, rel=1e-12)


def test_partition_md_examples():
    c4 = gen_graph("cycle", n=4)
    res = partition_md(c4, 1.0, 0.01)
    assert abs(res.value - 7.0) <= 0.07
    k2 = graph_from_edges(2, [(0, 1)])
    assert partition_md(k2, 2.0, 1.0).value == pytest.approx(3.0, rel=1e-12)
    empty3 = graph_from_edges(3, [])
    assert partition_md(empty3, 5.0, 0.5).value == pytest.approx(1.0, rel=1e-12)


def test_partition_certified_interval_ratio():
    g = gen_graph("gnp", n=12, d=2.5, seed=11)
    for eps in (0.5, 0.1, 0.01):
        for res, z in (
            (partition_hc(g, 1.0, eps), oracle_Z(g, hardcore(1.0))),
            (partition_md(g, 1.0, eps), oracle_Z(g, monomerdimer(1.0))),
        ):
            assert res.lo * (1 - 1e-12) <= z <= res.hi * (1 + 1e-12)
            assert res.hi / res.lo <= (1 + eps) ** 2 + 1e-9
            assert abs(res.value / z - 1.0) <= eps


def test_log_z_monotone_in_activity():
    g = gen_graph("gnp", n=10, d=3.0, seed=2)
    for partition in (partition_hc, partition_md):
        prev = -math.inf
        for act in (0.25, 0.5, 1.0, 2.0, 4.0):
            res = partition(g, act, 0.001)
            assert res.log_value > prev
            prev = res.log_value


def test_isolated_vertex_identities():
    base = gen_graph("cycle", n=5)
    padded = graph_from_edges(6, list(base.edges()))  # vertex 5 isolated
    lam, gam = 1.5, 0.7
    assert oracle_Z(padded, hardcore(lam)) == pytest.approx(
        (1 + lam) * oracle_Z(base, hardcore(lam)), rel=1e-12
    )
    assert oracle_Z(padded, monomerdimer(gam)) == pytest.approx(
        oracle_Z(base, monomerdimer(gam)), rel=1e-12
    )
    res = partition_hc(padded, lam, 0.01)
    assert abs(res.value / ((1 + lam) * oracle_Z(base, hardcore(lam))) - 1) <= 0.01


def test_partition_budget_exhaustion_is_sound():
    g = gen_graph("gnp", n=12, d=3.0, seed=4)
    z_hc = oracle_Z(g, hardcore(1.0))
    z_md = oracle_Z(g, monomerdimer(1.0))
    for res, z in (
        (partition_hc(g, 1.0, 0.01, budget=30), z_hc),
        (partition_md(g, 1.0, 0.01, budget=30), z_md),
    ):
        assert not res.converged
        assert res.lo - 1e-9 <= z <= res.hi + 1e-9


def test_partition_budget_error_reports_depth_reached():
    # the only cycle is the triangle 5-6-7, so the telescope starts at its
    # degree-3 vertex 5; factor 0 gets budget // n = 20 nodes: enough for
    # depths 0..2 of its monomer-dimer tree (13 nodes) but not for the next
    # pass
    g = gen_graph("gnp", n=12, d=3.0, seed=4)
    assert _cycle_cutting_order(g) == ([5, 0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11], 1)
    res = partition_md(g, 1.0, 0.01, budget=240)
    assert not res.converged
    assert res.failed_vertex == 5
    assert res.depth_max_used >= 2


def test_partition_budget_error_keeps_the_forest_exact():
    # a count that runs out of budget still takes the forest tail in its
    # exact pass: with a-priori forest bounds the interval below was
    # log(hi/lo) = 9.50 wide, 9.25 of it from the forest
    g = gen_graph("gnp", n=12, d=3.0, seed=4)
    res = partition_md(g, 1.0, 0.01, budget=240)
    assert not res.converged and res.failed_vertex == 5
    assert res.log_hi - res.log_lo < 1.0
    assert res.lo <= oracle_Z(g, monomerdimer(1.0)) <= res.hi


def test_partition_log_width_within_eps():
    eps = 0.01
    for seed in (1, 2, 3, 4):
        g = gen_graph("gnp", n=50, d=3.0, seed=seed)
        for res in (partition_hc(g, 0.5, eps), partition_md(g, 1.0, eps)):
            assert res.converged
            assert math.log(res.hi) - math.log(res.lo) <= eps


def test_partition_hc_supercritical_advisory():
    k5 = gen_graph("complete", n=5)
    res = partition_hc(k5, 4.0, 0.1)
    assert res.advisory is not None and res.advisory.supercritical
    assert res.lo - 1e-12 <= oracle_Z(k5, hardcore(4.0)) <= res.hi + 1e-12
    assert res.advisory == decay_factor_hc(4.0, 3.0)
    sub = partition_hc(gen_graph("cycle", n=6), 0.5, 0.1)
    assert sub.advisory is None


def test_partition_certified_on_catalog(catalog8):
    # every connected graph on <= 8 vertices, activities rotating over
    # {0.5, 1, 2}: the certificate always contains the exact value
    acts = (0.5, 1.0, 2.0)
    for i, g in enumerate(catalog8[::3]):
        lam = acts[i % 3]
        gam = acts[(i + 1) % 3]
        res_hc = partition_hc(g, lam, 0.01)
        res_md = partition_md(g, gam, 0.01)
        z_hc = oracle_Z(g, hardcore(lam))
        z_md = oracle_Z(g, monomerdimer(gam))
        assert res_hc.lo <= z_hc <= res_hc.hi
        assert abs(res_hc.value / z_hc - 1.0) <= 0.01
        assert res_md.lo <= z_md <= res_md.hi
        assert abs(res_md.value / z_md - 1.0) <= 0.01


def test_partition_eps_validation():
    g = gen_graph("cycle", n=4)
    with pytest.raises(ValueError):
        partition_hc(g, 1.0, 0.0)
    with pytest.raises(ValueError):
        partition_md(g, 1.0, 1.5)
    empty = graph_from_edges(0, [])
    for h in (g, empty):
        with pytest.raises(ValueError, match="activity"):
            partition_hc(h, 0.0, 0.1)
        with pytest.raises(ValueError, match="activity"):
            partition_md(h, -1.0, 0.1)


def _is_forest(n, edges):
    parent = list(range(n))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_cycle_cutting_order():
    # the feedback vertices come first, the rest in id order
    assert _cycle_cutting_order(gen_graph("cycle", n=4)) == ([0, 1, 2, 3], 1)
    assert _cycle_cutting_order(gen_graph("complete", n=4)) == ([0, 1, 2, 3], 2)
    tree = gen_graph("dary_tree", d=2, depth=3)
    assert _cycle_cutting_order(tree) == (list(range(tree.n)), 0)
    # the hub of a wheel has the highest degree in the 2-core
    wheel = graph_from_edges(6, [(i, i % 5 + 1) for i in range(1, 6)]
                             + [(0, i) for i in range(1, 6)])
    assert _cycle_cutting_order(wheel) == ([0, 1, 2, 3, 4, 5], 2)
    for seed in (1, 2, 3, 4):
        g = gen_graph("gnp", n=50, d=3.0, seed=seed)
        order, k = _cycle_cutting_order(g)
        assert sorted(order) == list(range(g.n))
        assert order[k:] == sorted(order[k:])
        cut = set(order[:k])
        assert _is_forest(g.n, [e for e in g.edges() if not cut & set(e)])
        assert 5 <= k <= 8  # the greedy set is small on these graphs


def test_partition_exact_on_forests():
    # on a forest every factor is one untruncated pass: both models come
    # out exact, log(hi/lo) no more than the roundoff pad
    tree = gen_graph("dary_tree", d=2, depth=3)
    forest = graph_from_edges(
        14, [(0, 1), (1, 2), (2, 3), (5, 4), (5, 6), (5, 7), (9, 10), (12, 11)])
    for g in (tree, forest):
        order, k = _cycle_cutting_order(g)
        assert k == 0
        for partition, params in ((partition_hc, hardcore(1.5)),
                                  (partition_md, monomerdimer(0.7))):
            res = partition(g, params.activity, 0.01)
            pad = _roundoff_pad(g, params)
            assert res.converged and res.depth_max_used == 0
            assert res.log_hi - res.log_lo <= 2 * pad + 4 * math.ulp(res.log_hi)
            assert res.lo <= oracle_Z(g, params) <= res.hi


def test_partition_truncates_only_feedback_factors(monkeypatch):
    # every factor runs on the original graph with the earlier vertices
    # blocked; only the feedback vertices' factors make sandwich passes, and
    # the forest tail makes none (one pass of `_forest_log_z` gives it)
    calls = []

    def recording(g, v, model, activities, depth, boundary=None, budget=10**7,
                  blocked=frozenset(), **hint):
        out = sandwich_values(g, v, model, activities, depth, boundary, budget, blocked, **hint)
        calls.append((v, len(blocked), out[2]))
        return out

    sandwich_values = recurrence.sandwich_values
    monkeypatch.setattr(recurrence, "sandwich_values", recording)
    for seed in (1, 2, 3, 4):
        g = gen_graph("gnp", n=50, d=3.0, seed=seed)
        order, k = _cycle_cutting_order(g)
        position = {v: i for i, v in enumerate(order)}
        for partition, act in ((partition_hc, 0.5), (partition_md, 1.0)):
            calls.clear()
            assert partition(g, act, 0.01).converged
            assert all(position[v] == n_blocked for v, n_blocked, _ in calls)
            assert {v for v, _, truncated in calls if truncated} <= set(order[:k])
            assert [v for v, _, _ in calls if position[v] >= k] == []


def test_partition_walks_no_pass_twice(monkeypatch):
    # `_adaptive` sends a pass it expects above _CAP nodes straight to the
    # block walker, so no depth-first pass runs out at _CAP under a larger
    # budget to be walked again on blocks.  Without the hint those passes
    # come back and every output stays bit for bit
    budgets, discarded, blocks = [], [], []
    sandwich_values, dfs = recurrence.sandwich_values, recurrence._sandwich
    block_walker = recurrence._sandwich_blocks

    def outer(g, v, model, activities, depth, boundary=None, budget=10**7,
              blocked=frozenset(), **hint):
        budgets.append(budget)
        return sandwich_values(g, v, model, activities, depth, boundary, budget, blocked, **hint)

    def first_pass(*args):
        try:
            return dfs(*args)
        except recurrence.NodeBudgetError:
            if args[6] == recurrence._CAP < budgets[-1]:
                discarded.append(args[4])
            raise

    monkeypatch.setattr(recurrence, "sandwich_values", outer)
    monkeypatch.setattr(recurrence, "_sandwich", first_pass)
    monkeypatch.setattr(recurrence, "_sandwich_blocks",
                        lambda *args: blocks.append(args[4]) or block_walker(*args))

    def run(g, partition, act):
        discarded.clear()
        blocks.clear()
        res = partition(g, act, 0.01)
        assert res.converged
        return (res.lo, res.hi, res.log_lo, res.log_hi, res.value, res.depth_max_used,
                res.nodes_expanded), len(discarded), len(blocks)

    # graphs with the monomer-dimer passes thrown away without the hint
    cases = ((gen_graph("grid", width=6, height=6), 4),
             (gen_graph("gnp", n=50, d=3.0, seed=3), 2))
    for g, without_hint in cases:
        for partition, act in ((partition_md, 1.0), (partition_hc, 0.5)):
            out, n_discarded, n_blocks = run(g, partition, act)
            assert n_discarded == 0
            with monkeypatch.context() as m:
                m.setattr(recurrence._Deepening, "expected_nodes", lambda self, depth: None)
                unhinted, unhinted_discarded, _ = run(g, partition, act)
            assert unhinted == out
            if partition is partition_md:
                assert n_blocks > 0
                assert unhinted_discarded == without_hint


def _per_vertex_forest_log_z(g, params, cut):
    # the reference telescope of the forest g minus `cut`: its vertices in
    # ascending id, each one untruncated sandwich pass with the vertices
    # before it blocked
    taken = set(cut)
    out = 0.0
    for v in range(g.n):
        if v in taken:
            continue
        pairs, _, truncated = recurrence.sandwich_values(
            g, v, params.model, [params.activity], g.n, None, 10**7, taken)
        (lo, hi), = pairs
        assert lo == hi and not truncated
        out += math.log1p(lo) if params.model == recurrence.HARDCORE else -math.log(lo)
        taken.add(v)
    return out


def test_forest_log_z_matches_per_vertex_factors(catalog8):
    # one bottom-up pass over g minus the feedback set gives the sum of the
    # per-vertex untruncated factors to within a few ulps
    graphs = [gen_graph("gnp", n=50, d=3.0, seed=s) for s in (1, 2, 3, 4)]
    graphs += [g for g in catalog8 if g.num_edges == g.n - 1]  # the trees
    assert len(graphs) == 4 + 48
    for g in graphs:
        order, k = _cycle_cutting_order(g)
        for params in (hardcore(0.5), hardcore(2.0), monomerdimer(1.0), monomerdimer(0.3)):
            got = _forest_log_z(g, params, order[:k])
            want = _per_vertex_forest_log_z(g, params, order[:k])
            assert abs(got - want) <= 8 * math.ulp(want)


def test_cost_shares():
    # shares sum to the total, no share exceeds the width its factor has
    # reached, factors without a fit get an even share, and the uncapped
    # shares equalize the marginal cost beta A s**(-beta - 1)
    fits = [(1.5, math.log(2e3), 1.0), None, (3.0, math.log(40.0), 1.0),
            (2.0, math.log(10.0), 1e-4)]
    total = 0.02
    shares = _cost_shares(fits, total)
    assert shares[1] == total / 4
    assert shares[3] == 1e-4  # capped
    assert sum(shares) == pytest.approx(total, rel=1e-9) and sum(shares) <= total
    cost = [b * math.exp(a) * s ** (-b - 1) for (b, a, _), s in
            ((fits[0], shares[0]), (fits[2], shares[2]))]
    assert cost[0] == pytest.approx(cost[1], rel=1e-9)
    # every width already reached: the shares are the widths
    assert _cost_shares([(1.0, 0.0, 1e-3), (2.0, 0.0, 2e-3)], 0.01) == [1e-3, 2e-3]
    assert _cost_shares([None, None], 0.01) == [0.005, 0.005]


@pytest.mark.parametrize("skew", ["first", "last", "none"])
def test_partition_sound_under_bad_shares(monkeypatch, skew):
    # the targets are re-split from the allowance still unspent, so shares
    # that put all the weight on one factor, or on none, cost nodes but
    # never the certificate
    def bad(fits, total):
        weights = [0.0] * len(fits)
        if skew == "first":
            weights[0] = total
        elif skew == "last":
            weights[-1] = total
        return weights

    monkeypatch.setattr(counting, "_cost_shares", bad)
    eps = 0.01
    cases = [(gen_graph("grid", width=5, height=5), (hardcore(1.0), monomerdimer(1.0)))]
    cases += [(gen_graph("gnp", n=26, d=3.0, seed=s), (hardcore(0.5),)) for s in (1, 2, 3, 4)]
    for g, models in cases:
        for params in models:
            partition = partition_hc if params.model == recurrence.HARDCORE else partition_md
            res = partition(g, params.activity, eps)
            assert res.converged
            assert res.log_hi - res.log_lo <= eps
            assert res.lo <= oracle_Z(g, params) <= res.hi


def test_partition_md_nodes_fall():
    # cost-aware shares and the one-pass forest tail: fewer tree nodes than
    # equal shares with a sandwich pass per tail vertex (68219 and 45466)
    grid = gen_graph("grid", width=6, height=6)
    assert partition_md(grid, 1.0, 0.01).nodes_expanded < 68219
    g = gen_graph("gnp", n=50, d=3.0, seed=3)
    assert partition_md(g, 1.0, 0.01).nodes_expanded < 45466


@pytest.mark.parametrize("eps", [0.1, 0.01])
def test_partition_contains_oracle_sweep(eps):
    graphs = [(gen_graph("gnp", n=26, d=3.0, seed=s), (hardcore(0.5),))
              for s in range(1, 21)]
    graphs.append((gen_graph("grid", width=5, height=5),
                   (hardcore(1.0), monomerdimer(1.0))))
    for g, models in graphs:
        for params in models:
            partition = partition_hc if params.model == recurrence.HARDCORE else partition_md
            res = partition(g, params.activity, eps)
            assert res.converged
            assert res.lo <= oracle_Z(g, params) <= res.hi
            assert res.log_hi - res.log_lo <= eps


def test_partition_beyond_float_range():
    # 1050 disjoint edges: Z = 2^1050 (monomer-dimer, gamma 1) and 3^1050
    # (hard-core, lambda 1), both above the float range; the telescope is
    # exact there, and its certificate lives in log space
    g = graph_from_edges(2100, [(2 * i, 2 * i + 1) for i in range(1050)])
    for res, base in ((partition_md(g, 1.0, 0.01), 2), (partition_hc(g, 1.0, 0.01), 3)):
        log_z = 1050 * Decimal(base).ln()
        assert res.converged
        assert Decimal(res.log_lo) <= log_z <= Decimal(res.log_hi)
        assert res.log_hi - res.log_lo <= 1e-6
        assert res.value == res.lo == res.hi == math.inf
