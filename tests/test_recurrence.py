import math

import pytest

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


def test_eval_matches_fused_sandwich(catalog6):
    # the materialized evaluators and the fused pass are two independent
    # implementations of the same recurrence, pinned trees included
    for g in catalog6[::9]:
        cases = [(HARDCORE, "weitz", eval_hc, None),
                 (MONOMERDIMER, "plain", eval_md, None)]
        if g.n > 1:
            cases += [(HARDCORE, "weitz", eval_hc,
                       BoundaryCondition({g.n - 1: state}))
                      for state in (OCCUPIED, UNOCCUPIED)]
        depth = max(1, g.n // 2)
        for model, mode, ev, bc in cases:
            t = expand_saw_tree(g, 0, depth, mode=mode, boundary=bc)
            for act in ACTIVITIES:
                a = ev(t, act, ALL_ZERO)
                b = ev(t, act, ALL_MAX)
                pair = sandwich_values(g, 0, model, [act], depth, bc)[0][0]
                assert min(a, b) == pytest.approx(pair[0], rel=1e-13, abs=1e-15)
                assert max(a, b) == pytest.approx(pair[1], rel=1e-13, abs=1e-15)


def test_sandwich_outputs_frozen():
    # (pairs, nodes, truncated) recorded from the per-model walkers that the
    # single walker replaced; compared bit for bit
    g = gen_graph("gnp", n=12, d=3.0, seed=2)
    assert sandwich_values(g, 0, HARDCORE, ACTIVITIES, 5) == (
        [(0.218428316136688, 0.22215512171398627),
         (0.28870868230531177, 0.31665049744145796),
         (0.33979986740420864, 0.4702666686200684)], 81, True)
    assert sandwich_values(g, 0, MONOMERDIMER, ACTIVITIES, 5) == (
        [(0.5010813483680187, 0.5054889301107047),
         (0.37962961465673983, 0.3944031294446818),
         (0.27684730560739296, 0.31250611499716957)], 76, True)
    occupied = BoundaryCondition({1: OCCUPIED})
    assert sandwich_values(g, 0, HARDCORE, [1.0], 5, occupied) == (
        [(0.29836829836829837, 0.30303030303030304)], 28, True)
    unoccupied = BoundaryCondition({1: UNOCCUPIED})
    assert sandwich_values(g, 0, HARDCORE, [1.0], 5, unoccupied) == (
        [(0.28999675823816223, 0.3147605083088954)], 75, True)
    edge = graph_from_edges(2, [(0, 1)])  # degree-1 root at depth 0
    assert sandwich_values(edge, 0, HARDCORE, [1.5], 0) == ([(0.0, 1.5)], 1, True)
    assert sandwich_values(edge, 0, MONOMERDIMER, [1.5], 0) == ([(0.0, 1.0)], 1, True)
    c5 = gen_graph("cycle", n=5)  # fully expanded
    assert sandwich_values(c5, 0, HARDCORE, [1.0], 5) == (
        [(0.37500000000000006, 0.37500000000000006)], 11, False)
    assert sandwich_values(c5, 0, MONOMERDIMER, [1.0], 5) == (
        [(0.45454545454545453, 0.45454545454545453)], 9, False)
    for model in (HARDCORE, MONOMERDIMER):
        with pytest.raises(NodeBudgetError) as err:
            sandwich_values(g, 0, model, [1.0], 8, budget=37)
        assert err.value.nodes_expanded == 38


# -- certified intervals -----------------------------------------------------


def test_marginal_interval_trivial():
    single = graph_from_edges(1, [])
    assert marginal_interval(single, 0, hardcore(1.0), depth=0) == (1.0, 1.0)


def test_marginal_interval_c4_md():
    c4 = gen_graph("cycle", n=4)
    lo, hi = marginal_interval(c4, 0, monomerdimer(1.0), depth=4)
    assert lo == hi == pytest.approx(3.0 / 7.0, rel=1e-14)
    lo2, hi2 = marginal_interval(c4, 0, monomerdimer(1.0), depth=2)
    assert lo2 == pytest.approx(1.0 / 3.0) and hi2 == pytest.approx(0.5)
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


def test_dary_md_gaps_shape():
    gaps = dary_md_gaps(2, 1.0, 30)
    assert gaps[0] == 1.0
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
