import math

import pytest

from sawcount.counting import oracle_Z, oracle_marginal, partition_hc, partition_md
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
    # factor 0 gets budget // n = 20 nodes: enough for depths 0..3 of its
    # monomer-dimer tree (17 nodes) but not for the next pass
    g = gen_graph("gnp", n=12, d=3.0, seed=4)
    res = partition_md(g, 1.0, 0.01, budget=240)
    assert not res.converged
    assert res.failed_vertex == 0
    assert res.depth_max_used >= 2


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
