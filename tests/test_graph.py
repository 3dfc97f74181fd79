import math
import random

import numpy as np
import pytest

from sawcount.graph import (
    degree_stats,
    gen_graph,
    graph_from_edge_list,
    graph_from_edges,
    graph_to_edge_list,
)


def test_parse_path():
    g = graph_from_edge_list("0 1\n1 2")
    assert g.n == 3
    assert list(g.edges()) == [(0, 1), (1, 2)]


def test_parse_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edge_list("0 0")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValueError, match="duplicate"):
        graph_from_edge_list("0 1\n0 1")
    with pytest.raises(ValueError, match="duplicate"):
        graph_from_edge_list("0 1\n1 0")


def test_parse_reports_line_number():
    with pytest.raises(ValueError, match="line 3"):
        graph_from_edge_list("0 1\n1 2\n2 x")
    with pytest.raises(ValueError, match="line 2"):
        graph_from_edge_list("0 1\n4")


def test_parse_comments_and_crlf():
    g = graph_from_edge_list("# a comment\r\n0 1\r\n\r\n# another\r\n1 2\r\n")
    assert g.n == 3 and g.num_edges == 2


def test_header_raises_vertex_count():
    g = graph_from_edge_list("# n 5\n0 1\n")
    assert g.n == 5
    assert g.degree(4) == 0
    # header never lowers n
    g2 = graph_from_edge_list("# n 2\n0 3\n")
    assert g2.n == 4


def test_round_trip():
    graphs = [
        gen_graph("cycle", n=5),
        gen_graph("complete", n=4),
        gen_graph("grid", width=3, height=2),
        gen_graph("gnp", n=30, d=2.5, seed=7),
        graph_from_edges(6, [(0, 1)]),  # trailing isolated vertices
        graph_from_edges(3, []),
    ]
    for g in graphs:
        assert graph_from_edge_list(graph_to_edge_list(g)) == g


def test_gen_cycle():
    g = gen_graph("cycle", n=4)
    assert g.n == 4 and g.num_edges == 4
    assert all(g.degree(v) == 2 for v in range(4))
    with pytest.raises(ValueError):
        gen_graph("cycle", n=2)


def test_gen_complete():
    g = gen_graph("complete", n=5)
    assert g.num_edges == 10


def test_gen_grid():
    g = gen_graph("grid", width=3, height=2)
    assert g.n == 6 and g.num_edges == 7


def test_gen_dary_tree():
    g = gen_graph("dary_tree", d=2, depth=2)
    assert g.n == 7 and g.num_edges == 6
    assert g.degree(0) == 2
    g3 = gen_graph("dary_tree", d=3, depth=3)
    assert g3.n == 1 + 3 + 9 + 27


def test_gen_unknown_kind():
    with pytest.raises(ValueError, match="unknown graph kind"):
        gen_graph("hypercube", n=4)


def test_gen_sizes_must_be_integral():
    # an integral float is the integer; any other size names its parameter
    assert gen_graph("dary_tree", d=2.0, depth=2.0) == gen_graph("dary_tree", d=2, depth=2)
    assert gen_graph("gnp", n=10.0, d=2, seed=3) == gen_graph("gnp", n=10, d=2, seed=3)
    for kind, params, name in (
        ("dary_tree", {"d": 2.5, "depth": 2}, "d"),
        ("dary_tree", {"d": 2, "depth": 1.5}, "depth"),
        ("grid", {"width": 2.5, "height": 2}, "width"),
        ("grid", {"width": 2, "height": float("inf")}, "height"),
        ("gnp", {"n": 10.5, "d": 2}, "n"),
        ("cycle", {"n": float("nan")}, "n"),
        ("complete", {"n": "4"}, "n"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            gen_graph(kind, **params)
    # gnp's mean degree stays real
    assert gen_graph("gnp", n=30, d=2.5, seed=7).n == 30


def test_gnp_frozen_regression():
    # exact edge count recorded once for the documented generator
    g = gen_graph("gnp", n=2000, d=3.0, seed=1)
    assert g.num_edges == 3034
    mean = 3.0 * 1999 / 2.0
    sd = math.sqrt(2000 * 1999 / 2 * (3 / 2000) * (1 - 3 / 2000))
    assert abs(g.num_edges - mean) <= 4 * sd


def test_gnp_determinism():
    a = gen_graph("gnp", n=100, d=3.0, seed=42)
    b = gen_graph("gnp", n=100, d=3.0, seed=42)
    c = gen_graph("gnp", n=100, d=3.0, seed=43)
    assert a == b
    assert a != c


def test_gnp_dense_probability_capped():
    g = gen_graph("gnp", n=5, d=10.0, seed=0)  # p = min(10/5, 1) = 1
    assert g.num_edges == 10


def test_degree_stats():
    assert degree_stats(gen_graph("cycle", n=4)) == (2, 2.0)
    star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert degree_stats(star) == (3, 1.5)
    assert degree_stats(graph_from_edges(5, [])) == (0, 0.0)


def test_graph_invariants():
    g = gen_graph("gnp", n=50, d=4.0, seed=3)
    for u in range(g.n):
        nbrs = g.adjacency[u]
        assert list(nbrs) == sorted(set(nbrs))
        assert u not in nbrs
        for v in nbrs:
            assert u in g.adjacency[v]


def test_graph_from_edges_validation():
    with pytest.raises(ValueError, match="out of range"):
        graph_from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="self-loop"):
        graph_from_edges(2, [(1, 1)])


def _half_edges(csr):
    # (source, flat index) of every half-edge of a CSR adjacency
    return np.repeat(np.arange(len(csr.deg)), csr.deg), np.arange(len(csr.nbrs))


def test_csr_back_reverses_half_edges(catalog6):
    graphs = list(catalog6) + [gen_graph("gnp", n=n, d=3.0, seed=s)
                               for n in (20, 200) for s in range(3)]
    graphs.append(graph_from_edges(5, []))
    for g in graphs:
        csr = g.csr
        src, flat = _half_edges(csr)
        assert (csr.nbrs[csr.back] == src).all()
        assert (csr.back[csr.back] == flat).all()
    # steps lists every half-edge out of a vertex but its arrival, by row
    csr = graphs[-2].csr
    src, flat = _half_edges(csr)
    rows, got = csr.steps(csr.nbrs, csr.back)
    want = [f for a, w in zip(csr.back, csr.nbrs)
            for f in range(csr.indptr[w], csr.indptr[w + 1]) if f != a]
    assert got.tolist() == want
    assert (rows == np.repeat(flat, csr.deg[csr.nbrs] - 1)).all()
    rows, got = csr.steps(np.arange(csr.deg.size))
    assert got.tolist() == flat.tolist() and rows.tolist() == src.tolist()


def test_csr_without_vertices():
    # a left-out vertex loses every half-edge, so every kept half-edge
    # has its reverse
    rng = random.Random(7)
    for n in (12, 40, 200):
        g = gen_graph("gnp", n=n, d=3.5, seed=n)
        for trial in range(6):
            gone = np.zeros(n, dtype=bool)
            if trial:
                gone[rng.sample(range(n), rng.randrange(1, n // 3))] = True
            else:
                # every neighbor of vertex 0 left out
                gone[list(g.adjacency[0])] = True
            csr = g.csr.without(gone)
            lists = [[] if gone[u] else [w for w in nbrs if not gone[w]]
                     for u, nbrs in enumerate(g.adjacency)]
            assert [csr.nbrs[csr.indptr[u]:csr.indptr[u + 1]].tolist()
                    for u in range(n)] == lists
            assert csr.deg.tolist() == list(map(len, lists))
            src, flat = _half_edges(csr)
            assert (csr.nbrs[csr.back] == src).all()
            assert (csr.back[csr.back] == flat).all()
