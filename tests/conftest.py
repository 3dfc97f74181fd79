import numpy as np
import pytest

from graph_catalog import connected_catalog, masks_to_edges
from sawcount.graph import graph_from_edges


@pytest.fixture(scope="session")
def catalog6():
    """All connected graphs on <= 6 vertices (one per iso class)."""
    return [graph_from_edges(len(m), masks_to_edges(m)) for m in connected_catalog(6)]


@pytest.fixture(scope="session")
def catalog8():
    """All connected graphs on <= 8 vertices (one per iso class)."""
    return [graph_from_edges(len(m), masks_to_edges(m)) for m in connected_catalog(8)]


@pytest.fixture(scope="session")
def sparse40k():
    """A random graph of mean degree 3 on 40000 vertices, so that its CSR
    adjacency keeps vertex ids as int32.  Its n*d/2 edges join uniform
    vertex pairs, loops and repeats dropped: the sparse limit of
    gnp(40000, 3), drawn directly because gen_graph's pair scan takes
    seconds at this size."""
    n = 40000
    pairs = np.random.default_rng(n).integers(0, n, size=(3 * n // 2, 2))
    pairs.sort(axis=1)
    pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
    return graph_from_edges(n, pairs.tolist())
