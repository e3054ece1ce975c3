"""Fixture generators: degree profile, determinism, connectivity."""

import pytest

from corehier.errors import ConfigError
from corehier.fixtures import generate_kg_sparse, three_level_example
from corehier.graph import is_connected, load_graph


def test_worked_example_has_documented_shape():
    edges, nodes = three_level_example()
    g = load_graph(edges, nodes)
    assert g.n == 16 and g.m == 21
    assert is_connected(g)
    assert all(t > 0 for t in g.tokens)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_kg_sparse_profile(seed):
    edges, nodes = generate_kg_sparse(1000, seed=seed)
    g = load_graph(edges, nodes)
    assert g.n == 1000
    assert is_connected(g)
    assert all(a != b for a, b in edges)
    deg1 = sum(1 for k in g.degrees if k == 1) / g.n
    assert 0.50 <= deg1 <= 0.65
    assert 2.88 <= g.avg_degree <= 4.42
    assert all(10 <= t <= 120 for t in g.tokens)


def test_kg_sparse_is_reproducible():
    assert generate_kg_sparse(500, seed=3) == generate_kg_sparse(500, seed=3)
    assert generate_kg_sparse(500, seed=3) != generate_kg_sparse(500, seed=4)


def test_kg_sparse_small_n_works_or_errors_cleanly():
    edges, nodes = generate_kg_sparse(10, seed=0)
    g = load_graph(edges, nodes)
    assert g.n == 10 and is_connected(g)
    with pytest.raises(ConfigError):
        generate_kg_sparse(5, seed=0)
