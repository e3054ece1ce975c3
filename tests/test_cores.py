"""Core decomposition against the peel-to-fixpoint oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier import cores
from corehier.cores import core_numbers
from corehier.graph import NodeMeta, load_graph

from conftest import adjacency, core_numbers_oracle, make_graph, node_id, random_graph


def by_name(g, dec):
    return {g.external_ids[v]: dec.core[v] for v in range(g.n)}


def test_path_is_all_core_one():
    g = make_graph([("a", "b"), ("b", "c")])
    assert by_name(g, core_numbers(g)) == {"a": 1, "b": 1, "c": 1}


def test_k4_is_core_three():
    g = make_graph([("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")])
    dec = core_numbers(g)
    assert dec.core == core_numbers_oracle(g)
    assert set(dec.core) == {3} and dec.max_core == 3


def test_k4_with_pendant():
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "p")]
    g = make_graph(edges)
    dec = core_numbers(g)
    assert dec.core == core_numbers_oracle(g)
    assert by_name(g, dec)["p"] == 1
    assert dec.max_core == 3


def test_isolated_node_gets_core_zero():
    g = load_graph([("a", "b")], [NodeMeta("z")])
    dec = core_numbers(g)
    assert dec.core[node_id(g, "z")] == 0
    assert dec.max_core == 1


def test_loop_record_adds_nothing_to_core_numbers():
    looped = core_numbers(load_graph([("a", "a"), ("a", "b"), ("z", "z")], []))
    assert looped == core_numbers(load_graph([("a", "b")], [NodeMeta("z")]))
    assert looped.core == [1, 1, 0]


def test_max_core_is_the_largest_core_number():
    g = make_graph(
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "d")]
    )
    dec = core_numbers(g)
    assert dec.core == [2, 2, 2, 2, 2, 2] and dec.max_core == 2
    rng = np.random.default_rng(3)
    for _ in range(20):
        dec = core_numbers(random_graph(rng, int(rng.integers(1, 30)), int(rng.integers(0, 60))))
        assert dec.max_core == max(dec.core)


def test_monotone_nesting_of_cores():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(5, 40)), int(rng.integers(0, 50)))
        dec = core_numbers(g)
        for k in range(dec.max_core):
            upper = {v for v in range(g.n) if dec.core[v] >= k + 1}
            lower = {v for v in range(g.n) if dec.core[v] >= k}
            assert upper <= lower


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_matches_oracle_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 26)), int(rng.integers(0, 40)))
    dec = core_numbers(g)
    assert dec.core == core_numbers_oracle(g)
    assert all(dec.core[v] <= g.degrees[v] for v in range(g.n))


def test_core_subgraph_has_min_degree_k():
    rng = np.random.default_rng(77)
    for _ in range(15):
        g = random_graph(rng, 30, int(rng.integers(10, 60)))
        dec = core_numbers(g)
        adj = adjacency(g)
        for k in range(1, dec.max_core + 1):
            members = {v for v in range(g.n) if dec.core[v] >= k}
            for v in members:
                assert sum(1 for w in adj[v] if w in members) >= k


@pytest.mark.parametrize("min_batch", [1, 10**9])
def test_batched_and_single_peeling_match_oracle(monkeypatch, min_batch):
    # 1 peels every frontier in one vectorized step, 10**9 node by node
    monkeypatch.setattr(cores, "_MIN_BATCH", min_batch)
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(1, 40)), int(rng.integers(0, 80)))
        assert core_numbers(g).core == core_numbers_oracle(g)


def test_default_peeling_mixes_paths_correctly(monkeypatch):
    # big enough for frontiers on both sides of the batch threshold
    rng = np.random.default_rng(12)
    star = make_graph([("hub", f"leaf{i:03d}") for i in range(300)])
    path = make_graph([(f"p{i:03d}", f"p{i + 1:03d}") for i in range(300)])
    sizes = [(3000, 500), (3000, 6000), (1500, 15000)]
    graphs = [star, path] + [random_graph(rng, n, extra) for n, extra in sizes]
    default = [core_numbers(g).core for g in graphs]
    monkeypatch.setattr(cores, "_MIN_BATCH", 10**9)
    assert default == [core_numbers(g).core for g in graphs]
