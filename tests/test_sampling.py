"""Token accounting and round-robin selection traces and properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier.errors import ConfigError
from corehier.graph import NodeMeta, load_graph
from corehier.hierarchy import Cluster, Hierarchy, build_hierarchy
from corehier.graph import largest_connected_component
from corehier.sampling import (
    TokenModel,
    budget_from_edge_fraction,
    default_edge_costs,
    derive_max_cluster_size,
    round_robin_sample,
)

from conftest import check_round_robin_properties, make_graph, ranked_edges


class TestTokenModel:
    def test_estimate_rounds_up_and_floors_at_one(self):
        tm = TokenModel()
        assert tm.estimate("") == 0
        assert tm.estimate("abc") == 1
        assert tm.estimate("abcd") == 1
        assert tm.estimate("abcde") == 2
        assert tm.estimate("x" * 12) == 3

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            TokenModel(chars_per_token=0)


class TestDeriveMaxClusterSize:
    def test_context_window_over_average(self):
        g = load_graph([("a", "b")], [NodeMeta("a", token_count=40), NodeMeta("b", token_count=40)])
        assert derive_max_cluster_size(8000, g) == 200

    def test_clamps_at_two(self):
        g = load_graph([("a", "b")], [NodeMeta("a", token_count=400), NodeMeta("b", token_count=400)])
        assert derive_max_cluster_size(100, g) == 2

    def test_estimated_counts_from_text_lengths(self):
        tm = TokenModel()
        tokens = {"a": tm.estimate("x" * 12), "b": tm.estimate("y" * 28)}
        g = load_graph(
            [("a", "b")],
            [NodeMeta("a", token_count=tokens["a"]), NodeMeta("b", token_count=tokens["b"])],
        )
        # averages 5 tokens per node
        assert derive_max_cluster_size(50, g) == 10

    def test_all_zero_tokens_is_a_config_error(self):
        g = load_graph([("a", "b")], [])
        with pytest.raises(ConfigError):
            derive_max_cluster_size(8000, g)


def two_community_fixture():
    """Two leaf communities at one level with hand-picked degrees and costs.

    Community A (id 0) holds edges e1 (degree sum 7, cost 50) and
    e2 (degree sum 5, cost 50); community B (id 1) holds f1 (degree sum 6,
    cost 60). Extra structural edges give the endpoints their degrees but sit
    outside both communities.
    """
    edges = [
        # A: a0-a1 (e1), a0-a2 (e2)
        ("a0", "a1"), ("a0", "a2"),
        # B: b0-b1 (f1)
        ("b0", "b1"),
        # degree padding outside the communities
        ("a0", "x1"), ("a0", "x2"),
        ("a1", "y1"), ("a1", "y2"),
        ("b0", "z1"), ("b0", "z2"),
        ("b1", "w1"), ("b1", "w2"),
    ]
    g = make_graph(edges)
    deg = g.degrees
    a0, a1, a2, b0, b1 = (g.id_of(n) for n in ("a0", "a1", "a2", "b0", "b1"))
    assert deg[a0] + deg[a1] == 7
    assert deg[a0] + deg[a2] == 5
    assert deg[b0] + deg[b1] == 6
    clusters = {
        0: Cluster(0, {a0, a1, a2}, 2, "residual", None),
        1: Cluster(1, {b0, b1}, 2, "residual", None),
    }
    h = Hierarchy(clusters, [], {}, 2, 10, leaf_ids={0, 1})
    e1, e2, f1 = (min(a0, a1), max(a0, a1)), (min(a0, a2), max(a0, a2)), (min(b0, b1), max(b0, b1))
    costs = {edge: 1 for edge in g.edges()}
    costs[e1] = 50
    costs[e2] = 50
    costs[f1] = 60
    return g, h, costs, (e1, e2, f1)


def test_rank_orders_within_community():
    g, h, costs, (e1, e2, f1) = two_community_fixture()
    deg = g.degrees
    assert deg[e1[0]] + deg[e1[1]] > deg[e2[0]] + deg[e2[1]]


def test_round_robin_interleaves_communities():
    g, h, costs, (e1, e2, f1) = two_community_fixture()
    result = round_robin_sample(h, g, costs, 160)
    assert [p.edge for p in result.selected] == [e1, f1, e2]
    assert result.total_tokens == 160


def test_unaffordable_community_is_retired_and_budget_reused():
    g, h, costs, (e1, e2, f1) = two_community_fixture()
    result = round_robin_sample(h, g, costs, 100)
    assert [p.edge for p in result.selected] == [e1, e2]
    assert result.total_tokens == 100
    assert 1 in result.unaffordable


def test_budget_below_minimum_cost_selects_nothing():
    g, h, costs, _ = two_community_fixture()
    result = round_robin_sample(h, g, costs, 10)
    assert result.selected == []
    assert sorted(result.retired) == [0, 1]


def test_single_community_takes_everything_in_rank_order():
    g = make_graph([("a", "b"), ("b", "c"), ("a", "c")], tokens={"a": 4, "b": 4, "c": 4})
    lcc = largest_connected_component(g)
    h = build_hierarchy(lcc, 10)
    costs = default_edge_costs(lcc)
    result = round_robin_sample(h, lcc, costs, 1000)
    assert [p.edge for p in result.selected] == ranked_edges(lcc)
    assert result.total_tokens == sum(costs.values())


def test_default_costs_are_tokens_plus_overhead():
    g = make_graph([("a", "b")], tokens={"a": 3, "b": 9})
    costs = default_edge_costs(g)
    assert costs[(0, 1)] == 3 + 9 + 8
    assert default_edge_costs(g, overhead=0)[(0, 1)] == 12


def test_budget_from_edge_fraction_sums_top_ranked():
    g = make_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
        tokens={"a": 10, "b": 20, "c": 30, "d": 20, "e": 10},
    )
    costs = default_edge_costs(g, overhead=0)
    full = budget_from_edge_fraction(g, 1.0, costs)
    assert full == sum(costs.values())
    half = budget_from_edge_fraction(g, 0.5, costs)
    ranked = ranked_edges(g)
    assert half == sum(costs[e] for e in ranked[:2])
    with pytest.raises(ConfigError):
        budget_from_edge_fraction(g, 0.0, costs)


@settings(max_examples=60, deadline=None)
@given(budget=st.integers(1, 400))
def test_properties_hold_for_any_budget(budget):
    g, h, costs, _ = two_community_fixture()
    result = round_robin_sample(h, g, costs, budget)
    check_round_robin_properties(g, h, result, budget)
    again = round_robin_sample(h, g, costs, budget)
    assert again == result
