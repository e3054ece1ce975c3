"""Level selection and coverage accounting."""

import pytest

from corehier.errors import ConfigError, InputError
from corehier.fixtures import generate_kg_sparse, three_level_example
from corehier.graph import NodeMeta, largest_connected_component, load_graph
from corehier.hierarchy import build_hierarchy
from corehier.sampling import round_robin_sample
from corehier.stats import community_stats, select_level

from conftest import make_graph, node_id, traced_peak


def names_of(g, members):
    return "".join(sorted(g.external_ids[v] for v in members))


def build_three_level():
    edges, nodes = three_level_example()
    g = largest_connected_component(load_graph(edges, nodes))
    return g, build_hierarchy(g, 16)


class TestSelectLevel:
    def test_single_cluster_hierarchy(self):
        g = largest_connected_component(make_graph([("a", "b"), ("b", "c")]))
        h = build_hierarchy(g, 10)
        assert [c.id for c in select_level(h, "LF")] == [0]
        assert select_level(h, "L1") == []

    def test_worked_example_levels(self):
        g, h = build_three_level()
        lf = {names_of(g, c.members) for c in select_level(h, "LF")}
        assert lf == {"ab", "cd", "efgh", "ij", "kl", "mnop"}
        l1 = {names_of(g, c.members) for c in select_level(h, "L1")}
        assert l1 == {"abcdefghijklmnop", "fghijklmnop"}

    def test_k4_pendant_levels(self):
        edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "p")]
        g = largest_connected_component(make_graph(edges))
        h = build_hierarchy(g, 10)
        assert [names_of(g, c.members) for c in select_level(h, "LF")] == ["abcdp"]
        assert [names_of(g, c.members) for c in select_level(h, "L1")] == ["abcdp"]

    def test_unknown_tag_rejected(self):
        g = largest_connected_component(make_graph([("a", "b")]))
        h = build_hierarchy(g, 10)
        with pytest.raises(ConfigError):
            select_level(h, "L9")
        with pytest.raises(ConfigError):
            select_level(h, "3")


class TestCoverage:
    def test_leaf_level_covers_all_tokens(self):
        g, h = build_three_level()
        stats = community_stats(h, "LF", g)
        assert stats.num_communities == 6
        assert stats.coverage_pct == pytest.approx(100.0, abs=1e-12)

    def test_partial_selection(self):
        # four nodes of 10 tokens; a selection covering three of them
        g = load_graph(
            [("a", "b"), ("b", "c"), ("c", "d")],
            [NodeMeta(x, token_count=10) for x in "abcd"],
        )
        lcc = largest_connected_component(g)
        h = build_hierarchy(lcc, 10)
        # carve a fake two-cluster registry over the single root
        from corehier.hierarchy import Cluster, Hierarchy

        clusters = {
            0: Cluster(0, {node_id(lcc, "a"), node_id(lcc, "b"), node_id(lcc, "c")}, 1, "root", None),
            1: Cluster(1, {node_id(lcc, "d")}, 1, "two_hop", None),
        }
        fake = Hierarchy(clusters, [0], {}, 1, 10, leaf_ids={0, 1})
        stats = community_stats(fake, "LF", lcc)  # both clusters are registered leaves
        assert stats.coverage_pct == pytest.approx(100.0)
        assert stats.num_communities == 2
        three = community_stats(
            Hierarchy({0: clusters[0]}, [0], {}, 1, 10, leaf_ids={0}), "LF", lcc
        )
        assert three.coverage_pct == pytest.approx(75.0)

    def test_empty_selection_is_zero_communities_zero_coverage(self):
        g = largest_connected_component(make_graph([("a", "b")], tokens={"a": 5, "b": 5}))
        h = build_hierarchy(g, 10)
        stats = community_stats(h, "L1", g)
        assert stats.num_communities == 0
        assert stats.coverage_pct == 0.0

    def test_zero_total_tokens_rejected(self):
        g = largest_connected_component(make_graph([("a", "b")]))
        h = build_hierarchy(g, 10)
        with pytest.raises(InputError):
            community_stats(h, "LF", g)

    def test_token_limit_must_be_positive(self):
        g = largest_connected_component(make_graph([("a", "b")], tokens={"a": 5, "b": 5}))
        h = build_hierarchy(g, 10)
        with pytest.raises(ConfigError, match=r"^token limit must be positive$"):
            community_stats(h, "LF", g, token_limit=0)

    def test_histogram_counts_sizes(self):
        g, h = build_three_level()
        stats = community_stats(h, "LF", g)
        assert stats.size_histogram == {2: 4, 4: 2}


class TestSampledCoverage:
    def test_sample_based_coverage_counts_touched_endpoints(self):
        g, h = build_three_level()
        result = round_robin_sample(h, g, 60)
        stats = community_stats(h, "LF", g, sample=result)
        touched = {*result.sources, *result.targets}
        expected = 100.0 * sum(g.tokens[v] for v in touched) / sum(g.tokens)
        assert stats.coverage_pct_sampled == pytest.approx(expected)
        assert stats.coverage_pct_sampled < 100.0

    def test_cap_based_coverage_runs_out_of_window(self):
        g, h = build_three_level()
        capped = community_stats(h, "LF", g, token_limit=30)
        uncapped = community_stats(h, "LF", g, token_limit=10**9)
        assert capped.coverage_pct_sampled < 100.0
        assert uncapped.coverage_pct_sampled == pytest.approx(100.0)

    def test_without_inputs_sampled_coverage_is_none(self):
        g, h = build_three_level()
        assert community_stats(h, "LF", g).coverage_pct_sampled is None


@pytest.mark.parametrize("tag", ["L1", "LF"])
def test_coverage_flags_take_a_few_bytes_per_node(tag):
    """Covered and counted nodes are flags, not sets of ints (~36 bytes per node each).

    A token limit that admits every member makes the counted flags cover the level.
    """
    edges, nodes = generate_kg_sparse(6000, seed=3)
    g = largest_connected_component(load_graph(edges, nodes))
    h = build_hierarchy(g, 40)
    stats, peak = traced_peak(community_stats, h, tag, g, None, 10**9)
    assert stats.coverage_pct_sampled == stats.coverage_pct
    assert peak <= 8 * g.n, f"peak {peak} B is {peak / g.n:.1f} B per node"
