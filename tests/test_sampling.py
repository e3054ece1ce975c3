"""Token accounting and round-robin selection traces and properties."""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier.errors import ConfigError, InputError
from corehier.fixtures import generate_kg_sparse
from corehier.graph import Graph, NodeMeta, load_graph
from corehier.hierarchy import Cluster, Hierarchy, build_hierarchy
from corehier.graph import largest_connected_component
from corehier.merging import MergeMode, merge_small_clusters
from corehier.sampling import (
    TokenModel,
    _ranked_edge_arrays,
    budget_from_edge_fraction,
    community_edge_ranking,
    default_edge_costs,
    derive_max_cluster_size,
    round_robin_sample,
)

from conftest import (
    check_round_robin_properties,
    community_ranking_oracle,
    make_graph,
    node_id,
    ranked_edges,
    round_robin_oracle,
    sample_fields,
    traced_peak,
    traced_retained,
)


class TestTokenModel:
    def test_estimate_rounds_up_and_floors_at_one(self):
        tm = TokenModel()
        assert tm.estimate("") == 0
        assert tm.estimate("abc") == 1
        assert tm.estimate("abcd") == 1
        assert tm.estimate("abcde") == 2
        assert tm.estimate("x" * 12) == 3

    @pytest.mark.parametrize("chars", [1e-320, 5e-324, 1e-308])
    def test_estimate_past_float_range_is_the_exact_ceiling(self, chars):
        # At 1e-308 one character stays in float range and seven do not.
        for length in (1, 2, 7, 1000):
            quotient = length / chars
            expected = math.ceil(Fraction(length) / Fraction(chars)) if quotient == math.inf else math.ceil(quotient)
            assert TokenModel(chars).estimate("x" * length) == expected

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
    cost 60). The costs are token counts priced with overhead 0 (pass
    ``overhead=0``): a0 = a1 = a2 = 25 and b0 = b1 = 30. Extra structural
    edges give the endpoints their degrees but sit outside both communities.
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
    g = make_graph(edges, tokens={"a0": 25, "a1": 25, "a2": 25, "b0": 30, "b1": 30})
    deg = g.degrees
    a0, a1, a2, b0, b1 = (node_id(g, n) for n in ("a0", "a1", "a2", "b0", "b1"))
    assert deg[a0] + deg[a1] == 7
    assert deg[a0] + deg[a2] == 5
    assert deg[b0] + deg[b1] == 6
    clusters = {
        0: Cluster(0, {a0, a1, a2}, 2, "residual", None),
        1: Cluster(1, {b0, b1}, 2, "residual", None),
    }
    h = Hierarchy(clusters, [], {}, 2, 10, leaf_ids={0, 1})
    e1, e2, f1 = (min(a0, a1), max(a0, a1)), (min(a0, a2), max(a0, a2)), (min(b0, b1), max(b0, b1))
    assert default_edge_costs(g, [e1, e2, f1], overhead=0) == [50, 50, 60]
    return g, h, (e1, e2, f1)


def test_rank_orders_within_community():
    g, h, (e1, e2, f1) = two_community_fixture()
    deg = g.degrees
    assert deg[e1[0]] + deg[e1[1]] > deg[e2[0]] + deg[e2[1]]


def test_round_robin_interleaves_communities():
    g, h, (e1, e2, f1) = two_community_fixture()
    result = round_robin_sample(h, g, 160, overhead=0)
    assert list(zip(result.sources, result.targets)) == [e1, f1, e2]
    assert result.total_tokens == 160


def test_unaffordable_community_is_retired_and_budget_reused():
    g, h, (e1, e2, f1) = two_community_fixture()
    result = round_robin_sample(h, g, 100, overhead=0)
    assert list(zip(result.sources, result.targets)) == [e1, e2]
    assert result.total_tokens == 100
    assert 1 in result.unaffordable


def test_budget_below_minimum_cost_selects_nothing():
    g, h, _ = two_community_fixture()
    result = round_robin_sample(h, g, 10, overhead=0)
    assert list(zip(result.sources, result.targets)) == []
    assert sorted(result.retired) == [0, 1]


def test_single_community_takes_everything_in_rank_order():
    g = make_graph([("a", "b"), ("b", "c"), ("a", "c")], tokens={"a": 4, "b": 4, "c": 4})
    lcc = largest_connected_component(g)
    h = build_hierarchy(lcc, 10)
    result = round_robin_sample(h, lcc, 1000)
    assert list(zip(result.sources, result.targets)) == ranked_edges(lcc)
    assert result.total_tokens == sum(default_edge_costs(lcc, lcc.edges()))


def test_default_costs_are_tokens_plus_overhead():
    g = make_graph([("a", "b")], tokens={"a": 3, "b": 9})
    assert default_edge_costs(g, [(0, 1)]) == [3 + 9 + 8]
    assert default_edge_costs(g, [(0, 1)], overhead=0) == [12]


def test_budget_from_edge_fraction_sums_top_ranked():
    g = make_graph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
        tokens={"a": 10, "b": 20, "c": 30, "d": 20, "e": 10},
    )
    full = budget_from_edge_fraction(g, 1.0, overhead=0)
    assert full == sum(default_edge_costs(g, g.edges(), overhead=0))
    half = budget_from_edge_fraction(g, 0.5, overhead=0)
    ranked = ranked_edges(g)
    assert half == sum(default_edge_costs(g, ranked[:2], overhead=0))
    with pytest.raises(ConfigError):
        budget_from_edge_fraction(g, 0.0, overhead=0)


@settings(max_examples=60, deadline=None)
@given(budget=st.integers(0, 400))
def test_properties_hold_for_any_budget(budget):
    g, h, _ = two_community_fixture()
    result = round_robin_sample(h, g, budget, overhead=0)
    check_round_robin_properties(g, h, result, budget, overhead=0)
    again = round_robin_sample(h, g, budget, overhead=0)
    assert sample_fields(again) == sample_fields(result)


def test_budget_of_zero_picks_only_free_edges_and_a_negative_one_is_rejected():
    free = make_graph([("a", "b"), ("b", "c"), ("a", "c")])
    lcc = largest_connected_component(free)
    result = round_robin_sample(build_hierarchy(lcc, 10), lcc, 0, overhead=0)
    assert list(zip(result.sources, result.targets)) == ranked_edges(lcc)
    assert result.total_tokens == 0
    with pytest.raises(ConfigError):
        round_robin_sample(build_hierarchy(lcc, 10), lcc, -1)


@st.composite
def priced_graphs(draw, tokens=st.integers(0, 2**64)):
    """Connected graphs on few nodes, so many edges tie on degree sum, with token counts drawn from ``tokens``."""
    n = draw(st.integers(2, 9))
    names = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=24))
    edges = [(names[a], names[b]) for a, b in pairs if a != b]
    tokens = draw(st.lists(tokens, min_size=n, max_size=n))
    g = make_graph(edges or [(names[0], names[1])], tokens=dict(zip(names, tokens)))
    return largest_connected_component(g)


@settings(max_examples=150, deadline=None)
@given(
    g=priced_graphs(),
    overhead=st.integers(0, 2**64),
    fraction=st.floats(0, 1, exclude_min=True),
    cap=st.integers(2, 6),
)
def test_budget_and_picks_follow_the_price_rule(g, overhead, fraction, cap):
    tokens = g.tokens
    ranked = ranked_edges(g)
    count = int(fraction * len(ranked) + 1e-9)
    budget = budget_from_edge_fraction(g, fraction, overhead)
    assert budget == sum(tokens[u] + tokens[w] + overhead for u, w in ranked[:count])
    h = build_hierarchy(g, cap)
    result = round_robin_sample(h, g, budget, overhead)
    check_round_robin_properties(g, h, result, budget, overhead)


@pytest.mark.parametrize("spokes,below", [(5, 0), (300, 255), (70_000, 65535)])
def test_ranking_matches_the_lexsort(spokes, below):
    """The one stable sort ranks as a 3-key lexsort does, whichever unsigned width holds the key."""
    rng = np.random.default_rng(spokes)
    chords = rng.integers(1, spokes + 1, size=(min(2 * spokes, 3000), 2))
    g = make_graph([("hub", f"s{i}") for i in range(1, spokes + 1)] + [(f"s{a}", f"s{b}") for a, b in chords if a != b])
    u, w = g.edge_arrays()
    degrees = np.array(g.degrees)
    assert (degrees[u] + degrees[w]).max() > below
    order = np.lexsort((w, u, -(degrees[u] + degrees[w])))
    ranked_u, ranked_w = _ranked_edge_arrays(g)
    assert np.array_equal(ranked_u, u[order]) and np.array_equal(ranked_w, w[order])


def test_pipeline_ranks_edges_once(monkeypatch):
    """The budget and the sample share one ranking per graph, and it cannot be altered."""
    g = make_graph([(f"v{i}", f"v{j}") for i in range(8) for j in range(i + 1, 8) if (i + j) % 3])
    h = build_hierarchy(g, 3)
    calls = []
    original = Graph.edge_arrays
    monkeypatch.setattr(Graph, "edge_arrays", lambda self: calls.append(1) or original(self))
    round_robin_sample(h, g, budget_from_edge_fraction(g, 0.5))
    assert len(calls) == 1
    u, w = _ranked_edge_arrays(g)
    again = _ranked_edge_arrays(g)
    assert again[0] is u and again[1] is w
    with pytest.raises(ValueError):
        u[0] = 0


@st.composite
def sampling_cases(draw):
    """A graph, a hierarchy over it and an overhead, for comparing the sampler with its oracle.

    Token counts are small or at least 2**62, so prices fit int64 or do not.
    The hierarchy is built and maybe merged, which can leave leaves sharing
    anchors, or it is a few clusters with random, overlapping members at
    random levels, any of them leaves, possibly none.
    """
    g = draw(priced_graphs(st.integers(0, 40) | st.integers(2**62, 2**64)))
    if draw(st.booleans()):
        h = build_hierarchy(g, draw(st.integers(2, 4)))
        mode = draw(st.sampled_from([None, *MergeMode]))
        if mode is not None:
            h, _ = merge_small_clusters(g, h, mode)
    else:
        # Ids past int64 make the communities an object array.
        ids = draw(st.lists(st.integers(0, 30) | st.integers(2**63 - 2, 2**63 + 1), min_size=1, max_size=6, unique=True))
        clusters = {
            cid: Cluster(cid, draw(st.sets(st.integers(0, g.n - 1))), draw(st.integers(0, 3)), "residual", None)
            for cid in ids
        }
        leaves = draw(st.sets(st.sampled_from(ids)))
        h = Hierarchy(clusters, [], {}, 3, g.n, leaf_ids=leaves)
    return g, h, draw(st.sampled_from([0, 8]) | st.integers(0, 2**64))


@settings(max_examples=300, deadline=None)
@given(case=sampling_cases(), data=st.data())
def test_round_robin_matches_the_oracle(case, data):
    """Field by field, for budgets that bind at a round start, mid-round, or never."""
    g, h, overhead = case
    unbounded = round_robin_oracle(h, g, 2**200, overhead)
    paid = [0, *accumulate(unbounded.costs)]
    budget = data.draw(
        st.integers(0, unbounded.total_tokens) | st.sampled_from(paid).flatmap(lambda s: st.integers(max(s - 1, 0), s + 1))
    )
    got, want = round_robin_sample(h, g, budget, overhead), round_robin_oracle(h, g, budget, overhead)
    assert got.sources.tolist() == want.sources
    assert got.targets.tolist() == want.targets
    assert got.communities.tolist() == want.communities
    assert got.costs.tolist() == want.costs
    assert got.total_tokens == want.total_tokens
    assert got.retired == want.retired
    assert got.unaffordable == want.unaffordable
    assert got.budget == budget
    assert got.sources.dtype == got.targets.dtype == np.int32
    fits = all(-(2**63) <= cid < 2**63 for cid in h.leaf_ids)
    assert got.communities.dtype == (np.int64 if fits else object)
    assert got.costs.dtype in (np.int64, object)
    for exact in (got.communities, got.costs):
        assert exact.dtype == np.int64 or all(type(x) is int for x in exact)


def test_hierarchy_without_leaves_samples_nothing():
    g = make_graph([("a", "b"), ("b", "c")], tokens={"a": 1, "b": 2, "c": 3})
    h = Hierarchy({0: Cluster(0, {0, 1, 2}, 0, "root", None)}, [0], {}, 0, 3, leaf_ids=set())
    result = round_robin_sample(h, g, 100)
    assert sample_fields(result) == sample_fields(round_robin_oracle(h, g, 100))
    assert len(result.sources) == 0 and result.retired == [] and result.total_tokens == 0


def test_leaves_before_a_priced_out_one_keep_their_order():
    """The budget binds mid-round at the third leaf; the two before it go on, in visit order."""
    triangles = [(f"{x}{i}", f"{x}{j}") for x in "abc" for i, j in ((0, 1), (0, 2), (1, 2))]
    g = make_graph(triangles, tokens={f"{x}{i}": 100 if x == "c" else 1 for x in "abc" for i in range(3)})
    clusters = {cid: Cluster(cid, {node_id(g, f"{x}{i}") for i in range(3)}, 1, "residual", None) for cid, x in enumerate("abc")}
    h = Hierarchy(clusters, [], {}, 1, 3, leaf_ids={0, 1, 2})
    result = round_robin_sample(h, g, 8, overhead=0)
    assert sample_fields(result) == sample_fields(round_robin_oracle(h, g, 8, overhead=0))
    assert result.communities.tolist() == [0, 1, 0, 1] and result.costs.tolist() == [2, 2, 2, 2]
    assert result.retired == [2, 0, 1] and result.unaffordable == [2, 0, 1]


def test_pick_columns_are_arrays_past_the_budget_bind():
    """The sequential loop's picks join the array columns: int32 nodes, int64 communities and costs.

    The budget binds, so the loop picks too, and the result is the oracle's.
    """
    edges, nodes = generate_kg_sparse(1500, seed=2)
    g = largest_connected_component(load_graph(edges, nodes))
    h = build_hierarchy(g, 40)
    budget = budget_from_edge_fraction(g, 0.3)
    result = round_robin_sample(h, g, budget)
    assert result.unaffordable
    columns = result.sources, result.targets, result.communities, result.costs
    assert [column.dtype for column in columns] == [np.int32, np.int32, np.int64, np.int64]
    assert sample_fields(result) == sample_fields(round_robin_oracle(h, g, budget))


def test_pick_columns_take_24_bytes_per_pick():
    """The result keeps 24 bytes per pick, against 32 as four lists of shared ints.

    The retained bytes are the four columns (4 + 4 + 8 + 8 per pick) and
    the ``retired`` lists, 8 bytes per entry each, plus a fixed slack for
    the objects themselves and the list over-allocation.
    """
    edges, nodes = generate_kg_sparse(3000, seed=4)
    g = largest_connected_component(load_graph(edges, nodes))
    h = build_hierarchy(g, 40)
    budget = budget_from_edge_fraction(g, 0.3)
    result, retained = traced_retained(round_robin_sample, h, g, budget)
    picks = len(result.sources)
    assert result.unaffordable and picks > 1000
    assert sum(c.nbytes for c in (result.sources, result.targets, result.communities, result.costs)) == 24 * picks
    lists = 8 * (len(result.retired) + len(result.unaffordable))
    assert retained <= 24 * picks + 1.25 * lists + 4096, f"{retained} B retained for {picks} picks"


def test_ownership_join_is_exact_past_int32_products():
    """Node id times leaf count passes 2**31, yet every edge finds the leaf that owns it.

    100,000 nodes in 50,000 two-node leaves, each joined by its own edge,
    and a path through the leaves whose edges no leaf owns. The ranking is
    int32, so the lookup keys w * L + p must be widened before the product.
    """
    leaves = 50_000
    names = [f"n{i:06d}" for i in range(2 * leaves)]
    g = make_graph(list(zip(names, names[1:])), names)
    assert (g.n - 1) * leaves >= 2**31
    clusters = {cid: Cluster(cid, {2 * cid, 2 * cid + 1}, 1, "two_hop", None) for cid in range(leaves)}
    h = Hierarchy(clusters, [], {}, 1, 2, leaf_ids=set(clusters))
    leaf_ids, owner, u, w = community_edge_ranking(g, h)
    got: dict[int, list[tuple[int, int]]] = {cid: [] for cid in leaf_ids}
    for p, a, b in zip(owner.tolist(), u.tolist(), w.tolist()):
        got[leaf_ids[p]].append((a, b))
    want = community_ranking_oracle(g, h)
    assert got == want
    assert sum(map(len, want.values())) == leaves


def planted_blocks(blocks: int, size: int, density: float, links: int, seed: int) -> tuple[Graph, Hierarchy]:
    """Dense seeded blocks joined by random links, and a hierarchy whose leaves are the blocks, on three levels."""
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(size, 1)
    src, dst = [], []
    for block in range(blocks):
        keep = rng.random(len(a)) < density
        src += (a[keep] + block * size).tolist()
        dst += (b[keep] + block * size).tolist()
    ends = rng.integers(0, blocks * size, size=(links, 2))
    src += ends[:, 0].tolist()
    dst += ends[:, 1].tolist()
    names = [f"n{i:05d}" for i in range(blocks * size)]
    g = make_graph(
        [(names[x], names[y]) for x, y in zip(src, dst)], names, {nm: 10 + i % 97 for i, nm in enumerate(names)}
    )
    clusters = {
        block: Cluster(block, set(range(block * size, (block + 1) * size)), 1 + block % 3, "residual", None)
        for block in range(blocks)
    }
    return g, Hierarchy(clusters, [], {}, 3, size, leaf_ids=set(clusters))


def test_sample_peak_is_a_small_multiple_of_its_picks():
    """Above its inputs, sampling peaks below 3.5 times the four pick columns it returns.

    The columns take 24 bytes per pick, so the bound is 84 bytes per pick;
    it was 112 while the picks were four lists of 8-byte slots.

    100 planted blocks of 80 nodes, ~147k edges, so the ownership join runs
    in several chunks; each block is a leaf. The budget is half the edges'
    cost, so it binds and the sequential loop runs too. The budget ranks
    the edges first, as in the pipeline, so the ranking is an input.
    """
    g, h = planted_blocks(100, 80, 0.45, 5000, seed=5)
    budget = budget_from_edge_fraction(g, 0.5)
    result, peak = traced_peak(round_robin_sample, h, g, budget)
    assert result.unaffordable and g.m > 2 * 65536
    columns = sum(c.nbytes for c in (result.sources, result.targets, result.communities, result.costs))
    assert columns == 24 * len(result.sources)
    assert peak <= 3.5 * columns, f"peak {peak} B is {peak / columns:.2f} x the {columns} B of pick columns"


def test_derived_cap_needs_a_positive_token_limit():
    with pytest.raises(ConfigError, match=r"^token limit must be positive$"):
        derive_max_cluster_size(0, make_graph([("a", "b")], tokens={"a": 5, "b": 5}))


def test_edge_fraction_budget_rejects_a_negative_overhead():
    with pytest.raises(ConfigError, match=r"^edge overhead must be >= 0$"):
        budget_from_edge_fraction(make_graph([("a", "b")]), 1.0, overhead=-1)


def test_sample_of_a_hierarchy_without_clusters_is_rejected():
    h = Hierarchy(clusters={}, roots=[], attached_singletons={}, max_level=0, max_cluster_size=2)
    with pytest.raises(InputError, match=r"^hierarchy has no clusters$"):
        round_robin_sample(h, make_graph([("a", "b")]), 10)
