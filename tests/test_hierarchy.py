"""Hierarchy construction: worked examples, splitting procedures, invariants."""

import heapq
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corehier.hierarchy
from corehier.cores import core_numbers
from corehier.errors import ConfigError, InputError
from corehier.fixtures import generate_kg_sparse, three_level_example
from corehier.fileio import hierarchy_from_json_obj, hierarchy_to_json_obj, json_dumps_stable
from corehier.graph import EdgeSpans, NodeMeta, graph_from_columns, largest_connected_component, load_graph
from corehier.hierarchy import (
    Cluster,
    Hierarchy,
    _attach_global_singletons,
    _common_ancestor,
    _two_hop_groups,
    _two_hop_split_parts,
    build_hierarchy,
    split_component,
)

from conftest import (
    check_hierarchy_invariants,
    make_graph,
    node_id,
    planted_block_records,
    split_component_oracle,
    split_two_hop,
    traced_peak,
    traced_retained,
    two_hop_groups_oracle,
    two_hop_split_parts_oracle,
)


def names_of(g, members):
    return "".join(sorted(g.external_ids[v] for v in members))


def build_three_level(max_size=16):
    edges, nodes = three_level_example()
    g = largest_connected_component(load_graph(edges, nodes))
    return g, build_hierarchy(g, max_size)


class TestWorkedExample:
    def test_full_structure(self):
        g, h = build_three_level()
        by_members = {names_of(g, c.members): c for c in h.clusters.values()}

        root = by_members["abcdefghijklmnop"]
        assert (root.level, root.kind, root.parent) == (1, "root", None)

        two_core = by_members["fghijklmnop"]
        assert (two_core.level, two_core.kind, two_core.parent) == (2, "core", root.id)

        ab = by_members["ab"]
        assert (ab.level, ab.kind, ab.parent) == (2, "residual", root.id)

        cd = by_members["cd"]
        assert (cd.level, cd.kind, cd.parent) == (2, "two_hop", root.id)

        three_core = by_members["mnop"]
        assert (three_core.level, three_core.kind, three_core.parent) == (3, "core", two_core.id)

        fgh = by_members["efgh"]  # e attached at the end
        assert (fgh.level, fgh.kind, fgh.parent) == (3, "residual", two_core.id)

        ij = by_members["ij"]
        kl = by_members["kl"]
        assert (ij.level, ij.kind, ij.parent) == (3, "residual", two_core.id)
        assert (kl.level, kl.kind, kl.parent) == (3, "residual", two_core.id)

        assert len(h.clusters) == 8
        assert h.attached_singletons == {node_id(g, "e"): fgh.id}
        assert h.roots == [root.id]
        assert h.max_level == 3

    def test_leaf_set(self):
        g, h = build_three_level()
        leaves = {names_of(g, c.members) for c in h.leaves()}
        assert leaves == {"ab", "cd", "efgh", "ij", "kl", "mnop"}

    def test_invariants(self):
        g, h = build_three_level()
        check_hierarchy_invariants(g, h, 16)


class TestTrivialShapes:
    def test_path_collapses_to_single_root_leaf(self):
        g = largest_connected_component(make_graph([("a", "b"), ("b", "c"), ("c", "d")]))
        h = build_hierarchy(g, 10)
        assert len(h.clusters) == 1
        (root,) = h.clusters.values()
        assert root.kind == "root" and root.level == 1 and h.is_leaf(root.id)
        assert names_of(g, root.members) == "abcd"

    def test_k4_plus_pendant_trace(self):
        edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d"), ("a", "p")]
        g = largest_connected_component(make_graph(edges))
        h = build_hierarchy(g, 10)
        assert len(h.clusters) == 2
        root = h.clusters[h.roots[0]]
        assert names_of(g, root.members) == "abcdp"
        (leaf_id,) = root.children
        leaf = h.clusters[leaf_id]
        # the duplicate at level 3 collapsed into one cluster at its deepest level
        assert leaf.level == 3 and leaf.kind == "core"
        assert names_of(g, leaf.members) == "abcdp"  # pendant attached afterwards
        assert h.attached_singletons == {node_id(g, "p"): leaf.id}

    def test_single_node_graph(self):
        g = largest_connected_component(load_graph([("a", "a")], []))
        h = build_hierarchy(g, 5)
        assert len(h.clusters) == 1
        assert names_of(g, h.clusters[0].members) == "a"

    def test_preconditions(self):
        g = largest_connected_component(make_graph([("a", "b")]))
        with pytest.raises(ConfigError):
            build_hierarchy(g, 1)
        disconnected = make_graph([("a", "b"), ("c", "d")])
        with pytest.raises(InputError):
            build_hierarchy(disconnected, 4)


def test_graphs_without_a_connectivity_record_are_still_checked():
    """A disconnected graph built from columns carries no record; the builder labels it and rejects it."""
    g = graph_from_columns(EdgeSpans.encode(["a", "b", "c", "d"]), ["a", "b", "c", "d", "e"], [1] * 5)
    assert g._connected is None
    with pytest.raises(InputError, match="must be connected"):
        build_hierarchy(g, 4)
    assert g._connected is False
    assert largest_connected_component(g).n == 2
    with pytest.raises(InputError, match="must be connected"):
        build_hierarchy(g, 4)


class TestSplitComponent:
    def test_small_set_returned_unchanged(self):
        g = make_graph([("a", "b"), ("b", "c")])
        assert split_component(g, [0, 1, 2], 5) == [[0, 1, 2]]

    def test_path_split_trace(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        parts = split_component(g, range(5), 3)
        assert [[g.external_ids[v] for v in p] for p in parts] == [["a", "b", "c"], ["d", "e"]]

    def test_star_split_leaves_singletons(self):
        g = make_graph([("x", c) for c in "abcde"])
        parts = split_component(g, range(6), 3)
        named = [sorted(g.external_ids[v] for v in p) for p in parts]
        assert named == [["a", "b", "x"], ["c"], ["d"], ["e"]]

    def test_outputs_partition_input_and_respect_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            names = [f"v{i:02d}" for i in range(n)]
            edges = set()
            perm = rng.permutation(n)
            for i in range(1, n):
                a, b = int(perm[i]), int(perm[int(rng.integers(0, i))])
                edges.add((names[min(a, b)], names[max(a, b)]))
            for _ in range(int(rng.integers(0, n))):
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                if a != b:
                    edges.add((names[min(a, b)], names[max(a, b)]))
            g = make_graph(sorted(edges), names)
            cap = int(rng.integers(2, 12))
            parts = split_component(g, range(n), cap)
            flat = sorted(v for p in parts for v in p)
            assert flat == list(range(n))
            assert all(len(p) <= cap for p in parts)


class TestSplitTwoHop:
    def test_anchor_shared_by_two_members_is_included(self):
        # x, y, z hang off w1; u hangs off w2; w2 stays out (one link only)
        edges = [("ax", "w1"), ("ay", "w1"), ("az", "w1"), ("bu", "w2"), ("w1", "hub"), ("w2", "hub")]
        g = make_graph(edges)
        pool = [node_id(g, n) for n in ("ax", "ay", "az", "bu")]
        parts = split_two_hop(g, pool, 3)
        named = {frozenset(g.external_ids[v] for v in p) for p in parts}
        assert named == {frozenset({"ax", "ay", "az", "w1"}), frozenset({"bu"})}

    def test_six_nodes_one_anchor_gives_two_clusters_with_anchor(self):
        edges = [(f"h{i}", "w") for i in range(6)] + [("w", "z")]
        g = make_graph(edges)
        pool = [node_id(g, f"h{i}") for i in range(6)]
        parts = split_two_hop(g, pool, 3)
        assert len(parts) == 2
        for p in parts:
            names = {g.external_ids[v] for v in p}
            assert "w" in names and len(names) == 4

    def test_outputs_cover_pool_exactly_once(self):
        edges = [(f"p{i}", f"w{i % 3}") for i in range(9)] + [("w0", "w1"), ("w1", "w2")]
        g = make_graph(edges)
        pool = [node_id(g, f"p{i}") for i in range(9)]
        parts = split_two_hop(g, pool, 4)
        grown = sorted(v for p in parts for v in p if v in set(pool))
        assert grown == sorted(pool)


@st.composite
def connected_graphs(draw):
    """A random tree on 2-30 nodes plus random chords; hubs come from trees that reuse a parent."""
    n = draw(st.integers(2, 30))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    edges |= {(min(a, b), max(a, b)) for a, b in chords if a != b}
    names = [f"v{i:02d}" for i in range(n)]
    return make_graph([(names[a], names[b]) for a, b in sorted(edges)], names)


@st.composite
def graphs_with_isolated_edges(draw):
    """A connected graph plus 1-4 isolated edges and up to 2 isolated nodes, under names that interleave with it.

    Only a disconnected graph has an isolated edge: two degree-1 nodes that
    hold each other, which ``split_component`` cannot emit as stranded.
    """
    g = draw(connected_graphs())
    edges = [(g.external_ids[u], g.external_ids[w]) for u, w in g.edges()]
    pairs = draw(st.integers(1, 4))
    edges += [(f"v{2 * i:02d}e", f"v{2 * i + 1:02d}e") for i in range(pairs)]
    names = sorted({x for e in edges for x in e} | {f"v{i:02d}i" for i in range(draw(st.integers(0, 2)))})
    return make_graph(edges, names)


@st.composite
def hub_pools(draw):
    """1-3 hubs in a path with 5-40 pendants each, some pendants holding a second anchor; the pendants as pool.

    A second anchor is another hub, or one of two outside nodes x and y
    that hang off the first hub.
    """
    hubs = draw(st.integers(1, 3))
    edges = {(f"h{i}", f"h{i + 1}") for i in range(hubs - 1)} | {("h0", "x"), ("h0", "y")}
    pendants = []
    for i in range(hubs):
        for j in range(draw(st.integers(5, 40))):
            pendants.append(f"p{i}{j:02d}")
            edges.add((f"h{i}", pendants[-1]))
    second = st.sampled_from([f"h{i}" for i in range(hubs)] + ["x", "y"])
    edges.update(draw(st.lists(st.tuples(second, st.sampled_from(pendants)), max_size=12)))
    g = make_graph(sorted(edges))
    return g, {node_id(g, name) for name in pendants}


@st.composite
def pooled_graphs(draw):
    """A graph of 1-20 nodes (``v00``... in id order) with random edges, and a drawn set of its nodes."""
    n = draw(st.integers(1, 20))
    names = [f"v{i:02d}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=2 * n))
    g = make_graph(pairs, names)
    return g, draw(st.sets(st.integers(0, n - 1), min_size=1))


@settings(max_examples=300, deadline=None)
@given(case=pooled_graphs() | hub_pools())
def test_two_hop_groups_match_bfs(case):
    """Groups under "adjacent or share a neighbour", each ascending, ordered by their smallest member."""
    g, pool = case
    nodes = np.array(sorted(pool), dtype=np.intp)
    assert _two_hop_groups(g, nodes) == two_hop_groups_oracle(g, pool)


def test_two_hop_groups_join_a_hubs_pendants_and_adjacent_nodes():
    """The hub h is not pooled but joins its pendants; a and b join as neighbours; e shares no neighbour."""
    g = make_graph([("h", "p0"), ("h", "p1"), ("h", "p2"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    nodes = np.array([node_id(g, name) for name in ("a", "b", "e", "p0", "p1", "p2")], dtype=np.intp)
    groups = [[g.external_ids[v] for v in group] for group in _two_hop_groups(g, nodes)]
    assert groups == [["a", "b"], ["e"], ["p0", "p1", "p2"]]


def hub_graph():
    """Hubs a, b, c with six pendants each; ab0 and ab1 hang off a and b, bc off b and c."""
    edges = [(hub, f"{hub}{i}") for hub in "abc" for i in range(6)]
    edges += [("a", "ab0"), ("b", "ab0"), ("a", "ab1"), ("b", "ab1"), ("b", "bc"), ("c", "bc")]
    return make_graph(edges)


class TestSharedGrower:
    """Both growers run one greedy loop; the oracles are the two loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=(connected_graphs() | graphs_with_isolated_edges()).map(lambda g: (g, set(range(g.n)))) | hub_pools(),
        data=st.data(),
    )
    def test_growers_match_the_oracles(self, case, data):
        g, natural = case
        cap = data.draw(st.integers(2, 8), label="cap")
        every = set(range(g.n))
        pool = data.draw(
            st.just(natural) | st.just(every) | st.sets(st.sampled_from(sorted(every)), min_size=1), label="pool"
        )
        assert split_component(g, pool, cap) == split_component_oracle(g, pool, cap)
        assert _two_hop_split_parts(g, pool, cap) == two_hop_split_parts_oracle(g, pool, cap)

    def test_hub_pool_split_is_pinned(self):
        g = hub_graph()
        pool = [v for v in range(g.n) if g.external_ids[v] not in ("a", "b", "c")]
        parts = _two_hop_split_parts(g, pool, 4)
        assert parts == two_hop_split_parts_oracle(g, pool, 4)
        named = [([g.external_ids[v] for v in grown], [g.external_ids[v] for v in anchors]) for grown, anchors in parts]
        assert named == [
            (["a0", "a1", "ab0", "ab1"], ["a", "b"]),
            (["b0", "b1", "b2", "bc"], ["b"]),
            (["a2", "a3", "a4", "a5"], ["a"]),
            (["b3", "b4", "b5"], ["b"]),
            (["c0", "c1", "c2", "c3"], ["c"]),
            (["c4", "c5"], ["c"]),
        ]

    @pytest.mark.parametrize("cap", [3, 4, 5])
    def test_hub_hierarchy_matches_the_oracles(self, cap, monkeypatch):
        g = hub_graph()
        calls = []

        def counted(*args):
            calls.append(args)
            return two_hop_split_parts_oracle(*args)

        h = build_hierarchy(g, cap)
        monkeypatch.setattr(corehier.hierarchy, "split_component", split_component_oracle)
        monkeypatch.setattr(corehier.hierarchy, "_two_hop_split_parts", counted)
        assert build_hierarchy(g, cap) == h
        assert calls, "the hub graph no longer splits an oversized two-hop group"
        check_hierarchy_invariants(g, h, cap)


def test_hub_splits_push_a_linear_number_of_keys(monkeypatch):
    """A 4-clique whose hub carries 3,000 pendants, cap 8: at most 2 (p + d) heap pushes.

    Counted, not timed; p counts the nodes split and d their adjacency
    entries. ``split_component`` pushes at most one key per adjacency entry
    of an absorbed node, and ``_two_hop_split_parts`` one per anchor entry
    of an absorbed node, so c = 2 leaves room for the seeds. Counting every
    pool member once per shared anchor of each absorbed node would push
    ~p^2 / 2 keys.
    """
    edges = [*combinations("hxyz", 2)] + [("h", f"p{i:04d}") for i in range(3000)]
    g = make_graph(edges)
    pushes = []

    def counted(heap, key):
        pushes.append(key)
        heapq.heappush(heap, key)

    monkeypatch.setattr(corehier.hierarchy, "heapq", SimpleNamespace(heappush=counted, heappop=heapq.heappop))
    pendants = [v for v in range(g.n) if g.degrees[v] == 1]
    parts = _two_hop_split_parts(g, pendants, 8)
    assert len(parts) == 375
    assert len(pushes) <= 2 * (len(pendants) + sum(g.degrees[v] for v in pendants))
    pushes.clear()
    split_component(g, range(g.n), 8)
    assert len(pushes) <= 2 * (g.n + 2 * g.m)
    pushes.clear()
    check_hierarchy_invariants(g, build_hierarchy(g, 8), 8)
    assert len(pushes) <= 2 * (g.n + 2 * g.m)


@st.composite
def planted_block_graphs(draw):
    """The largest component of 2-5 seeded dense blocks of 4-14 nodes (max core up to ~12), and a cap in [2, n]."""
    lo = draw(st.floats(0.1, 0.6))
    records = planted_block_records(
        seed=draw(st.integers(0, 2**32 - 1)),
        blocks=draw(st.integers(2, 5)),
        size=draw(st.integers(4, 14)),
        links=draw(st.integers(0, 15)),
        density=(lo, draw(st.floats(lo, 0.95))),
    )
    g = largest_connected_component(load_graph(*records))
    return g, draw(st.integers(2, max(2, g.n)))


@settings(max_examples=80, deadline=None)
@given(planted_block_graphs())
@example(case=(largest_connected_component(load_graph([("a", "a")], [NodeMeta("a", token_count=3)])), 2))
def test_core_and_residual_clusters_are_components_on_planted_blocks(case):
    """Multi-level graphs, every cap: each core and residual cluster is a whole component of its side."""
    g, cap = case
    check_hierarchy_invariants(g, build_hierarchy(g, cap), cap)


#: Planted blocks with a deep core: 8 blocks of 90 nodes at density 0.2-0.9 (720 nodes, 18,458 edges, max core 73).
DEEP_CORE_BLOCKS = dict(seed=11, blocks=8, size=90, links=800, density=(0.2, 0.9))


@pytest.mark.parametrize("blocks,levels", [({}, 19), (DEEP_CORE_BLOCKS, 73)], ids=["golden-blocks", "deep-core"])
def test_level_loop_hands_each_edge_to_the_labeller_once(blocks, levels, monkeypatch):
    """At cap 123, the builder hands at most 2m edge entries to the labeller, the pooling's included.

    Counted, not timed. One labelling of the same-core edges inside the
    level-1 parts gives every residual side, and the top-down sweep adds
    each other inside edge once, so c = 2; the pooling hands over the rows
    of the pooled nodes only. Observed: 1.49m on the golden planted blocks
    (9,520 edges, 19 levels) and 1.56m on the deep-core blocks, of which
    the pooling took 0.09m and 0.03m. Labelling the edges still inside
    queued clusters again at every level, and the whole graph once more to
    check connectivity, read 5.88m and 3.04m without the pooling.
    """
    entries = []
    labeller = corehier.hierarchy._component_labels

    def counted(n, u, w, *rest):
        entries.append(len(u))
        return labeller(n, u, w, *rest)

    monkeypatch.setattr(corehier.hierarchy, "_component_labels", counted)
    g = largest_connected_component(load_graph(*planted_block_records(**blocks)))
    h = build_hierarchy(g, 123)
    assert h.max_level == levels
    assert sum(entries) <= 2 * g.m


def test_stranded_pendants_skip_the_grower(monkeypatch):
    """The hub graph above, cap 8: only the two seeds of degree 2 or more grow clusters.

    The hub's cluster takes 7 pendants and the other three clique nodes
    make one more; the other 2,993 pendants are stranded and come back as
    one-member parts without passing through ``_grow``.
    """
    edges = [*combinations("hxyz", 2)] + [("h", f"p{i:04d}") for i in range(3000)]
    g = make_graph(edges)
    grow = corehier.hierarchy._grow
    yielded = []

    def counted(*args):
        for cluster in grow(*args):
            yielded.append(cluster)
            yield cluster

    monkeypatch.setattr(corehier.hierarchy, "_grow", counted)
    parts = split_component(g, range(g.n), 8)
    assert len(yielded) == 2
    assert parts == split_component_oracle(g, range(g.n), 8)
    assert sum(len(part) == 1 for part in parts) == 2993


def test_growers_return_the_graphs_own_ints_and_keep_a_small_peak():
    """Every node either grower returns is ``g._ids``' own int, and the split peaks at under 100 bytes per node.

    A seeded 6,000-node sparse fixture at cap 40; the callers pass fresh
    ints. The peak is ``split_component``'s tracemalloc peak over the whole
    graph, its result included: 152 bytes per node when the state was a set,
    a dict per cluster and a sorted list of (degree, id) tuples; ~70 with
    the flat state.
    """
    edges, nodes = generate_kg_sparse(6000, seed=3)
    g = largest_connected_component(load_graph(edges, nodes))
    assert g._rows  # built beforehand, so the peak below leaves it out
    parts = split_component(g, range(g.n), 40)
    assert sorted(v for part in parts for v in part) == list(range(g.n))
    pool = set(np.flatnonzero(np.array(g.degrees) == 1).tolist())
    split = _two_hop_split_parts(g, pool, 40)
    assert sum(len(grown) for grown, _ in split) == len(pool)
    returned = [v for part in parts for v in part] + [v for grown, anchors in split for v in grown + anchors]
    assert all(v is g._ids[v] for v in returned)
    parts, peak = traced_peak(split_component, g, g._ids, 40)
    assert peak <= 100 * g.n, f"split_component peaks at {peak / g.n:.1f} B per node"


def test_common_ancestor_is_the_deepest_shared_cluster():
    # Roots 0 and 6; 0 has children 1 and 2, 1 has 3 and 4, 3 has 5. Ids
    # grow with creation, as in a build.
    parents = {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 3, 6: None}
    clusters = {cid: Cluster(cid, {cid}, 1, "core", parent) for cid, parent in parents.items()}
    cases = {
        (5,): 5, (5, 5): 5, (None,): None, (None, None): None, (5, 4): 1, (4, 3, 5): 1,
        (5, 1): 1, (5, 2): 0, (2, 5, 4): 0, (5, 6): None, (5, None): None,
    }
    for ids, want in cases.items():
        assert _common_ancestor(list(ids), clusters) == want, ids


class TestDirectAddPath:
    def test_two_hop_group_within_cap_excludes_anchor(self):
        # triangle w-q-r keeps w in the 2-core; x, y, z become level-2
        # singletons sharing w, and the group fits the cap: no anchor added.
        edges = [("w", "q"), ("w", "r"), ("q", "r"), ("x", "w"), ("y", "w"), ("z", "w")]
        g = largest_connected_component(make_graph(edges))
        h = build_hierarchy(g, 6)
        two_hops = [c for c in h.clusters.values() if c.kind == "two_hop"]
        assert len(two_hops) == 1
        assert names_of(g, two_hops[0].members) == "xyz"
        assert not two_hops[0].anchors


class TestDeterminism:
    def test_two_builds_are_byte_identical(self):
        edges, nodes = three_level_example()
        blobs = []
        for _ in range(2):
            g = largest_connected_component(load_graph(edges, nodes))
            h = build_hierarchy(g, 6)
            blobs.append(json_dumps_stable(hierarchy_to_json_obj(h, g)))
        assert blobs[0] == blobs[1]

    def test_given_core_numbers_give_the_same_hierarchy(self, sparse_fixture_batch):
        edges, nodes = three_level_example()
        graphs = [largest_connected_component(load_graph(edges, nodes)), *sparse_fixture_batch[:3]]
        for g, cap in zip(graphs, (6, 9, 16, 40)):
            assert build_hierarchy(g, cap, core_numbers(g).core) == build_hierarchy(g, cap)

    def test_core_numbers_of_the_wrong_length_rejected(self):
        edges, nodes = three_level_example()
        g = largest_connected_component(load_graph(edges, nodes))
        with pytest.raises(InputError, match="core numbers"):
            build_hierarchy(g, 6, core_numbers(g).core[:-1])


class TestTightCaps:
    def test_small_cap_still_covers_and_nests(self):
        edges, nodes = three_level_example()
        g = largest_connected_component(load_graph(edges, nodes))
        for cap in (2, 3, 4, 6):
            h = build_hierarchy(g, cap)
            check_hierarchy_invariants(g, h, cap)


def test_singleton_already_anchored_in_its_host_is_listed_once():
    """A parked singleton that its target leaf already holds as a shared anchor is recorded, not repeated.

    v's neighbours a and b lie in leaf 1, which holds v as an anchor; d's
    neighbours c and e lie in leaf 2, where d goes between them.
    """
    g = make_graph([("a", "b"), ("a", "v"), ("b", "c"), ("b", "v"), ("c", "d"), ("c", "e"), ("d", "e")])
    a, b, c, d, e, v = (node_id(g, x) for x in "abcdev")
    h = Hierarchy(
        clusters={
            0: Cluster(0, {a, b, c, d, e, v}, 1, "root", None, [1, 2]),
            1: Cluster(1, {a, b, v}, 2, "two_hop", 0, anchors=frozenset({v})),
            2: Cluster(2, {c, e}, 2, "residual", 0),
        },
        roots=[0],
        attached_singletons={},
        max_level=2,
        max_cluster_size=3,
        leaf_ids={1, 2},
    )
    _attach_global_singletons(g, h, {v, d})
    assert h.attached_singletons == {v: 1, d: 2}
    assert h.clusters[1].members == [a, b, v]
    assert h.clusters[2].members == [c, d, e]


def test_member_lists_cost_a_few_dozen_bytes_per_entry():
    """A built or read-back hierarchy keeps a few dozen bytes per member entry, not a set entry's 60-120.

    A seeded 6,000-node sparse fixture at cap 40. The bytes counted are
    those the result keeps alive: clusters, member lists, anchors, children
    and the registries; the graph's lazy row view, and with it ``_ids``,
    is built beforehand. The read-back's members are ``_ids``' own ints.
    """
    edges, nodes = generate_kg_sparse(6000, seed=3)
    g = largest_connected_component(load_graph(edges, nodes))
    assert g._rows
    h, kept = traced_retained(build_hierarchy, g, 40)
    entries = sum(len(c.members) for c in h.clusters.values())
    assert entries > g.n
    assert kept <= 80 * entries, f"build keeps {kept} B, {kept / entries:.1f} B per member entry"
    obj = hierarchy_to_json_obj(h, g)
    back, kept = traced_retained(hierarchy_from_json_obj, obj, g)
    assert back == h
    assert all(v is g._ids[v] for c in back.clusters.values() for v in (*c.members, *c.anchors))
    assert all(v is g._ids[v] for v in back.attached_singletons)
    assert kept <= 100 * entries, f"read-back keeps {kept} B, {kept / entries:.1f} B per member entry"
