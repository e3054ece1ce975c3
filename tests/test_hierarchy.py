"""Hierarchy construction: worked examples, splitting procedures, invariants."""

import numpy as np
import pytest

from corehier.cores import core_numbers
from corehier.errors import ConfigError, InputError
from corehier.fixtures import three_level_example
from corehier.fileio import hierarchy_to_json_obj, json_dumps_stable
from corehier.graph import largest_connected_component, load_graph
from corehier.hierarchy import build_hierarchy, split_component

from conftest import check_hierarchy_invariants, make_graph, split_two_hop


def names_of(g, members):
    return "".join(sorted(g.external_id(v) for v in members))


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
        assert h.attached_singletons == {g.id_of("e"): fgh.id}
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
        assert h.attached_singletons == {g.id_of("p"): leaf.id}

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
        loopy = load_graph([("a", "a"), ("a", "b")], [])
        with pytest.raises(InputError):
            build_hierarchy(loopy, 4)


class TestSplitComponent:
    def test_small_set_returned_unchanged(self):
        g = make_graph([("a", "b"), ("b", "c")])
        assert split_component(g, [0, 1, 2], 5) == [[0, 1, 2]]

    def test_path_split_trace(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        parts = split_component(g, range(5), 3)
        assert [[g.external_id(v) for v in p] for p in parts] == [["a", "b", "c"], ["d", "e"]]

    def test_star_split_leaves_singletons(self):
        g = make_graph([("x", c) for c in "abcde"])
        parts = split_component(g, range(6), 3)
        named = [sorted(g.external_id(v) for v in p) for p in parts]
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
        pool = [g.id_of(n) for n in ("ax", "ay", "az", "bu")]
        parts = split_two_hop(g, pool, 3)
        named = {frozenset(g.external_id(v) for v in p) for p in parts}
        assert named == {frozenset({"ax", "ay", "az", "w1"}), frozenset({"bu"})}

    def test_six_nodes_one_anchor_gives_two_clusters_with_anchor(self):
        edges = [(f"h{i}", "w") for i in range(6)] + [("w", "z")]
        g = make_graph(edges)
        pool = [g.id_of(f"h{i}") for i in range(6)]
        parts = split_two_hop(g, pool, 3)
        assert len(parts) == 2
        for p in parts:
            names = {g.external_id(v) for v in p}
            assert "w" in names and len(names) == 4

    def test_outputs_cover_pool_exactly_once(self):
        edges = [(f"p{i}", f"w{i % 3}") for i in range(9)] + [("w0", "w1"), ("w1", "w2")]
        g = make_graph(edges)
        pool = [g.id_of(f"p{i}") for i in range(9)]
        parts = split_two_hop(g, pool, 4)
        grown = sorted(v for p in parts for v in p if v in set(pool))
        assert grown == sorted(pool)


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
