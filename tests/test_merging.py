"""Small-cluster merging: traces from the contract plus structural invariants.

A merge changes the hierarchy it is given, so a test that compares a
hierarchy before and after merging, or merges one build twice, merges a
``deepcopy`` each time.
"""

from copy import deepcopy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corehier.hierarchy

from corehier.errors import ConfigError
from corehier.fixtures import generate_kg_sparse
from corehier.graph import largest_connected_component, load_graph
from corehier.hierarchy import Cluster, Hierarchy, _attach_global_singletons, build_hierarchy
from corehier.merging import MergeMode, merge_small_clusters

from conftest import (
    adjacency,
    attach_global_singletons_oracle,
    leaf_node_multiset,
    make_graph,
    merge_small_clusters_oracle,
    node_id,
    traced_peak,
)


def names_of(g, members):
    return "".join(sorted(g.external_ids[v] for v in members))


def build(edges, cap):
    g = largest_connected_component(make_graph(edges))
    return g, build_hierarchy(g, cap)


def test_mode_parsing():
    assert MergeMode.parse("m2hc") is MergeMode.TWO_HOP_ONLY
    assert MergeMode.parse("MRC") is MergeMode.RESIDUAL_AND_TWO_HOP
    assert MergeMode.parse("residual_and_two_hop") is MergeMode.RESIDUAL_AND_TWO_HOP
    with pytest.raises(ConfigError):
        MergeMode.parse("leiden")


def test_no_eligible_clusters_is_a_no_op():
    g, h = build([("a", "b"), ("b", "c"), ("c", "a")], 10)
    merged, report = merge_small_clusters(g, deepcopy(h), MergeMode.TWO_HOP_ONLY)
    assert report.merged == [] and report.promoted == []
    assert len(merged.clusters) == len(h.clusters)


def test_two_hop_pair_merges_into_adjacent_cluster():
    # Triangle w-q-r is the 2-core; x and y are level-2 singletons sharing w,
    # forming a size-2 two-hop cluster whose only covered neighbor is w.
    g, h = build([("w", "q"), ("w", "r"), ("q", "r"), ("x", "w"), ("y", "w")], 8)
    small = next(c for c in h.clusters.values() if c.kind == "two_hop")
    assert names_of(g, small.members) == "xy"
    host_before = next(c for c in h.clusters.values() if c.kind == "core")
    merged, report = merge_small_clusters(g, h, MergeMode.TWO_HOP_ONLY)
    assert report.merged == [(small.id, host_before.id)]
    assert names_of(g, merged.clusters[host_before.id].members) == "qrwxy"
    assert small.id not in merged.clusters


def test_merge_changes_and_returns_the_hierarchy_it_is_given():
    g, h = build([("w", "q"), ("w", "r"), ("q", "r"), ("x", "w"), ("y", "w")], 8)
    small = next(c for c in h.clusters.values() if c.kind == "two_hop")
    clusters = h.clusters
    merged, report = merge_small_clusters(g, h, MergeMode.TWO_HOP_ONLY)
    assert merged is h and merged.clusters is clusters
    assert report.merged and small.id not in h.clusters and small.id not in h.leaf_ids


def test_residual_pair_only_eligible_under_extended_mode():
    edges = [
        ("a", "b"), ("b", "c"), ("c", "a"),  # triangle, 2-core
        ("a", "x"), ("x", "y"),              # pendant path: residual pair {x, y}
    ]
    g, h = build(edges, 8)
    residual = next(c for c in h.clusters.values() if c.kind == "residual")
    assert names_of(g, residual.members) == "xy"

    merged_2h, report_2h = merge_small_clusters(g, deepcopy(h), MergeMode.TWO_HOP_ONLY)
    assert report_2h.merged == [] and report_2h.promoted == []
    assert len(merged_2h.clusters) == len(h.clusters)

    merged_ext, report_ext = merge_small_clusters(g, deepcopy(h), MergeMode.RESIDUAL_AND_TWO_HOP)
    core = next(c for c in h.clusters.values() if c.kind == "core")
    assert report_ext.merged == [(residual.id, core.id)]
    assert names_of(g, merged_ext.clusters[core.id].members) == "abcxy"


def _hand_hierarchy(g, member_names, kinds):
    """Flat hierarchy of leaf clusters, for exercising merge branches directly."""
    from corehier.hierarchy import Cluster, Hierarchy

    clusters = {}
    for cid, (names, kind) in enumerate(zip(member_names, kinds)):
        clusters[cid] = Cluster(
            id=cid,
            members={node_id(g, nm) for nm in names},
            level=1,
            kind=kind,
            parent=None,
        )
    return Hierarchy(
        clusters=clusters,
        roots=[cid for cid, c in clusters.items() if c.kind == "root"],
        attached_singletons={},
        max_level=1,
        max_cluster_size=10,
        leaf_ids=set(clusters),
    )


def test_pair_with_no_covered_neighbors_is_promoted():
    g = make_graph([("x", "y"), ("a", "b"), ("b", "c"), ("c", "a")])
    h = _hand_hierarchy(g, [("a", "b", "c"), ("x", "y")], ["root", "two_hop"])
    merged, report = merge_small_clusters(g, h, MergeMode.TWO_HOP_ONLY)
    assert report.promoted == [1] and report.merged == []
    assert 1 in merged.clusters
    assert merged.clusters[1].kind == "two_hop"


def test_promoted_cluster_becomes_a_merge_target():
    # Two mutually adjacent pairs with no other neighbors: the first pair is
    # promoted at count zero, which gives the second a covered neighbor, so
    # it merges into the first.
    g = make_graph([("x", "y"), ("u", "v"), ("x", "u"), ("a", "b"), ("b", "c"), ("c", "a")])
    h = _hand_hierarchy(g, [("a", "b", "c"), ("x", "y"), ("u", "v")], ["root", "two_hop", "two_hop"])
    merged, report = merge_small_clusters(g, h, MergeMode.TWO_HOP_ONLY)
    assert report.promoted == [1]
    assert report.merged == [(2, 1)]
    assert names_of(g, merged.clusters[1].members) == "uvxy"


class TestFixtureInvariants:
    def test_merge_invariants_on_sparse_fixtures(self, sparse_fixture_batch):
        for g in sparse_fixture_batch[:4]:
            h = build_hierarchy(g, 60)
            merged_2h, rep_2h = merge_small_clusters(g, deepcopy(h), MergeMode.TWO_HOP_ONLY)
            merged_ext, rep_ext = merge_small_clusters(g, deepcopy(h), MergeMode.RESIDUAL_AND_TWO_HOP)

            # count monotonicity
            assert len(merged_ext.clusters) <= len(merged_2h.clusters) <= len(h.clusters)

            # node conservation, exact accounting of anchor overlap
            before = leaf_node_multiset(h)
            for merged, report in ((merged_2h, rep_2h), (merged_ext, rep_ext)):
                after = leaf_node_multiset(merged)
                assert set(before) == set(after)
                assert sum(before.values()) - sum(after.values()) == report.deduplicated

            # post-merge: no surviving eligible size-2 cluster has a neighbor
            # inside another kept leaf
            adj = adjacency(g)
            for merged, kinds in (
                (merged_2h, ("two_hop",)),
                (merged_ext, ("two_hop", "residual")),
            ):
                covered = {}
                for leaf in merged.leaves():
                    for v in leaf.members:
                        covered.setdefault(v, set()).add(leaf.id)
                for leaf in merged.leaves():
                    if leaf.kind in kinds and len(leaf.members) == 2:
                        for v in leaf.members:
                            for w in adj[v]:
                                if w in leaf.members:
                                    continue
                                assert not (covered.get(w, set()) - {leaf.id}), (
                                    f"mergeable size-2 cluster {leaf.id} survived"
                                )

            # hosts kept their identity: every merged pair's host still exists
            for small_id, host_id in rep_2h.merged + rep_ext.merged:
                assert small_id not in merged_2h.clusters or small_id not in merged_ext.clusters
                assert host_id in merged_2h.clusters or host_id in merged_ext.clusters


#: At cap 3, one-neighbour attachment must look past w's first host here.
#: v01 anchors the level-2 two-hop leaf of v06 and v07 (id 4), then is
#: pooled alone at level 3 and attaches to the leaf of v02, v03 and v04
#: (id 1), a tie it wins by id. zz hangs off v01 alone and is stranded at
#: level 1; v01's hosts, 4 then 1, tie for it, so it goes to leaf 1, where
#: ``first[v01]`` would send it to leaf 4.
ANCHOR_THEN_ATTACHED = [
    ("v00", "v01"), ("v00", "v11"), ("v01", "v02"), ("v01", "v04"), ("v01", "v06"), ("v01", "v07"),
    ("v01", "v11"), ("v01", "zz"), ("v02", "v03"), ("v02", "v04"), ("v02", "v07"), ("v03", "v04"),
    ("v03", "v06"), ("v03", "v07"), ("v06", "v16"), ("v07", "v20"),
]


@st.composite
def anchored_graphs(draw):
    """Hubs on a path, pendants on one or two hubs, random chords, and tails; or the graph above, varied.

    The pendants pool at level 2 around shared hubs, so with a small cap
    their two-hop groups split and the hubs join several leaves as shared
    anchors. Each tail hangs off one earlier node, a tail included, so
    some parked singletons have one neighbour held by several leaves, and
    some sit next to other parked singletons and attach in a later pass.
    Random hubs almost never make a parked singleton that is already a
    shared anchor of a leaf of larger id, so one draw in four is
    ``ANCHOR_THEN_ATTACHED`` with up to two tails and a chord added; about
    a third of those variants keep the case.
    """
    if draw(st.integers(0, 3)) == 0:
        names = sorted({x for edge in ANCHOR_THEN_ATTACHED for x in edge})
        node = st.sampled_from(names)
        edges = set(ANCHOR_THEN_ATTACHED)
        edges |= {(draw(node), f"zz{i}") for i in range(draw(st.integers(0, 2)))}
        edges |= {tuple(sorted(pair)) for pair in draw(st.lists(st.tuples(node, node), max_size=1)) if pair[0] != pair[1]}
        return make_graph(sorted(edges))
    hubs = draw(st.integers(2, 4))
    n = hubs + draw(st.integers(3, 24))
    edges = {(i, i + 1) for i in range(hubs - 1)}
    for pendant in range(hubs, n):
        edges |= {(hub, pendant) for hub in draw(st.sets(st.integers(0, hubs - 1), min_size=1, max_size=2))}
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2))
    edges |= {(min(a, b), max(a, b)) for a, b in chords if a != b}
    tails = draw(st.integers(0, 6))
    edges |= {(draw(st.integers(0, tail - 1)), tail) for tail in range(n, n + tails)}
    n += tails
    names = [f"v{i:02d}" for i in range(n)]
    return make_graph([(names[a], names[b]) for a, b in sorted(edges)], names)


@settings(max_examples=300, deadline=None)
@given(g=anchored_graphs(), cap=st.integers(2, 5))
@example(g=make_graph(ANCHOR_THEN_ATTACHED), cap=3)
def test_host_map_matches_the_dict_of_host_lists(g, cap):
    """Attachment and both merge modes pick the hosts that the dict of host lists per node picks."""
    h = build_hierarchy(g, cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corehier.hierarchy, "_attach_global_singletons", attach_global_singletons_oracle)
        assert build_hierarchy(g, cap) == h
    for mode in MergeMode:
        assert merge_small_clusters(g, deepcopy(h), mode) == merge_small_clusters_oracle(g, deepcopy(h), mode)


def test_attachment_through_one_neighbour_matches_the_oracle():
    """Singletons with one neighbour, of one host or of two, and chains of singletons, against the oracle.

    Leaves 1 and 2 both hold w as a shared anchor, and leaf 2 holds v as
    one. e's one neighbour c lies in leaf 2 alone, so e goes there; x's one
    neighbour w lies in both leaves, a tie that goes to leaf 1. v ties too
    and joins leaf 1, so y, whose one neighbour is v, ties between leaf 2,
    v's first host, and leaf 1, and goes to leaf 1. t reaches the leaves
    only through x, and s only through t, which both come earlier in id
    order: t waits one pass, s two.
    """
    g = make_graph([("a", "b"), ("a", "v"), ("a", "w"), ("b", "v"), ("b", "w"), ("c", "d"), ("c", "e"),
                    ("c", "v"), ("c", "w"), ("d", "v"), ("d", "w"), ("s", "t"), ("t", "x"), ("v", "y"),
                    ("w", "x")])
    a, b, c, d, e, s, t, v, w, x, y = (node_id(g, name) for name in "abcdestvwxy")
    h = Hierarchy(
        clusters={
            0: Cluster(0, range(g.n), 1, "root", None, [1, 2]),
            1: Cluster(1, {a, b, w}, 2, "two_hop", 0, anchors=frozenset({w})),
            2: Cluster(2, {c, d, v, w}, 2, "two_hop", 0, anchors=frozenset({v, w})),
        },
        roots=[0],
        attached_singletons={},
        max_level=2,
        max_cluster_size=3,
        leaf_ids={1, 2},
    )
    singletons = {e, s, t, v, x, y}
    want = deepcopy(h)
    attach_global_singletons_oracle(g, want, singletons)
    _attach_global_singletons(g, h, singletons)
    assert h == want
    assert h.attached_singletons == {e: 2, v: 1, x: 1, y: 1, t: 1, s: 1}
    assert h.clusters[1].members == [a, b, s, t, v, w, x, y]
    assert h.clusters[2].members == [c, d, e, v, w]


def test_host_maps_cost_a_few_bytes_per_node():
    """Attachment and merging peak at a few dozen bytes per node, not a dict entry and a list per node.

    A seeded 6,000-node sparse fixture. Attachment reruns on the finished
    hierarchy with its attached singletons taken back out, so it must
    rebuild it exactly.
    """
    edges, nodes = generate_kg_sparse(6000, seed=3)
    g = largest_connected_component(load_graph(edges, nodes))
    h = build_hierarchy(g, 40)  # also builds g._rows, which the peaks below leave out
    undone = deepcopy(h)
    for v, cid in undone.attached_singletons.items():
        undone.clusters[cid].members.remove(v)
    singletons, undone.attached_singletons = set(undone.attached_singletons), {}
    _, peak = traced_peak(_attach_global_singletons, g, undone, singletons)
    assert undone == h and len(singletons) > 500
    assert peak <= 32 * g.n, f"attachment peak {peak} B is {peak / g.n:.1f} B per node"
    for mode in MergeMode:
        (_, report), peak = traced_peak(merge_small_clusters, g, deepcopy(h), mode)
        assert len(report.merged) > 500
        assert peak <= 80 * g.n, f"{mode.value} merge peak {peak} B is {peak / g.n:.1f} B per node"
