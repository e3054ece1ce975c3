"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 7 asserts the
pairwise sensitivity-perturbation bound 4 d^2 / (2m)^2, which is proven in
``pair_perturbation_bound`` and attained exactly (see
tests/test_modularity.py::TestPairPerturbation for the exact-fraction
instance), so no smaller constant can pass it.
"""

import time
from copy import deepcopy

import numpy as np
import pytest

from corehier.cores import core_numbers
from corehier.cli import PipelineConfig, run_pipeline
from corehier.fileio import (
    hierarchy_to_json_obj,
    json_dumps_stable,
)
from corehier.fixtures import generate_kg_sparse, three_level_example
from corehier.graph import NodeMeta, largest_connected_component, load_graph
from corehier.hierarchy import build_hierarchy
from corehier.merging import MergeMode, merge_small_clusters
from corehier.modularity import (
    NEW_COMMUNITY,
    Partition,
    degeneracy_thresholds,
    enumerate_degeneracy,
    modularity,
    move_delta,
    pair_perturbation_bound,
    sensitivity,
    single_move_bound,
)
from corehier.sampling import (
    budget_from_edge_fraction,
    derive_max_cluster_size,
    round_robin_sample,
)

from conftest import (
    adjacency,
    check_hierarchy_invariants,
    check_round_robin_properties,
    core_numbers_oracle,
    leaf_node_multiset,
    make_graph,
    node_id,
    random_graph,
    sample_fields,
    write_edges_tsv,
    write_nodes_jsonl,
)

TOL = 1e-12
FIXTURE_COUNT = 100
FIXTURE_N = 1000


def report(criterion: int, text: str) -> None:
    print(f"\n[acceptance] criterion {criterion:2d} PASS: {text}")


@pytest.fixture(scope="module")
def fixture_bundle():
    """The 100 seeded sparse fixtures with their hierarchies, built once.

    Merging changes the hierarchy it is given, so each test merges a copy.
    """
    bundle = []
    for seed in range(FIXTURE_COUNT):
        edges, nodes = generate_kg_sparse(FIXTURE_N, seed=seed)
        g = largest_connected_component(load_graph(edges, nodes))
        max_size = derive_max_cluster_size(8000, g)
        h = build_hierarchy(g, max_size)
        bundle.append((seed, g, max_size, h))
    return bundle


def test_criterion_01_core_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(1, 51)), int(rng.integers(0, 80)))
        assert core_numbers(g).core == core_numbers_oracle(g)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(1, f"200 random graphs match the peel-to-fixpoint oracle in {elapsed:.2f}s")


def test_criterion_02_worked_example_reproduction():
    edges, nodes = three_level_example()
    g = largest_connected_component(load_graph(edges, nodes))
    h = build_hierarchy(g, 16)

    def members(c):
        return "".join(sorted(g.external_ids[v] for v in c.members))

    shape = {(members(c), c.level, c.kind) for c in h.clusters.values()}
    assert shape == {
        ("abcdefghijklmnop", 1, "root"),
        ("fghijklmnop", 2, "core"),
        ("ab", 2, "residual"),
        ("cd", 2, "two_hop"),
        ("mnop", 3, "core"),
        ("efgh", 3, "residual"),   # singleton e attached to the f-h leaf
        ("ij", 3, "residual"),
        ("kl", 3, "residual"),
    }
    by_members = {members(c): c for c in h.clusters.values()}
    root, two_core = by_members["abcdefghijklmnop"], by_members["fghijklmnop"]
    for name in ("ab", "cd"):
        assert by_members[name].parent == root.id
    for name in ("mnop", "efgh", "ij", "kl"):
        assert by_members[name].parent == two_core.id
    assert two_core.parent == root.id
    assert h.attached_singletons == {node_id(g, "e"): by_members["efgh"].id}
    assert {members(c) for c in h.leaves()} == {"ab", "cd", "efgh", "ij", "kl", "mnop"}
    report(2, "16-node worked example decomposes into the documented structure")


def test_criterion_03_hierarchy_invariants_and_determinism(fixture_bundle):
    for seed, g, max_size, h in fixture_bundle:
        check_hierarchy_invariants(g, h, max_size)
        # full leaf coverage of the component
        assert leaf_node_multiset(h).keys() == set(range(g.n))
        # independent rebuild from the raw records is byte-identical
        edges, nodes = generate_kg_sparse(FIXTURE_N, seed=seed)
        g2 = largest_connected_component(load_graph(edges, nodes))
        h2 = build_hierarchy(g2, max_size)
        assert json_dumps_stable(hierarchy_to_json_obj(h, g)) == json_dumps_stable(
            hierarchy_to_json_obj(h2, g2)
        )
    report(3, f"{FIXTURE_COUNT} sparse fixtures: size cap, nesting, coverage, byte-identity")


def test_criterion_04_merging_invariants(fixture_bundle):
    for seed, g, max_size, h in fixture_bundle:
        merged_2h, rep_2h = merge_small_clusters(g, deepcopy(h), MergeMode.TWO_HOP_ONLY)
        merged_ext, rep_ext = merge_small_clusters(g, deepcopy(h), MergeMode.RESIDUAL_AND_TWO_HOP)

        assert len(merged_ext.clusters) <= len(merged_2h.clusters) <= len(h.clusters)

        before = leaf_node_multiset(h)
        for merged, rep in ((merged_2h, rep_2h), (merged_ext, rep_ext)):
            after = leaf_node_multiset(merged)
            assert set(before) == set(after)
            assert sum(before.values()) - sum(after.values()) == rep.deduplicated

        adj = adjacency(g)
        for merged, kinds in (
            (merged_2h, ("two_hop",)),
            (merged_ext, ("two_hop", "residual")),
        ):
            covered: dict[int, set[int]] = {}
            for leaf in merged.leaves():
                for v in leaf.members:
                    covered.setdefault(v, set()).add(leaf.id)
            for leaf in merged.leaves():
                if leaf.kind in kinds and len(leaf.members) == 2:
                    for v in leaf.members:
                        for w in adj[v]:
                            if w not in leaf.members:
                                assert not (covered.get(w, set()) - {leaf.id})
    report(4, f"{FIXTURE_COUNT} fixtures: merge exhaustiveness, monotone counts, node conservation")


def test_criterion_05_round_robin_budgets(fixture_bundle):
    for seed, g, max_size, h in fixture_bundle:
        merged, _ = merge_small_clusters(g, deepcopy(h), MergeMode.TWO_HOP_ONLY)
        for fraction in (0.8, 0.7, 0.6):
            budget = budget_from_edge_fraction(g, fraction)
            result = round_robin_sample(merged, g, budget)
            check_round_robin_properties(g, merged, result, budget)
            assert sample_fields(result) == sample_fields(round_robin_sample(merged, g, budget))
    report(5, f"{FIXTURE_COUNT} fixtures x 3 edge budgets: budget safety, fairness, rank prefixes")


def _random_partition(rng, n):
    parts = int(rng.integers(1, max(2, n // 2)))
    return Partition(tuple(int(x) for x in rng.integers(0, parts, size=n)))


def test_criterion_06_single_move_bound():
    rng = np.random.default_rng(6)
    done = 0
    while done < 1000:
        g = random_graph(rng, int(rng.integers(5, 25)), int(rng.integers(0, 24)))
        if g.m == 0:
            continue
        d = int(rng.integers(1, 4))
        low = [v for v in range(g.n) if 1 <= g.degrees[v] <= d]
        if not low:
            continue
        v = low[int(rng.integers(0, len(low)))]
        p = _random_partition(rng, g.n)
        targets = [c for c in p.community_ids() if c != p.assignment[v]] + [NEW_COMMUNITY]
        t = targets[int(rng.integers(0, len(targets)))]
        observed = abs(move_delta(g, p, v, t))
        assert observed <= single_move_bound(g.degrees[v], g.m) + TOL
        done += 1
    report(6, "1000 randomized low-degree moves stay within 2k/m + k^2/2m^2")


def test_criterion_07_pair_perturbation_bound():
    """Check of the pairwise constant 4 d^2 / (2m)^2.

    When j moves between i's own community and i's best target, both
    community degree sums shift and the sensitivity moves by up to
    4 d^2 / (2m)^2; the path on 6 nodes attains it exactly (exact-fraction
    instance in tests/test_modularity.py), so the constant cannot be smaller.
    """
    rng = np.random.default_rng(7)
    done = 0
    violations = 0
    worst = 0.0
    while done < 1000:
        g = random_graph(rng, int(rng.integers(5, 20)), int(rng.integers(0, 20)))
        if g.m == 0:
            continue
        d = int(rng.integers(1, 4))
        low = [v for v in range(g.n) if 1 <= g.degrees[v] <= d]
        adj = adjacency(g)
        pairs = [(i, j) for i in low for j in low if i < j and j not in adj[i]]
        if not pairs:
            continue
        i, j = pairs[int(rng.integers(0, len(pairs)))]
        p = _random_partition(rng, g.n)
        targets = [c for c in p.community_ids() if c != p.assignment[j]] + [NEW_COMMUNITY]
        t = targets[int(rng.integers(0, len(targets)))]
        base, _ = sensitivity(g, p, i)
        moved, _ = sensitivity(g, p.move(j, t), i)
        excess = abs(base - moved) - pair_perturbation_bound(d, g.m)
        worst = max(worst, excess)
        if excess > TOL:
            violations += 1
        done += 1
    assert violations == 0, (
        f"{violations}/1000 trials exceed the pairwise bound 4d^2/(2m)^2 "
        f"(worst excess {worst:.3e})"
    )
    report(7, "1000 randomized pair reassignments stay within 4d^2/(2m)^2")


def test_criterion_08_degeneracy_lower_bound():
    # headline instance: four disjoint edges
    g = make_graph([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
    statement_eps, proof_eps = degeneracy_thresholds(g, 1)
    rep = enumerate_degeneracy(g, proof_eps, 1)
    assert rep.n_le_d == 8 and rep.lower_bound == 16
    assert rep.degenerate_count >= rep.lower_bound
    # the proof tolerance admits every partition here; the statement's does not
    at_statement = enumerate_degeneracy(g, statement_eps, 1)
    assert at_statement.degenerate_count == 74
    assert at_statement.degenerate_count >= at_statement.lower_bound

    rng = np.random.default_rng(8)
    checked = 0
    max_seconds = 0.0
    while checked < 20:
        n = int(rng.integers(6, 11))
        g = random_graph(rng, n, int(rng.integers(0, 4)))
        if g.m == 0 or g.n > 10:
            continue
        d = 1
        statement_eps, proof_eps = degeneracy_thresholds(g, d)
        start = time.perf_counter()
        rep = enumerate_degeneracy(g, proof_eps, d)
        elapsed = time.perf_counter() - start
        max_seconds = max(max_seconds, elapsed)
        assert elapsed < 5.0
        assert rep.degenerate_count >= rep.lower_bound
        assert enumerate_degeneracy(g, statement_eps, d).degenerate_count >= rep.lower_bound
        checked += 1
    report(
        8,
        "degeneracy >= 2^(n_low/(d+1)) at the proof and the statement tolerance on 21 graphs; "
        f"slowest enumeration {max_seconds:.2f}s",
    )


def test_criterion_09_modularity_unit_values():
    two_triangles = make_graph(
        [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f")]
    )
    assert abs(modularity(two_triangles, Partition((0,) * 6)).q - 0.0) <= TOL
    assert abs(modularity(two_triangles, Partition((0, 0, 0, 1, 1, 1))).q - 0.5) <= TOL
    single_edge = make_graph([("a", "b")])
    assert abs(modularity(single_edge, Partition((0, 1))).q - (-0.5)) <= TOL
    report(9, "Q(all-in-one) = 0, two-triangle split = 0.5, single-edge split = -0.5")


def test_criterion_10_max_cluster_size_rule():
    g = load_graph(
        [("a", "b")],
        [NodeMeta("a", token_count=40), NodeMeta("b", token_count=40)],
    )
    assert derive_max_cluster_size(8000, g) == 200
    report(10, "derive_max_cluster_size(8000, avg 40 tokens) = 200 exactly")


def test_criterion_11_performance_smoke(tmp_path):
    edges, nodes = generate_kg_sparse(58800, seed=0)  # ~100k edges
    edges_path = tmp_path / "edges.tsv"
    nodes_path = tmp_path / "nodes.jsonl"
    write_edges_tsv(edges_path, edges)
    write_nodes_jsonl(nodes_path, nodes)
    start = time.perf_counter()
    run_pipeline(
        PipelineConfig(edges_path=edges_path, nodes_path=nodes_path, out_dir=tmp_path / "out")
    )
    pipeline_seconds = time.perf_counter() - start
    assert pipeline_seconds < 5.0

    def best_decomposition_time(n):
        e, nd = generate_kg_sparse(n, seed=1)
        g = largest_connected_component(load_graph(e, nd))
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            core_numbers(g)
            best = min(best, time.perf_counter() - t0)
        return best, g.m

    t_small, m_small = best_decomposition_time(29400)
    t_big, m_big = best_decomposition_time(58800)
    ratio = t_big / t_small
    assert 1.9 <= m_big / m_small <= 2.1
    assert ratio <= 2.5, f"decomposition scaling ratio {ratio:.2f} exceeds 2.5"
    report(
        11,
        f"100k-edge pipeline in {pipeline_seconds:.2f}s; doubling edges scales "
        f"decomposition by {ratio:.2f}x",
    )
