"""Modularity lab: exact values, enumeration oracles, and the move bounds."""

import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier.errors import ConfigError, InputError
from corehier.graph import load_graph
from corehier.modularity import (
    NEW_COMMUNITY,
    Partition,
    _BLOCK_ROWS,
    _degeneracy_reports,
    _label_sums,
    _modularity_vector,
    _partition_blocks,
    _scores,
    all_partition_assignments,
    degeneracy_thresholds,
    enumerate_degeneracy,
    modularity,
    move_delta,
    pair_perturbation_bound,
    sensitivity,
    single_move_bound,
    verify_sparse_bounds,
)

from conftest import adjacency, iter_set_partitions, make_graph, random_graph, traced_peak

# The package's ``modularity`` attribute is the function, not the module.
MODULE = importlib.import_module("corehier.modularity")

TOL = 1e-12

BELL = {
    1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975, 11: 678570,
    12: 4213597,
}


def float_modularity_vector(g, assignments):
    """Q over assignment rows by the original per-label float formula, the oracle."""
    deg = np.asarray(g.degrees, dtype=np.float64)
    intra = np.zeros(len(assignments), dtype=np.int32)
    for u, w in g.edges():
        intra += assignments[:, u] == assignments[:, w]
    penalty = np.zeros(len(assignments), dtype=np.float64)
    two_m = 2.0 * g.m
    for cid in range(g.n):
        k_c = (assignments == cid) @ deg
        penalty += (k_c / two_m) ** 2
    return intra / g.m - penalty


def partition_q(g):
    """Q of every partition of g's nodes, block by block under the current ``_BLOCK_ROWS``: the float oracle."""
    return np.concatenate([_modularity_vector(g, b) for b in _partition_blocks(g.n, MODULE._BLOCK_ROWS)])


def integer_scores(g, assignments):
    """S = 4m·intra - sum_c K_c^2 over assignment rows by the per-label formula, in int64."""
    deg = np.asarray(g.degrees, dtype=np.int64)
    intra = np.zeros(len(assignments), dtype=np.int64)
    for u, w in g.edges():
        intra += assignments[:, u] == assignments[:, w]
    return 4 * g.m * intra - sum(((assignments == cid) @ deg) ** 2 for cid in range(g.n))


def two_triangles():
    return make_graph([("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"), ("e", "f")])


class TestModularityValues:
    def test_all_in_one_is_zero(self):
        g = two_triangles()
        assert abs(modularity(g, Partition((0,) * 6)).q) <= TOL

    def test_two_triangles_split_is_half(self):
        g = two_triangles()
        assert abs(modularity(g, Partition((0, 0, 0, 1, 1, 1))).q - 0.5) <= TOL

    def test_single_edge_split_is_minus_half(self):
        g = make_graph([("a", "b")])
        assert abs(modularity(g, Partition((0, 1))).q - (-0.5)) <= TOL

    def test_breakdown_terms(self):
        g = two_triangles()
        breakdown = modularity(g, Partition((0, 0, 0, 1, 1, 1)))
        assert breakdown.per_community == {0: (3, 6), 1: (3, 6)}

    def test_edgeless_graph_rejected(self):
        from corehier.graph import NodeMeta, load_graph

        g = load_graph([], [NodeMeta("a"), NodeMeta("b")])
        with pytest.raises(InputError):
            modularity(g, Partition((0, 1)))

    def test_partition_of_the_wrong_length_rejected(self):
        with pytest.raises(InputError, match=r"^partition must cover exactly the graph's nodes$"):
            modularity(two_triangles(), Partition((0, 0, 0, 1, 1)))

    def test_move_to_the_own_community_changes_nothing(self):
        assert move_delta(two_triangles(), Partition((0, 0, 0, 1, 1, 1)), 4, 1) == 0.0


class TestSensitivity:
    def test_single_edge_split_off(self):
        g = make_graph([("a", "b")])
        delta, target = sensitivity(g, Partition((0, 0)), 0)
        assert abs(delta - 0.5) <= TOL
        assert target == NEW_COMMUNITY

    def test_no_possible_move_returns_zero(self):
        g = make_graph([("a", "b")])
        p = Partition((0, 1))
        # moving a: targets are b's community and nothing else (a is alone)
        delta, target = sensitivity(g, p, 0)
        assert target == 1
        # single node alone in the only community of a 1-community partition
        delta0, target0 = sensitivity(g, Partition((0, 0)), 0)
        assert target0 == NEW_COMMUNITY

    def test_incremental_matches_full_recomputation(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            g = random_graph(rng, int(rng.integers(4, 18)), int(rng.integers(0, 20)))
            if g.m == 0:
                continue
            parts = int(rng.integers(1, 4))
            p = Partition(tuple(int(x) for x in rng.integers(0, parts, size=g.n)))
            v = int(rng.integers(0, g.n))
            targets = [c for c in p.community_ids() if c != p.assignment[v]] + [NEW_COMMUNITY]
            t = targets[int(rng.integers(0, len(targets)))]
            inc = move_delta(g, p, v, t)
            full = modularity(g, p.move(v, t)).q - modularity(g, p).q
            assert abs(inc - full) <= TOL

    def test_matches_max_over_single_moves(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(3, 12)), int(rng.integers(0, 10)))
            if g.m == 0:
                continue
            parts = int(rng.integers(1, 5))
            p = Partition(tuple(int(x) for x in rng.integers(0, parts, size=g.n)))
            v = int(rng.integers(0, g.n))
            targets = [c for c in p.community_ids() if c != p.assignment[v]]
            if p.assignment.count(p.assignment[v]) >= 2:
                targets.append(NEW_COMMUNITY)
            deltas = [abs(move_delta(g, p, v, t)) for t in targets]
            q = modularity(g, p).q
            full = [abs(modularity(g, p.move(v, t)).q - q) for t in targets]
            best, target = sensitivity(g, p, v)
            if not targets:
                assert (best, target) == (0.0, None)
            else:
                assert best == max(deltas)
                assert target == targets[deltas.index(best)]
                assert abs(best - max(full)) <= TOL


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_assignment_counts_match_bell_numbers(self, n):
        rows = all_partition_assignments(n)
        assert len(rows) == BELL[n]
        assert len({tuple(r) for r in rows.tolist()}) == BELL[n]

    def test_assignments_need_one_to_twelve_nodes(self):
        with pytest.raises(ConfigError, match=r"^need at least one node to enumerate partitions$"):
            all_partition_assignments(0)
        with pytest.raises(InputError, match=r"^exhaustive enumeration supports n <= 12, got 13$"):
            all_partition_assignments(13)

    def test_fast_rows_match_reference_generator(self):
        for n in range(1, 10):
            fast = [tuple(r) for r in all_partition_assignments(n).tolist()]
            slow = [tuple(r) for r in iter_set_partitions(n)]
            assert fast == slow

    def test_vectorized_q_matches_scalar(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")])
        rows = all_partition_assignments(g.n)
        qs = _modularity_vector(g, rows)
        rng = np.random.default_rng(1)
        for idx in rng.integers(0, len(rows), size=20):
            p = Partition(tuple(int(x) for x in rows[int(idx)]))
            assert abs(qs[int(idx)] - modularity(g, p).q) <= TOL

    def test_vector_q_is_bit_identical_to_float_formula(self):
        rng = np.random.default_rng(2024)
        graphs = [
            make_graph([("a", "b"), ("b", "c")], names=["a", "b", "c", "z"]),  # z isolated
            make_graph([("hub", f"leaf{i}") for i in range(8)]),  # a star
        ]
        for n in range(2, 10):  # one node has no edge, so Q needs n >= 2
            for _ in range(3):
                g = random_graph(rng, n, int(rng.integers(0, n)))
                if g.m:
                    graphs.append(g)
        assert {g.n for g in graphs} == set(range(2, 10))
        assert any(0 in g.degrees for g in graphs)
        for g in graphs:
            rows = all_partition_assignments(g.n)
            new = _modularity_vector(g, rows)
            oracle = float_modularity_vector(g, rows)
            assert np.array_equal(new.view(np.int64), oracle.view(np.int64))
            # the all-in-one row has K_0 = 2m, the last entry of the square table
            assert new[0] == 0.0

    def test_k3_optimum_is_all_in_one(self):
        g = make_graph([("a", "b"), ("a", "c"), ("b", "c")])
        report = enumerate_degeneracy(g, 0.1, 1)
        assert abs(report.q_star) <= TOL
        assert report.degenerate_count == 1
        # the runner-up partitions score exactly -2/9
        qs = sorted(_modularity_vector(g, all_partition_assignments(3)), reverse=True)
        assert abs(qs[1] - float(Fraction(-2, 9))) <= TOL

    def test_path_counts_at_two_tolerances(self):
        g = make_graph([("a", "b"), ("b", "c")])
        assert enumerate_degeneracy(g, 0.2, 1).degenerate_count == 3
        assert enumerate_degeneracy(g, 0.05, 1).degenerate_count == 1

    def test_count_is_monotone_in_epsilon(self):
        g = make_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("d", "e")])
        counts = [
            enumerate_degeneracy(g, eps, 1).degenerate_count
            for eps in (0.01, 0.05, 0.2, 0.5, 1.0, 3.0)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == BELL[g.n]

    def test_enumeration_peak_memory_is_bounded(self):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic.
        # The enumeration holds one block and its temporaries, whatever Bell(n)
        # is: 1,861,350 B observed at n = 12, where a float64 Q vector of every
        # partition would take 33.7 MB on its own.
        g = full_size_graphs()["sparse"]
        _, peak = traced_peak(enumerate_degeneracy, g, 0.05, 1)
        assert peak <= 2_500_000

    def test_too_large_instances_rejected(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 13, 10)
        with pytest.raises(InputError):
            enumerate_degeneracy(g, 0.1, 1)
        with pytest.raises(ConfigError):
            enumerate_degeneracy(make_graph([("a", "b")]), 0.0, 1)


def block_limits(n):
    """Row limits that put the enumeration's prefix at 1 label, in between, and at or near n.

    A limit of Bell(n) or more keeps one block and Bell(n) - 1 forces a
    longer prefix. Bell(n) // 1000 makes every prefix a whole row up to
    n = 8 and leaves at most two free labels at n = 10, in some thousand
    blocks.
    """
    bell = BELL[n]
    return sorted({math.inf, bell, max(1, bell - 1), max(1, bell // 7), max(1, bell // 1000)})


def seeded_graphs(seed, sizes):
    """Random graphs with edges, some with isolated nodes, one or more per size."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        for _ in range(2):
            g = random_graph(rng, n, int(rng.integers(0, n)))
            if g.m:
                graphs.append(g)
    return graphs


class TestPartitionBlocks:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_blocks_concatenate_to_reference_rows(self, n):
        slow = [tuple(r) for r in iter_set_partitions(n)]
        for limit in block_limits(n):
            blocks = list(_partition_blocks(n, limit))
            assert all(b.dtype == np.int8 and b.flags.f_contiguous for b in blocks)
            assert all(1 <= len(b) <= limit for b in blocks)
            assert [tuple(r) for b in blocks for r in b.tolist()] == slow
        assert len(list(_partition_blocks(n, 1))) == BELL[n]
        assert len(list(_partition_blocks(n, BELL[n]))) == 1

    def test_blocked_q_is_bit_identical_to_whole_array(self, monkeypatch):
        graphs = seeded_graphs(77, range(2, 11))
        assert {g.n for g in graphs} == set(range(2, 11))
        assert any(0 in g.degrees for g in graphs)
        for g in graphs:
            whole = _modularity_vector(g, all_partition_assignments(g.n))
            for limit in block_limits(g.n):
                monkeypatch.setattr(MODULE, "_BLOCK_ROWS", limit)
                blocked = partition_q(g)
                assert np.array_equal(blocked.view(np.int64), whole.view(np.int64))

    def test_blocked_scores_match_whole_array_scores(self):
        for g in seeded_graphs(77, range(2, 11)):
            whole = _scores(g, all_partition_assignments(g.n))
            assert whole.dtype == np.int32
            for limit in block_limits(g.n):
                blocked = [_scores(g, b) for b in _partition_blocks(g.n, limit)]
                assert np.array_equal(np.concatenate(blocked), whole)

    def test_report_counts_match_whole_array_counts(self, monkeypatch):
        for g in seeded_graphs(78, range(3, 10)):
            whole = _modularity_vector(g, all_partition_assignments(g.n))
            q_star = whole.max()
            distinct = np.unique(whole)[::-1]
            # q_star - Q for an attained Q puts that Q exactly on the cutoff
            on_gap = [float(q_star - q) for q in distinct[1:4]]
            epsilons = [1e-9, 0.05, 0.3, 2.5] + on_gap
            expected = [int((whole > q_star - eps).sum()) for eps in epsilons]
            for limit in block_limits(g.n):
                monkeypatch.setattr(MODULE, "_BLOCK_ROWS", limit)
                reports = _degeneracy_reports(g, epsilons, 1)
                assert [r.degenerate_count for r in reports] == expected
                assert all(r.q_star == float(q_star) for r in reports)


def count_passes(monkeypatch):
    """The n of every enumeration pass the lab starts from now on, through ``_partition_blocks``."""
    calls = []
    blocks = MODULE._partition_blocks

    def counted(n, max_rows):
        calls.append(n)
        return blocks(n, max_rows)

    monkeypatch.setattr(MODULE, "_partition_blocks", counted)
    return calls


class TestEnumerationPasses:
    """Counted, not timed: a lab call walks the Bell(n) rows once, twice only on a cutoff level.

    The second pass finds the float Q of the rows whose exact score sits
    on the cutoff q_star - epsilon, where the score alone cannot decide.
    """

    def test_sparse_graph_takes_one_pass_per_call(self, monkeypatch):
        # n = 12 and m = 14, the size of the benchmark's lab graphs
        g = random_graph(np.random.default_rng(1), 12, 3)
        assert (g.n, g.m) == (12, 14)
        calls = count_passes(monkeypatch)
        enumerate_degeneracy(g, 0.02, 1)
        assert calls == [12]
        verify_sparse_bounds(g, 1)
        assert calls == [12, 12]

    def test_cutoff_on_an_attained_level_takes_a_second_pass(self, monkeypatch):
        g = make_graph([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        calls = count_passes(monkeypatch)
        report = enumerate_degeneracy(g, 0.375, 1)
        assert calls == [8, 8]
        assert (report.degenerate_count, report.q_star) == (74, 0.75)
        # 0.75 - 0.375 is a Q some partitions reach; those count only with a float Q above it
        assert (_modularity_vector(g, all_partition_assignments(8)) >= 0.375).sum() > 74


@pytest.fixture(scope="module")
def full_size_blocks():
    """Blocks of the n = 12 enumeration: the first, a middle one, one of top 10, the last, the largest.

    A block's top is its largest label: 8 in the first and the largest
    block, 9 in the middle one and 11 only in the last, so the four named
    blocks cover every top. The first pass checks every block's length and
    keeps none; the second keeps only the chosen blocks.
    """
    sizes = [(len(b), int(b.max())) for b in _partition_blocks(12, _BLOCK_ROWS)]
    assert sum(rows for rows, _ in sizes) == BELL[12]
    assert all(rows <= _BLOCK_ROWS for rows, _ in sizes)
    wanted = {
        "first": 0,
        "middle": len(sizes) // 2,
        "top10": next(k for k, (_, top) in enumerate(sizes) if top == 10),
        "last": len(sizes) - 1,
        "largest": max(range(len(sizes)), key=lambda k: sizes[k][0]),
    }
    assert [sizes[wanted[name]][1] for name in ("first", "middle", "top10", "last")] == [8, 9, 10, 11]
    kept = {k: b for k, b in enumerate(_partition_blocks(12, _BLOCK_ROWS)) if k in wanted.values()}
    return {name: kept[k] for name, k in wanted.items()}


def full_size_graphs():
    """A seeded sparse 12-node graph, K12 (K_c reaches 2m = 132) and a perfect matching (every d = 1)."""
    names = [f"v{i:02d}" for i in range(12)]
    sparse = random_graph(np.random.default_rng(12), 12, 3)
    complete = make_graph([(a, b) for i, a in enumerate(names) for b in names[i + 1:]], names)
    matching = make_graph([(names[i], names[i + 1]) for i in range(0, 12, 2)], names)
    assert sparse.n == 12 and sparse.m and max(sparse.degrees) > 1
    assert complete.m == 66 and set(matching.degrees) == {1}
    return {"sparse": sparse, "complete": complete, "matching": matching}


class TestFullSizeBlocks:
    """The blocked kernel at the enumeration cap, n = 12, against the float oracle."""

    @pytest.mark.parametrize("graph", ["sparse", "complete", "matching"])
    @pytest.mark.parametrize("block", ["first", "middle", "top10", "last"])
    def test_block_q_is_bit_identical_to_float_formula(self, full_size_blocks, graph, block):
        g = full_size_graphs()[graph]
        rows = full_size_blocks[block]
        new = _modularity_vector(g, rows)
        oracle = float_modularity_vector(g, rows)
        assert np.array_equal(new.view(np.int64), oracle.view(np.int64))

    @pytest.mark.parametrize("graph", ["sparse", "complete", "matching"])
    @pytest.mark.parametrize("block", ["first", "middle", "top10", "last"])
    def test_block_scores_are_exact(self, full_size_blocks, graph, block):
        g = full_size_graphs()[graph]
        rows = full_size_blocks[block]
        scores = _scores(g, rows)
        assert np.array_equal(scores, integer_scores(g, rows))
        sample = np.random.default_rng(len(rows)).integers(0, len(rows), size=12).tolist()
        for idx in [0, len(rows) - 1, *sample]:
            assert scores[idx] == 4 * g.m * g.m * exact_q(g, Partition(tuple(rows[idx].tolist())))

    def test_complete_graph_scores_reach_the_largest_sums(self, full_size_blocks):
        # the first row puts all of K12 in one community: K_0 = 2m = 132, sum K_c^2 = 4m^2
        g = full_size_graphs()["complete"]
        rows = full_size_blocks["first"]
        _, k = _label_sums(g, rows)
        assert k.dtype == np.uint8 and k.max() == k[0, 0] == 132
        assert (k.astype(np.int64) ** 2).sum(axis=0).max() == 17_424
        assert _scores(g, rows)[0] == 0

    def test_kernel_peak_memory_per_row_is_bounded(self, full_size_blocks):
        # At top = 8, K and its broadcast buffer take 9 B per row each; the
        # broadcast is freed before the two float64 vectors are made, so the
        # peak is K, the edge counts, those vectors and numpy's cast buffer:
        # 28.1 B per row.
        rows = full_size_blocks["largest"]
        assert int(rows.max()) == 8
        _, peak = traced_peak(_modularity_vector, full_size_graphs()["sparse"], rows)
        assert peak <= 32 * len(rows)


LOOPED = [("a", "b"), ("a", "a")]


class TestLoopRecords:
    """A loop record adds no edge, so the lab sees the loop-free graph.

    When the graph kept loops, m and the degrees counted one while the
    internal edge counts skipped it, and Q of one community on one edge
    came out -0.5 instead of 0.
    """

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: modularity(g, Partition((0, 0))),
            lambda g: move_delta(g, Partition((0, 0)), 0, NEW_COMMUNITY),
            lambda g: sensitivity(g, Partition((0, 0)), 0),
            lambda g: degeneracy_thresholds(g, 1),
            lambda g: enumerate_degeneracy(g, 0.1, 1),
            lambda g: verify_sparse_bounds(g, 1),
        ],
        ids=[
            "modularity", "move_delta", "sensitivity", "degeneracy_thresholds",
            "enumerate_degeneracy", "verify_sparse_bounds",
        ],
    )
    def test_loop_record_changes_no_value(self, call):
        assert call(load_graph(LOOPED)) == call(load_graph(LOOPED[:1]))

    def test_loop_free_graph_gives_zero_for_one_community(self):
        g = load_graph(LOOPED)
        assert modularity(g, Partition((0, 0))).q == 0.0
        assert enumerate_degeneracy(g, 0.1, 1).q_star == 0.0


class TestThresholds:
    def test_four_disjoint_edges_thresholds(self):
        g = make_graph([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        statement, proof = degeneracy_thresholds(g, 1)
        # kbar = 1: statement = 3 / (2m) = 0.375, proof = 3/2 + 1/4 = 1.75
        assert abs(statement - 0.375) <= TOL
        assert abs(proof - 1.75) <= TOL

    def test_report_fields(self):
        g = make_graph([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        report = enumerate_degeneracy(g, 1.75, 1)
        assert report.n_le_d == 8
        assert report.lower_bound == 16
        assert report.degenerate_count == BELL[8]
        assert report.degenerate_count >= report.lower_bound


class TestSingleMoveBound:
    def test_p3_endpoint_bound_value(self):
        g = make_graph([("a", "b"), ("b", "c")])
        assert abs(single_move_bound(1, g.m) - 1.125) <= TOL

    def test_bound_holds_on_every_exhaustive_move(self):
        # proven inequality: |dQ| <= 2 k_i / m + k_i^2 / (2 m^2)
        rng = np.random.default_rng(9)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 12)), int(rng.integers(0, 12)))
            if g.m == 0:
                continue
            rows = all_partition_assignments(g.n)
            sample = rows[rng.integers(0, len(rows), size=min(25, len(rows)))]
            for row in sample:
                p = Partition(tuple(int(x) for x in row))
                for v in range(g.n):
                    bound = single_move_bound(g.degrees[v], g.m)
                    targets = [c for c in p.community_ids() if c != p.assignment[v]]
                    targets.append(NEW_COMMUNITY)
                    for t in targets:
                        assert abs(move_delta(g, p, v, t)) <= bound + TOL


def exact_q(g, p):
    """Modularity of p in exact rationals, straight from its definition."""
    q = Fraction(0)
    communities: dict[int, set[int]] = {}
    for v, cid in enumerate(p.assignment):
        communities.setdefault(cid, set()).add(v)
    for members in communities.values():
        e_c = sum(1 for u, w in g.edges() if u in members and w in members)
        k_c = sum(g.degrees[u] for u in members)
        q += Fraction(e_c, g.m) - Fraction(k_c, 2 * g.m) ** 2
    return q


def exact_sensitivity(g, p, v):
    """sensitivity() in exact rationals, by recomputing Q after every move."""
    source = p.assignment[v]
    targets = [c for c in p.community_ids() if c != source]
    if p.assignment.count(source) >= 2:
        targets.append(NEW_COMMUNITY)
    q = exact_q(g, p)
    return max((abs(exact_q(g, p.move(v, t)) - q) for t in targets), default=Fraction(0))


class TestExactScores:
    """The integer scores against exact rationals: S = 4m^2·Q on every partition."""

    def test_scores_are_exact_on_every_row(self):
        graphs = seeded_graphs(79, range(2, 9))
        graphs.append(make_graph([("a", "b"), ("b", "c"), ("c", "d")], names=["a", "b", "c", "d", "z"]))
        assert {g.n for g in graphs} == set(range(2, 9))
        assert any(0 in g.degrees for g in graphs)
        for g in graphs:
            rows = all_partition_assignments(g.n)
            exact = [4 * g.m * g.m * exact_q(g, Partition(tuple(r))) for r in rows.tolist()]
            assert all(q.denominator == 1 for q in exact)
            scores = _scores(g, rows)
            assert scores.tolist() == exact
            assert np.array_equal(scores, integer_scores(g, rows))


class TestPairPerturbation:
    def test_path6_counterexample_to_stated_bound(self):
        """The pairwise bound 4 d^2 / (2m)^2 is attained, so no smaller constant holds.

        Path v0..v5, everything in one community, i = v0, j = v5 (non-adjacent,
        both degree 1). Moving j to a fresh community raises i's sensitivity
        from 1/50 to 3/50: the shift is exactly 1/25 = 4 d^2 / (2m)^2, twice
        the 2 d^2 / (2m)^2 = 1/50 that was once stated as the cap.
        """
        g = make_graph([(f"v{i}", f"v{i+1}") for i in range(5)])
        p = Partition((0,) * 6)
        moved_p = p.move(5, NEW_COMMUNITY)
        shift = abs(exact_sensitivity(g, p, 0) - exact_sensitivity(g, moved_p, 0))
        assert shift == Fraction(1, 25)
        assert pair_perturbation_bound(1, g.m) == float(shift)  # tight
        assert shift > Fraction(2, (2 * g.m) ** 2)  # the old 2 d^2 / (2m)^2 fails here
        base, _ = sensitivity(g, p, 0)
        moved, _ = sensitivity(g, moved_p, 0)
        assert abs(abs(base - moved) - float(shift)) <= TOL

    def test_doubled_constant_holds_on_randomized_trials(self):
        # "doubled" relative to the old 2 d^2 / (2m)^2; the function now returns it
        rng = np.random.default_rng(123)
        done = 0
        while done < 300:
            g = random_graph(rng, int(rng.integers(5, 14)), int(rng.integers(0, 12)))
            if g.m == 0:
                continue
            d = int(rng.integers(1, 4))
            low = [v for v in range(g.n) if 1 <= g.degrees[v] <= d]
            adj = adjacency(g)
            pairs = [(i, j) for i in low for j in low if i < j and j not in adj[i]]
            if not pairs:
                continue
            i, j = pairs[int(rng.integers(0, len(pairs)))]
            parts = int(rng.integers(1, 4))
            p = Partition(tuple(int(x) for x in rng.integers(0, parts, size=g.n)))
            targets = [c for c in p.community_ids() if c != p.assignment[j]] + [NEW_COMMUNITY]
            t = targets[int(rng.integers(0, len(targets)))]
            base, _ = sensitivity(g, p, i)
            moved, _ = sensitivity(g, p.move(j, t), i)
            assert abs(base - moved) <= pair_perturbation_bound(d, g.m) + TOL
            done += 1


class TestVerifySparseBounds:
    def test_p3_single_move_checks_pass(self):
        g = make_graph([("a", "b"), ("b", "c")])
        report = verify_sparse_bounds(g, 1)
        assert report.single_move_violations == 0
        assert report.single_move_max_ratio <= 1.0 + TOL

    def test_four_disjoint_edges_degeneracy_bound(self):
        g = make_graph([("a", "b"), ("c", "d"), ("e", "f"), ("g", "h")])
        report = verify_sparse_bounds(g, 1)
        assert report.degeneracy_bound_holds
        assert report.degeneracy.degenerate_count >= 16
        assert report.statement_count is not None

    def test_one_enumeration_matches_two_separate_ones(self):
        rng = np.random.default_rng(31)
        graphs = [make_graph([(f"v{i}", f"v{i+1}") for i in range(7)])]
        graphs += [random_graph(rng, 9, 3) for _ in range(3)]
        for g in graphs:
            if g.m == 0:
                continue
            for d in (1, 2):
                statement, proof = degeneracy_thresholds(g, d)
                report = verify_sparse_bounds(g, d)
                assert report.degeneracy == enumerate_degeneracy(g, proof, d)
                assert report.statement_count == (
                    enumerate_degeneracy(g, statement, d).degenerate_count
                )

    def test_too_large_graph_is_rejected_before_any_move_check(self, monkeypatch):
        def no_move_check(*args):
            raise AssertionError("a move check ran before the enumeration's size check")

        monkeypatch.setattr(MODULE, "_move_delta", no_move_check)
        monkeypatch.setattr(MODULE, "_sensitivity", no_move_check)
        g = make_graph([(f"v{i}", f"v{i+1}") for i in range(12)])
        assert g.n == 13
        with pytest.raises(InputError, match="instance too large"):
            verify_sparse_bounds(g, 1)

    def test_zero_cutoff_is_vacuous(self):
        g = make_graph([("a", "b"), ("b", "c")])
        report = verify_sparse_bounds(g, 0)
        assert report.single_move_checks == 0
        assert report.pair_checks == 0
        assert report.degeneracy is None
        assert report.all_ok


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_q_of_trivial_partition_is_zero_for_any_graph(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(2, 20)), int(rng.integers(0, 20)))
    if g.m == 0:
        return
    assert abs(modularity(g, Partition((0,) * g.n)).q) <= TOL
