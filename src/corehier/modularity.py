"""Exact modularity, node-move sensitivity, and degeneracy enumeration.

Single values run in double precision. The enumeration (n <= 12) scores
every partition by the exact integer S = 4m·intra - sum_c K_c^2 = 4m^2·Q,
and takes its optimum and counts from those scores alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, InputError
from .graph import Graph

#: Sentinel target for "move the node into a brand-new singleton community".
NEW_COMMUNITY = -1

#: Exhaustive enumeration cap; Bell(12) ~ 4.2M partitions.
MAX_ENUMERATION_NODES = 12

#: Most rows in one enumeration block. A block and its temporaries, all the
#: enumeration holds, take about 1.9 MB, and the per-block call overhead stays
#: small: at n = 12 the enumeration streams 133 blocks built on 8-label prefixes.
_BLOCK_ROWS = 1 << 15

#: Seeded random partitions in :func:`verify_sparse_bounds`' battery, besides the two trivial ones.
_RANDOM_PARTITIONS = 12

#: Slack :func:`verify_sparse_bounds` allows an observed value over its bound for rounding.
_TOLERANCE = 1e-12


def _check_graph(g: Graph) -> None:
    """Reject a graph with no edges, since Q divides by m; any graph is simple by construction."""
    if g.m == 0:
        raise InputError("modularity is undefined for a graph with no edges")


def _check_options(d: int, epsilons: Sequence[float] = (), seed: int = 0) -> None:
    """Reject a bad d, epsilon or seed, before any work or input.

    d must lie in [0, 2**63): there d and (d + 1)**2 convert to floats, so
    every threshold and bound the lab computes from d stays finite. Each
    epsilon must be finite and positive, and the seed at least 0.
    """
    if d < 0:
        raise ConfigError("degree cutoff d must be >= 0")
    if d >= 2**63:
        raise ConfigError("degree cutoff d must be < 2**63")
    if not all(0 < epsilon < math.inf for epsilon in epsilons):
        raise ConfigError("epsilon must be finite and positive")
    if seed < 0:
        raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to a community; communities are never empty."""

    assignment: tuple[int, ...]

    def community_ids(self) -> list[int]:
        return sorted(set(self.assignment))

    def move(self, v: int, target: int) -> "Partition":
        """New partition with v reassigned; NEW_COMMUNITY opens a fresh singleton."""
        values = list(self.assignment)
        values[v] = max(self.assignment) + 1 if target == NEW_COMMUNITY else target
        return Partition(tuple(values))


@dataclass(frozen=True)
class ModularityBreakdown:
    """Q plus the per-community internal edge counts and total degrees."""

    q: float
    per_community: dict[int, tuple[int, int]]  # cid -> (e_c, K_c)


def modularity(g: Graph, p: Partition) -> ModularityBreakdown:
    """Modularity Q = sum_c [e_c/m - (K_c/2m)^2] of a partition."""
    _check_graph(g)
    if len(p.assignment) != g.n:
        raise InputError("partition must cover exactly the graph's nodes")
    m = g.m
    degree_sum = _community_degrees(g, p)
    internal = dict.fromkeys(degree_sum, 0)
    for u, w in g.edges():
        if p.assignment[u] == p.assignment[w]:
            internal[p.assignment[u]] += 1
    two_m = 2.0 * m
    q = 0.0
    per = {}
    for cid in sorted(internal):
        e_c = internal[cid]
        k_c = degree_sum[cid]
        q += e_c / m - (k_c / two_m) ** 2
        per[cid] = (e_c, k_c)
    return ModularityBreakdown(q=q, per_community=per)


def _community_degrees(g: Graph, p: Partition) -> dict[int, int]:
    """Degree sum K_c of every community of p, in O(n)."""
    sums: dict[int, int] = {}
    for v, cid in enumerate(p.assignment):
        sums[cid] = sums.get(cid, 0) + g.degrees[v]
    return sums


def _move_targets(p: Partition, v: int) -> list[int]:
    """Every community but v's own, in id order, then NEW_COMMUNITY if v has company."""
    source = p.assignment[v]
    targets = [cid for cid in p.community_ids() if cid != source]
    if sum(1 for c in p.assignment if c == source) >= 2:
        targets.append(NEW_COMMUNITY)
    return targets


def _move_delta(g: Graph, p: Partition, v: int, target: int, degree_sums: dict[int, int]) -> float:
    """:func:`move_delta` given p's community degree sums, in O(deg v)."""
    source = p.assignment[v]
    if target == source:
        return 0.0
    flat, bounds = g._rows
    d_src = 0
    d_tgt = 0
    for w in flat[bounds[v]:bounds[v + 1]]:
        cw = p.assignment[w]
        if cw == source:
            d_src += 1
        if cw == target:
            d_tgt += 1
    k_v = g.degrees[v]
    k_src = degree_sums[source]
    k_tgt = degree_sums.get(target, 0)
    m = g.m
    edge_term = (d_tgt - d_src) / m
    penalty_term = (2.0 * k_v * (k_tgt - k_src) + 2.0 * k_v * k_v) / (4.0 * m * m)
    return edge_term - penalty_term


def move_delta(g: Graph, p: Partition, v: int, target: int) -> float:
    """Q(partition with v moved to target) - Q(partition), in O(n + deg v).

    ``target`` may be an existing community id (distinct from v's) or
    NEW_COMMUNITY for a fresh singleton. Only the source and target
    community terms change, which gives the closed form below. The O(n)
    part sums the community degrees; :func:`sensitivity` and
    :func:`verify_sparse_bounds` sum them once per partition and then pay
    O(deg v) per move.
    """
    _check_graph(g)
    return _move_delta(g, p, v, target, _community_degrees(g, p))


def _sensitivity(
    g: Graph, p: Partition, v: int, degree_sums: dict[int, int]
) -> tuple[float, int | None]:
    """:func:`sensitivity` given p's community degree sums."""
    targets = _move_targets(p, v)
    if not targets:
        return 0.0, None
    best = -1.0
    best_target: int | None = None
    for target in targets:
        delta = abs(_move_delta(g, p, v, target, degree_sums))
        if delta > best:
            best = delta
            best_target = target
    return best, best_target


def sensitivity(g: Graph, p: Partition, v: int) -> tuple[float, int | None]:
    """Largest |Q change| over all single moves of v, and the move achieving it.

    Targets are every existing community except v's own, plus a fresh
    singleton whenever v currently has company (NEW_COMMUNITY in the result
    marks that case). Ties go to the smallest community id, fresh target
    last. Returns (0.0, None) when no move exists. Costs O(n log n) for the
    targets and degree sums plus O(deg v) per target.
    """
    _check_graph(g)
    return _sensitivity(g, p, v, _community_degrees(g, p))


# ---------------------------------------------------------------------------
# Exhaustive set-partition enumeration
# ---------------------------------------------------------------------------


def _growth_tails(n: int) -> np.ndarray:
    """``tails[b, r]``: completions by r more labels of a prefix with largest label b.

    A prefix with largest label b extends with any label in 0..b+1, so
    ``tails[b, r] = (b + 1) tails[b, r - 1] + tails[b + 1, r - 1]``, and
    Bell(k) is ``tails[0, k - 1]``. Shape (n + 1, n).
    """
    tails = np.ones((n + 1, n), dtype=np.int64)
    for r in range(1, n):
        tails[:n, r] = np.arange(1, n + 1) * tails[:n, r - 1] + tails[1:, r - 1]
    return tails


def _fill_completions(rows: np.ndarray, first: int, tops: np.ndarray, tails: np.ndarray) -> None:
    """Write columns first.. of rows: every completion of some prefixes, in lexicographic order.

    ``tops`` holds the largest label of each prefix, in prefix order, and
    rows has exactly their ``tails[tops, width - first]`` rows in total.
    Column i is the last label of every distinct length-(i + 1) prefix,
    each repeated over its completions, so each column is written in one
    integer pass. The last column is written as computed, since every
    prefix there is a whole row; that pass briefly holds two int64 vectors.
    """
    width = rows.shape[1]
    maxes = tops  # largest label of each distinct prefix
    for i in range(first, width):
        counts = maxes.astype(np.int64) + 2
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        labels = (np.arange(len(starts)) - starts).astype(np.int8)
        if i == width - 1:
            rows[:, i] = labels
            return
        maxes = np.maximum(np.repeat(maxes, counts), labels)
        rows[:, i] = np.repeat(labels, tails[maxes, width - 1 - i])


def _partition_blocks(n: int, max_rows: float) -> Iterator[np.ndarray]:
    """The rows of :func:`all_partition_assignments` as consecutive column-major int8 blocks.

    The prefix length p is the shortest whose every prefix has at most
    ``max_rows`` completions. Each block holds all completions of a run of
    consecutive length-p prefixes, at most ``max_rows`` rows, and the runs
    come in prefix order, so the blocks concatenate to the rows in order.
    Only the block being yielded is held, plus the Bell(p) prefixes.
    """
    tails = _growth_tails(n)
    p = next(k for k in range(1, n + 1) if tails[k - 1, n - k] <= max_rows)
    prefixes = np.zeros((int(tails[0, p - 1]), p), dtype=np.int8)
    _fill_completions(prefixes, 1, np.zeros(1, dtype=np.int8), tails)
    tops = prefixes.max(axis=1)
    sizes = tails[tops, n - p]  # completions of each prefix
    cuts = [0]
    rows = 0
    for k, size in enumerate(sizes.tolist()):
        if rows + size > max_rows:
            cuts.append(k)
            rows = 0
        rows += size
    cuts.append(len(sizes))
    for a, b in zip(cuts, cuts[1:]):
        block = np.empty((int(sizes[a:b].sum()), n), dtype=np.int8, order="F")
        block[:, :p] = np.repeat(prefixes[a:b], sizes[a:b], axis=0)
        _fill_completions(block, p, tops[a:b], tails)
        yield block


def all_partition_assignments(n: int) -> np.ndarray:
    """All restricted growth strings of length n as a column-major int8 array.

    One row per set partition, in lexicographic order: the single block
    of :func:`_partition_blocks` without a row limit. Costs n - 1
    integer column passes over Bell(n) rows; the result takes Bell(n)·n
    bytes (about 50 MB at n = 12), and the last pass briefly holds two
    int64 vectors of Bell(n) entries. The enumeration behind
    :func:`enumerate_degeneracy` streams smaller blocks instead.
    """
    if n < 1:
        raise ConfigError("need at least one node to enumerate partitions")
    if n > MAX_ENUMERATION_NODES:
        raise InputError(
            f"exhaustive enumeration supports n <= {MAX_ENUMERATION_NODES}, got {n}"
        )
    (rows,) = _partition_blocks(n, math.inf)
    return rows


def _label_sums(g: Graph, assignments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact (intra, K) of every assignment row: its intra-community edges and K_0..K_top.

    ``assignments`` holds restricted growth strings, so column v carries
    labels <= min(v, top), top being the rows' largest label. K is one
    array of ``np.min_scalar_type(2m)``: each column of nonzero degree d
    meets its labels in one broadcast comparison, scaled by d. Costs one
    row pass per edge and per (label c, column v >= c) pair with nonzero
    degree, at most m + n(n+1)/2, each contiguous when ``assignments`` is
    column-major.
    """
    m = g.m
    rows = len(assignments)
    top = int(assignments.max(initial=0))
    intra = np.zeros(rows, dtype=np.min_scalar_type(m))
    same = np.empty(rows, dtype=bool)
    for u, w in g.edges():
        np.equal(assignments[:, u], assignments[:, w], out=same)
        intra += same
    k = np.zeros((top + 1, rows), dtype=np.min_scalar_type(2 * m))
    hit = np.empty_like(k)
    labels = np.arange(top + 1, dtype=assignments.dtype)[:, None]
    for v, d in enumerate(g.degrees):
        if d:
            c = min(v, top) + 1
            np.equal(assignments[:, v], labels[:c], out=hit[:c])
            if d > 1:
                hit[:c] *= d
            k[:c] += hit[:c]
    return intra, k


def _scores(g: Graph, assignments: np.ndarray) -> np.ndarray:
    """Exact int32 score S = 4m·intra - sum_c K_c^2 = 4m^2·Q of every row; |S| <= 4m^2 <= 17,424."""
    intra, k = _label_sums(g, assignments)
    s = np.multiply(intra, 4 * g.m, dtype=np.int32)
    square = np.empty_like(s)
    for k_c in k:
        s -= np.multiply(k_c, k_c, out=square, dtype=np.int32)
    return s


@dataclass(frozen=True)
class DegeneracyReport:
    """Near-optimal partition count against the exponential lower bound."""

    d: int
    n_le_d: int
    epsilon: float
    q_star: float
    degenerate_count: int  # partitions whose 4m^2 (Q* - Q) < fl(4m^2 epsilon)
    lower_bound: int  # 2 ** floor(n_le_d / (d + 1))
    statement_threshold: float  # d (2 + kbar) / (2m)
    proof_threshold: float  # C1 + C2

    def to_json_obj(self) -> dict:
        return asdict(self)


def degeneracy_thresholds(g: Graph, d: int) -> tuple[float, float]:
    """(statement threshold, proof threshold) for degree cutoff d.

    The statement-level tolerance is d(2 + kbar) / 2m. The proof-level
    tolerance adds the two constants from the counting argument:
    C1 = d(2 + kbar) / ((d + 1) kbar) bounds the summed single-move losses
    over an independent set of low-degree nodes, and
    C2 = d^2 / ((d + 1)^2 kbar^2) bounds the pairwise cross terms.
    """
    _check_options(d)
    _check_graph(g)
    kbar = g.avg_degree
    statement = d * (2.0 + kbar) / (2.0 * g.m)
    proof = d * (2.0 + kbar) / ((d + 1) * kbar) + d * d / ((d + 1) ** 2 * kbar * kbar)
    return statement, proof


def _degeneracy_reports(g: Graph, epsilons: Sequence[float], d: int) -> list[DegeneracyReport]:
    """One :class:`DegeneracyReport` per epsilon from one enumeration of a checked graph.

    A pass over :func:`_partition_blocks` counts every row's exact
    :func:`_scores` in a histogram of the 8m^2 + 1 levels, and the reports
    come from it alone. With top the largest score, q_star is top / 4m^2,
    correctly rounded, and a count is of the levels whose exact gap
    top - S is below epsilon·4m^2, a product rounded once. So a float
    epsilon that stands for a rational whose product with 4m^2 is a gap
    (0.4 for 2/5 at m = 5) leaves that gap's level out, as the rational does.

    Holds one block with its temporaries, about 1.9 MB at n = 12, and a
    few vectors of 8m^2 + 1 entries, at most 279 KB each (on K12).
    """
    if g.n > MAX_ENUMERATION_NODES:
        raise InputError(
            f"instance too large: exhaustive enumeration needs n <= {MAX_ENUMERATION_NODES}"
            f" (got n={g.n}); sampling-based estimation is out of scope"
        )
    scale = 4 * g.m * g.m
    hist = np.zeros(2 * scale + 1, dtype=np.int64)
    for block in _partition_blocks(g.n, _BLOCK_ROWS):
        s = _scores(g, block)
        s += scale  # each row's histogram bin, with no second int32 vector
        hist += np.bincount(s, minlength=len(hist))
    top = int(np.flatnonzero(hist)[-1]) - scale
    gaps = top - np.arange(-scale, scale + 1)
    counts = [int(hist[gaps < epsilon * scale].sum()) for epsilon in epsilons]
    q_star = top / scale
    n_le_d = sum(1 for k in g.degrees if k <= d)
    statement, proof = degeneracy_thresholds(g, d)
    return [
        DegeneracyReport(
            d=d,
            n_le_d=n_le_d,
            epsilon=float(epsilon),
            q_star=q_star,
            degenerate_count=count,
            lower_bound=2 ** (n_le_d // (d + 1)),
            statement_threshold=statement,
            proof_threshold=proof,
        )
        for epsilon, count in zip(epsilons, counts)
    ]


def enumerate_degeneracy(g: Graph, epsilon: float, d: int) -> DegeneracyReport:
    """Count partitions within epsilon of optimal modularity, exhaustively.

    Enumerates every set partition of the node set (labels irrelevant),
    records the optimum Q*, and counts partitions with Q* - Q < epsilon,
    by exact integer scores (see :func:`_degeneracy_reports`). Any graph
    with an edge and n <= 12 is accepted; it is simple by construction, so
    a loop record in the input changes no value. Costs one enumeration:
    the integer column passes of :func:`all_partition_assignments` and
    :func:`_scores` over Bell(n) rows, taken in blocks of at most
    ``_BLOCK_ROWS`` rows. It holds one block with its temporaries, about
    1.9 MB, whatever Bell(n) is.
    """
    _check_options(d, [epsilon])
    _check_graph(g)
    return _degeneracy_reports(g, [epsilon], d)[0]


# ---------------------------------------------------------------------------
# Empirical verification of the sparse-graph bounds
# ---------------------------------------------------------------------------


def single_move_bound(k_i: int, m: int) -> float:
    """Largest |Q change| a single move of a degree-k_i node can cause."""
    return 2.0 * k_i / m + k_i * k_i / (2.0 * m * m)


def pair_perturbation_bound(d: int, m: int) -> float:
    """Cap 4 d^2 / (2m)^2 on how much reassigning j can shift a non-adjacent i's sensitivity.

    Proof, for i in community S and j (not adjacent to i, degrees <= d)
    moved from community A to community B:

    1. j is not i's neighbour, so i's edge counts d_T into every community T
       (and d_S into its own) are unchanged.
    2. Only two degree sums change: K_A drops by k_j and K_B grows by k_j.
    3. Each move value dQ(i -> T) = (d_T - d_S)/m - 2 k_i (K_T - K_S + k_i)/(2m)^2
       therefore shifts by 2 k_i (dK_T - dK_S)/(2m)^2, which is at most
       4 k_i k_j / (2m)^2 in size, reached when {S, T} = {A, B}.
    4. An empty community stands in for the fresh-singleton target; moving
       i there is worth exactly 0 when i is alone, so the target sets before
       and after the move match one to one.
    5. A maximum of absolute values thus moves by at most
       4 k_i k_j / (2m)^2 <= 4 d^2 / (2m)^2.

    The bound is tight: on the path of 6 nodes, moving one end out of the
    single community shifts the other end's sensitivity by exactly 1/25.
    """
    return 4.0 * d * d / (2.0 * m) ** 2


def _test_partitions(g: Graph, seed: int) -> list[Partition]:
    """Deterministic partition battery: trivial extremes plus seeded random ones."""
    rng = np.random.default_rng(seed)
    partitions = [
        Partition(tuple([0] * g.n)),
        Partition(tuple(range(g.n))),
    ]
    for _ in range(_RANDOM_PARTITIONS):
        parts = int(rng.integers(2, max(3, g.n)))
        partitions.append(Partition(tuple(int(x) for x in rng.integers(0, parts, size=g.n))))
    return partitions


@dataclass(frozen=True)
class SparseBoundsReport:
    """Outcome of the empirical move-bound and degeneracy verification run."""

    d: int
    single_move_checks: int
    single_move_max_ratio: float
    single_move_violations: int
    pair_checks: int
    pair_max_excess: float  # max observed perturbation minus the proven bound
    pair_violations: int
    degeneracy: DegeneracyReport | None
    degeneracy_bound_holds: bool | None
    statement_count: int | None  # D at the statement-level threshold, for inspection

    @property
    def all_ok(self) -> bool:
        return (
            self.single_move_violations == 0
            and self.pair_violations == 0
            and self.degeneracy_bound_holds is not False
        )

    def to_json_obj(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def verify_sparse_bounds(g: Graph, d: int, seed: int = 0) -> SparseBoundsReport:
    """Empirically exercise the low-degree move bounds and the degeneracy bound.

    Three checks run over a deterministic battery of partitions:

    * every move of a node with degree <= d changes Q by at most
      2 k_i / m + k_i^2 / (2 m^2);
    * for every non-adjacent pair with degrees <= d, reassigning one node
      shifts the other's sensitivity by at most 4 d^2 / (2m)^2 (see
      :func:`pair_perturbation_bound` for the proof);
    * exhaustive enumeration at the proof-level tolerance finds at least
      2^floor(n_le_d / (d+1)) near-optimal partitions. This last check needs
      n <= 12 and rejects larger graphs before any move check. With
      d = 0 both tolerances collapse to zero and the bound 2^0 = 1 holds for
      any positive epsilon, so the enumeration is skipped as vacuous.

    The same enumeration, run before the battery, also counts partitions
    at the statement-level tolerance (``statement_count``), at the cost of
    :func:`enumerate_degeneracy`: one block and its temporaries.
    The battery is one pass over its partitions, summing each one's
    community degrees once: a single move then costs O(deg v), i's base
    sensitivity O(targets · deg i) once per partition, and a pair check
    O(n + targets · deg i). The graph needs an edge; it is simple by
    construction, so a loop record in the input changes no value.
    """
    _check_options(d, seed=seed)
    _check_graph(g)
    statement, proof_eps = degeneracy_thresholds(g, d)
    if proof_eps > 0:
        report, at_statement = _degeneracy_reports(g, [proof_eps, statement], d)
        statement_count = at_statement.degenerate_count
        holds: bool | None = report.degenerate_count >= report.lower_bound
    else:
        # d = 0 makes both tolerances zero; the bound 2^0 = 1 is vacuous.
        report = None
        statement_count = None
        holds = True

    low = [v for v in range(g.n) if g.degrees[v] <= d]
    flat, bounds = g._rows
    partners = {i: [j for j in low if j > i and j not in flat[bounds[i]:bounds[i + 1]]] for i in low}
    pair_bound = pair_perturbation_bound(d, g.m)
    move_checks = move_violations = pair_checks = pair_violations = 0
    move_max_ratio = 0.0
    pair_max_excess = float("-inf")
    for p in _test_partitions(g, seed):
        degree_sums = _community_degrees(g, p)
        for v in low:
            bound = single_move_bound(g.degrees[v], g.m)
            for target in _move_targets(p, v):
                observed = abs(_move_delta(g, p, v, target, degree_sums))
                move_checks += 1
                if bound > 0:
                    move_max_ratio = max(move_max_ratio, observed / bound)
                if observed > bound + _TOLERANCE:
                    move_violations += 1
        for i, js in partners.items():
            base, _ = _sensitivity(g, p, i, degree_sums)
            for j in js:
                for target in _move_targets(p, j):
                    moved_p = p.move(j, target)
                    moved, _ = _sensitivity(g, moved_p, i, _community_degrees(g, moved_p))
                    pair_checks += 1
                    excess = abs(base - moved) - pair_bound
                    pair_max_excess = max(pair_max_excess, excess)
                    if excess > _TOLERANCE:
                        pair_violations += 1
    if pair_checks == 0:
        pair_max_excess = 0.0

    return SparseBoundsReport(
        d=d,
        single_move_checks=move_checks,
        single_move_max_ratio=move_max_ratio,
        single_move_violations=move_violations,
        pair_checks=pair_checks,
        pair_max_excess=pair_max_excess,
        pair_violations=pair_violations,
        degeneracy=report,
        degeneracy_bound_holds=holds,
        statement_count=statement_count,
    )
