"""Token accounting and round-robin token-constrained edge selection.

Leaf communities are visited cyclically from higher to lower levels, each
visit taking the community's next edge by rank (combined endpoint degree,
descending) if the remaining budget affords it. A community whose next edge
is unaffordable is retired rather than aborting the whole run, which keeps
the budget utilized; the total selected cost never exceeds the budget.

An edge costs both endpoint token counts plus a flat overhead. That rule
is written once, in ``_edge_prices``, and no table of edge costs is kept.
The work is array work: one ranking of all edges, computed once per graph
and shared by the budget and the sample, one join that finds the
leaf owning each edge, one sort of the picks into visit order, and one
cumulative sum that finds where the budget first binds. Python loops run
only over the picks from that point on.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import ConfigError, InputError
from .graph import _CHUNK, Graph, _stable_order
from .hierarchy import Hierarchy

#: Flat token cost added per edge on top of both endpoint token counts,
#: standing in for the relation text an edge contributes to a summary.
DEFAULT_EDGE_OVERHEAD = 8

#: Characters per token of a node's text when no token count is given.
DEFAULT_CHARS_PER_TOKEN = 4.0


@dataclass(frozen=True)
class TokenModel:
    """Deterministic token estimator used when explicit counts are absent."""

    chars_per_token: float = DEFAULT_CHARS_PER_TOKEN

    def __post_init__(self) -> None:
        if not 0 < self.chars_per_token < math.inf:
            raise ConfigError("chars per token must be finite and positive")

    def estimate(self, text: str) -> int:
        """Token estimate for a text: ceil(len/chars_per_token), >= 1 if nonempty.

        A quotient past float range is taken exactly, from the integer
        ratio of ``chars_per_token``.
        """
        if not text:
            return 0
        quotient = len(text) / self.chars_per_token
        if quotient == math.inf:
            num, den = self.chars_per_token.as_integer_ratio()
            return -(-len(text) * den // num)
        return max(1, math.ceil(quotient))


def derive_max_cluster_size(token_limit: int, g: Graph) -> int:
    """Cluster size cap from a context window: limit over mean tokens per node.

    Computed in exact integer arithmetic as floor(limit * n / total_tokens),
    clamped below at 2. Cost: O(n) to sum the ``g.tokens`` column.
    """
    if token_limit < 1:
        raise ConfigError("token limit must be positive")
    total = sum(g.tokens)
    if total == 0:
        raise ConfigError(
            "cannot derive max cluster size: every node has zero tokens; "
            "provide token counts or texts, or set the size explicitly"
        )
    return max(2, (token_limit * g.n) // total)


def _edge_prices(g: Graph, u: np.ndarray, w: np.ndarray, overhead: int) -> np.ndarray:
    """Price of each edge (u[i], w[i]): both endpoint token counts plus ``overhead``.

    The one place the price rule is written. The prices are int64 when
    max(len(u), 1) * (2 * max tokens + overhead) < 2**63, so that neither a
    price nor any sum of them passes 2**63 - 1; otherwise they are an object
    array of exact Python ints. O(n + len(u)).
    """
    if overhead < 0:
        raise ConfigError("edge overhead must be >= 0")
    tokens = g.tokens
    exact = max(len(u), 1) * (2 * max(tokens) + overhead) < 2**63
    table = np.array(tokens, dtype=np.int64 if exact else object)
    return table[u] + table[w] + overhead


def default_edge_costs(g: Graph, edges: Iterable[tuple[int, int]], overhead: int = DEFAULT_EDGE_OVERHEAD) -> list[int]:
    """Token cost of each edge: both endpoint token counts plus a flat overhead.

    Costs are exact ints in the order of ``edges``; none can overflow.
    O(n + len(edges)), the pairs read into one array and priced at once.
    """
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    return _edge_prices(g, ends[0::2], ends[1::2], overhead).tolist()


def _ranked_edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays (u < w) in rank order: combined endpoint degree descending, then u, then w.

    ``g.edge_arrays()`` is already in (u, w) order, so one stable sort of
    each edge's gap below the largest degree sum sets the rank: O(n + m)
    when every degree sum is below 65536, O(m log m) otherwise. The ranked
    arrays are int32, like ``g.indices``, so a product of a node id that
    can pass 2**31 must be widened to int64 first. Each temporary is freed
    at its last use: once the int64 key is made, the edge arrays are
    narrowed to int32, so the sort holds them, the key, its copy narrowed
    for the sort and the int64 order, 26 to 32 bytes per edge. The graph is
    immutable, so the ranking is computed once per graph and kept in
    ``g._ranking``; the arrays are read-only, and later calls are O(1).
    """
    if g._ranking is None:
        u, w = g.edge_arrays()
        degrees = np.diff(g.indptr)
        key = degrees[u]
        key += degrees[w]
        del degrees
        u = u.astype(np.int32)
        w = w.astype(np.int32)
        top = int(key.max(initial=0))
        np.subtract(top, key, out=key)
        order = _stable_order(key, top)
        del key
        u = u[order]
        w = w[order]
        del order
        u.flags.writeable = w.flags.writeable = False
        g._ranking = u, w
    return g._ranking


def budget_from_edge_fraction(g: Graph, fraction: float, overhead: int = DEFAULT_EDGE_OVERHEAD) -> int:
    """Token budget equal to the cost of the top ``fraction`` of ranked edges.

    The top ``floor(fraction * m)`` edges of the ranking are priced by the
    rule of :func:`default_edge_costs` and summed exactly. O(n + m) array
    work, plus the ranking's sort on the graph's first ranking.
    """
    if not 0 < fraction <= 1:
        raise ConfigError("edge fraction must be in (0, 1]")
    u, w = _ranked_edge_arrays(g)
    count = int(fraction * len(u) + 1e-9)
    return int(_edge_prices(g, u[:count], w[:count], overhead).sum())


def _int64_or_exact(values: list[int]) -> np.ndarray:
    """``values`` as int64 when every one fits, else as an object array of the exact ints."""
    fits = not values or (-(2**63) <= min(values) and max(values) < 2**63)
    return np.array(values, dtype=np.int64 if fits else object)


@dataclass(eq=False)
class SampleResult:
    """Ordered picks, as parallel arrays, with the per-community stop reasons.

    Pick i is the edge (``sources[i]``, ``targets[i]``), taken for the leaf
    community ``communities[i]`` at price ``costs[i]``. ``sources`` and
    ``targets`` are int32 node ids, like the ranking. ``communities`` is
    int64 when every leaf id fits, and ``costs`` when no sum of prices can
    pass int64 (the rule of ``_edge_prices``); otherwise each is an object
    array of exact ints. So the four columns take 24 bytes per pick when
    every value fits. ``retired`` and
    ``unaffordable`` are lists of cluster ids. Equality is identity:
    compare two results column by column, for example with
    ``np.array_equal``.
    """

    sources: np.ndarray
    targets: np.ndarray
    communities: np.ndarray
    costs: np.ndarray
    total_tokens: int
    retired: list[int]  # every community, in stop order (exhausted or priced out)
    budget: int
    unaffordable: list[int] = field(default_factory=list)  # subset stopped by budget


def community_edge_ranking(g: Graph, h: Hierarchy) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Leaf communities in visit order and the edges each one owns, in rank order.

    Returns ``(leaf_ids, owner, u, w)``. Visit order is level descending,
    then cluster id ascending, and ``leaf_ids[p]`` is the leaf at visit
    position p. Edge (u[i], w[i]) belongs to the leaf at position
    ``owner[i]``; ``owner`` is nondecreasing and each leaf's edges follow
    the rank of :func:`_ranked_edge_arrays`, and ``u`` and ``w`` are int32
    like the ranking. An edge internal to several leaves (shared anchors
    make that possible) is owned by the first leaf in visit order.

    Leaf memberships are encoded as sorted int64 keys node * L + position
    for L leaves. For each ranked edge and each membership p of u, in
    ascending order, one ``np.searchsorted`` looks up w * L + p, widened to
    int64 before the product; the first hit is the owner. The lookups run
    over ``_CHUNK`` ranked edges at a time, as ingest's join does. A stable
    argsort by owner then groups the owned edges. Cost: the ranking (free
    once the graph has been ranked), plus O(n + M log M + m' log M) for M
    memberships and m' lookups (one per ranked edge and leaf holding u),
    plus a stable sort of the owned edges by owner, O(m) for fewer than
    65536 leaves. Memory: the M keys and two int64 arrays of n entries,
    O(_CHUNK k) transient per chunk when a node is in at most k leaves, and
    a few arrays of one entry per owned edge, the result among them.
    """
    visit = sorted(h.leaves(), key=lambda c: (-c.level, c.id))
    leaf_ids = [leaf.id for leaf in visit]
    count = len(visit)
    if not count:
        none = np.zeros(0, dtype=np.int32)
        return leaf_ids, np.zeros(0, dtype=np.int64), none, none
    u, w = _ranked_edge_arrays(g)
    sizes = [len(leaf.members) for leaf in visit]
    keys = np.fromiter(chain.from_iterable(leaf.members for leaf in visit), dtype=np.int64, count=sum(sizes))
    keys *= count
    keys += np.repeat(np.arange(count), sizes)
    keys.sort()
    held = np.bincount(keys // count, minlength=g.n)  # leaves holding each node
    first = np.cumsum(held) - held  # each node's first key
    owned, owners = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, len(u), _CHUNK):
        # One lookup per (edge, leaf holding u), grouped by edge, leaves ascending.
        cu = u[lo:lo + _CHUNK]
        tries = held[cu]
        edge = np.repeat(np.arange(len(cu)), tries)
        slot = np.repeat(first[cu] - (np.cumsum(tries) - tries), tries)
        slot += np.arange(len(edge))
        wanted = np.multiply(w[lo:lo + _CHUNK][edge], count, dtype=np.int64)
        wanted += keys[slot] % count
        del slot
        found = np.searchsorted(keys, wanted)
        np.minimum(found, len(keys) - 1, out=found)
        hit = keys[found] == wanted
        del found
        edge, position = edge[hit], wanted[hit] % count
        firsts = np.ones(len(edge), dtype=bool)
        np.not_equal(edge[1:], edge[:-1], out=firsts[1:])
        owned.append(edge[firsts] + lo)
        owners.append(position[firsts])
    edge, position = np.concatenate(owned), np.concatenate(owners)
    del owned, owners
    group = _stable_order(position, count - 1)
    edge = edge[group]
    position = position[group]
    del group
    return leaf_ids, position, u[edge], w[edge]


def round_robin_sample(h: Hierarchy, g: Graph, budget: int, overhead: int = DEFAULT_EDGE_OVERHEAD) -> SampleResult:
    """Round-robin token-constrained selection over leaf communities.

    Edges are priced by the rule of :func:`default_edge_costs` with
    ``overhead``; a budget of 0 picks only edges that cost 0. A leaf's
    i-th edge is visited in round i, so one sort by (round, visit
    position) gives the visit order of every owned edge, and every visit
    before the first cumulative price above the budget is a pick, taken at
    once. From that visit on, a sequential loop runs the rest, each visit a
    pick or a retirement. Cost: :func:`community_edge_ranking`, plus
    O(n + k) array work for the k owned edges (O(k log k) when a leaf owns
    65536 edges or more), plus O(L + t) Python steps for L leaves and the
    t visits after the budget first binds. Memory: beside the ranking and
    the result, at most six arrays of one entry per owned edge at once:
    ``owner``, ``u``, ``w``, the visit order, and two of the rounds, their
    narrowed copy, the prices and their running sum, each array freed at
    its last use. The result's columns are gathered from ``u``, ``w``, the
    prices and the leaf ids by visit position, 24 bytes per pick when
    every value fits in int64; the t sequential visits add two short lists
    of picks, concatenated onto the columns once.
    """
    if budget < 0:
        raise ConfigError("budget must be >= 0")
    if not h.clusters:
        raise InputError("hierarchy has no clusters")

    leaf_ids, owner, u, w = community_edge_ranking(g, h)
    counts = np.bincount(owner, minlength=len(leaf_ids))
    starts = np.cumsum(counts) - counts
    rounds = np.arange(len(owner)) - starts[owner]
    # The edges come grouped by visit position, so a stable sort by round
    # orders them by (round, visit position): the order of the visits.
    order = _stable_order(rounds, int(counts.max(initial=0)))
    del rounds
    prices = _edge_prices(g, u, w, overhead)
    paid = prices[order]
    np.cumsum(paid, out=paid)
    if not len(paid) or budget >= int(paid[-1]):
        taken = len(order)
    else:
        taken = int(np.searchsorted(paid, budget, side="right"))
    remaining = budget - (int(paid[taken - 1]) if taken else 0)
    del paid
    refused = taken < len(order)
    if refused:  # the first visit the budget refuses: round ``round_`` of the leaf at ``position``
        edge = int(order[taken])
        position = int(owner[edge])
        round_ = edge - int(starts[position])
    picks = order[:taken]
    leaf = owner[picks]
    del owner
    # A pick is its leaf's last edge when it is the last of the leaf's run.
    exhausted = leaf[picks == (starts + counts - 1)[leaf]]
    sources, targets, costs = u[picks], w[picks], prices[picks]
    del picks, order
    names = _int64_or_exact(leaf_ids)
    communities = names[leaf]
    del leaf
    # Leaves without edges retire first, every other one at its last pick.
    retired = [leaf_ids[p] for p in np.concatenate((np.flatnonzero(counts == 0), exhausted)).tolist()]
    del exhausted
    unaffordable: list[int] = []

    if refused:
        # Visit by visit from the first pick the budget refuses. Every visit
        # before it was a pick, so this round still visits the leaves from
        # its position on that own more than ``round_`` edges, and the
        # leaves before it that own another edge open the next round. The
        # loop's picks, as edge indices and visit positions, are gathered
        # onto the columns once it ends.
        counts, starts = counts.tolist(), starts.tolist()
        current = [p for p in range(position, len(leaf_ids)) if counts[p] > round_]
        upcoming = [p for p in range(position) if counts[p] > round_ + 1]
        edges: list[int] = []
        positions: list[int] = []
        while current:
            for p in current:
                i = starts[p] + round_
                cost = int(prices[i])
                if cost > remaining:
                    retired.append(leaf_ids[p])
                    unaffordable.append(leaf_ids[p])
                    continue
                edges.append(i)
                positions.append(p)
                remaining -= cost
                if counts[p] > round_ + 1:
                    upcoming.append(p)
                else:
                    retired.append(leaf_ids[p])
            current, upcoming, round_ = upcoming, [], round_ + 1
        more = np.array(edges, dtype=np.intp)
        sources = np.concatenate((sources, u[more]))
        targets = np.concatenate((targets, w[more]))
        costs = np.concatenate((costs, prices[more]))
        communities = np.concatenate((communities, names[np.array(positions, dtype=np.intp)]))

    return SampleResult(
        sources=sources,
        targets=targets,
        communities=communities,
        costs=costs,
        total_tokens=budget - remaining,
        retired=retired,
        budget=budget,
        unaffordable=unaffordable,
    )
