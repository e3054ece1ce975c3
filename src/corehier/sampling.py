"""Token accounting and round-robin token-constrained edge selection.

Leaf communities are visited cyclically from higher to lower levels, each
visit taking the community's next edge by rank (combined endpoint degree,
descending) if the remaining budget affords it. A community whose next edge
is unaffordable is retired rather than aborting the whole run, which keeps
the budget utilized; the total selected cost never exceeds the budget.

An edge costs both endpoint token counts plus a flat overhead; that rule
is applied where a price is needed, and no table of edge costs is kept.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .graph import Graph
from .hierarchy import Hierarchy

#: Flat token cost added per edge on top of both endpoint token counts,
#: standing in for the relation text an edge contributes to a summary.
DEFAULT_EDGE_OVERHEAD = 8


@dataclass(frozen=True)
class TokenModel:
    """Deterministic token estimator used when explicit counts are absent."""

    chars_per_token: float = 4.0

    def __post_init__(self) -> None:
        if not 0 < self.chars_per_token < math.inf:
            raise ConfigError("chars per token must be finite and positive")

    def estimate(self, text: str) -> int:
        """Token estimate for a text: ceil(len/chars_per_token), >= 1 if nonempty."""
        if not text:
            return 0
        return max(1, math.ceil(len(text) / self.chars_per_token))


def derive_max_cluster_size(token_limit: int, g: Graph) -> int:
    """Cluster size cap from a context window: limit over mean tokens per node.

    Computed in exact integer arithmetic as floor(limit * n / total_tokens),
    clamped below at 2.
    """
    if token_limit < 1:
        raise ConfigError("token limit must be positive")
    if g.n == 0:
        raise InputError("cannot derive a cluster size for an empty graph")
    total = sum(meta.token_count for meta in g.meta)
    if total == 0:
        raise ConfigError(
            "cannot derive max cluster size: every node has zero tokens; "
            "provide token counts or texts, or set the size explicitly"
        )
    return max(2, (token_limit * g.n) // total)


def default_edge_costs(g: Graph, edges: Iterable[tuple[int, int]], overhead: int = DEFAULT_EDGE_OVERHEAD) -> list[int]:
    """Token cost of each edge: both endpoint token counts plus a flat overhead.

    The one place the price rule is written. Costs are exact ints in the
    order of ``edges``; none can overflow. O(n + len(edges)).
    """
    if overhead < 0:
        raise ConfigError("edge overhead must be >= 0")
    tokens = [meta.token_count for meta in g.meta]
    return [tokens[u] + tokens[w] + overhead for u, w in edges]


def _ranked_edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays (u < w) in rank order: combined endpoint degree descending, then u, then w.

    One ``np.lexsort`` over the edge arrays, O(m log m).
    """
    u, w = g.edge_arrays()
    degrees = np.array(g.degrees, dtype=np.int64)
    order = np.lexsort((w, u, -(degrees[u] + degrees[w])))
    return u[order], w[order]


def budget_from_edge_fraction(g: Graph, fraction: float, overhead: int = DEFAULT_EDGE_OVERHEAD) -> int:
    """Token budget equal to the cost of the top ``fraction`` of ranked edges.

    The top ``floor(fraction * m)`` edges of the ranking are priced by
    :func:`default_edge_costs`. O(n + m log m), the ranking's sort dominating.
    """
    if not 0 < fraction <= 1:
        raise ConfigError("edge fraction must be in (0, 1]")
    u, w = _ranked_edge_arrays(g)
    count = int(fraction * len(u) + 1e-9)
    return sum(default_edge_costs(g, zip(u[:count].tolist(), w[:count].tolist()), overhead))


@dataclass(frozen=True)
class SelectedEdge:
    edge: tuple[int, int]
    community: int
    cost: int


@dataclass
class SampleResult:
    """Ordered pick list with the per-community stop reasons."""

    selected: list[SelectedEdge]
    total_tokens: int
    retired: list[int]  # every community, in stop order (exhausted or priced out)
    budget: int
    unaffordable: list[int] = field(default_factory=list)  # subset stopped by budget

    def edges_by_community(self) -> dict[int, list[tuple[int, int]]]:
        out: dict[int, list[tuple[int, int]]] = {}
        for pick in self.selected:
            out.setdefault(pick.community, []).append(pick.edge)
        return out


def community_edge_ranking(g: Graph, h: Hierarchy) -> list[tuple[int, list[tuple[int, int]]]]:
    """Leaf communities in visit order with their ranked internal edges.

    Visit order is level descending, then cluster id ascending. An edge
    internal to several leaves (shared anchors make that possible) is owned
    by the first leaf in visit order. Each leaf sorts its s members, scans
    their adjacency lists (vol entries) and sorts its edges by rank:
    O(sum over leaves of s log s + vol) + O(m log m).
    """
    leaves = sorted(h.leaves(), key=lambda c: (-c.level, c.id))
    degrees = g.degrees
    claimed: set[tuple[int, int]] = set()
    out = []
    for leaf in leaves:
        members = leaf.members
        edges = []
        for u in sorted(members):
            for w in g.adj[u]:
                if u < w and w in members:
                    e = (u, w)
                    if e not in claimed:
                        claimed.add(e)
                        edges.append(e)
        edges.sort(key=lambda e: (-(degrees[e[0]] + degrees[e[1]]), e[0], e[1]))
        out.append((leaf.id, edges))
    return out


def round_robin_sample(h: Hierarchy, g: Graph, budget: int, overhead: int = DEFAULT_EDGE_OVERHEAD) -> SampleResult:
    """Round-robin token-constrained selection over leaf communities.

    Edges are priced by :func:`default_edge_costs` with ``overhead``; a
    budget of 0 picks only edges that cost 0. Costs
    :func:`community_edge_ranking` plus O(n + L + k) for L leaves and k
    owned edges, as each visit picks an edge or retires a leaf.
    """
    if budget < 0:
        raise ConfigError("budget must be >= 0")
    if not h.clusters:
        raise InputError("hierarchy has no clusters")

    ranking = community_edge_ranking(g, h)
    costs = iter(default_edge_costs(g, (e for _, edges in ranking for e in edges), overhead))
    retired: list[int] = []
    unaffordable: list[int] = []
    active: list[tuple[int, deque]] = []
    for cid, edges in ranking:
        if edges:
            # zip stops at the end of ``edges``, so it takes exactly their costs
            active.append((cid, deque(zip(edges, costs))))
        else:
            retired.append(cid)

    selected: list[SelectedEdge] = []
    remaining = budget
    while active:
        survivors: list[tuple[int, deque]] = []
        for cid, queue in active:
            edge, cost = queue[0]
            if cost > remaining:
                retired.append(cid)
                unaffordable.append(cid)
                continue
            queue.popleft()
            selected.append(SelectedEdge(edge=edge, community=cid, cost=cost))
            remaining -= cost
            if queue:
                survivors.append((cid, queue))
            else:
                retired.append(cid)
        active = survivors

    return SampleResult(
        selected=selected,
        total_tokens=budget - remaining,
        retired=retired,
        budget=budget,
        unaffordable=unaffordable,
    )
