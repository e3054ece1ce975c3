"""Token accounting and round-robin token-constrained edge selection.

Leaf communities are visited cyclically from higher to lower levels, each
visit taking the community's next edge by rank (combined endpoint degree,
descending) if the remaining budget affords it. A community whose next edge
is unaffordable is retired rather than aborting the whole run, which keeps
the budget utilized; the total selected cost never exceeds the budget.
"""

from __future__ import annotations

import math
from collections import deque
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


def default_edge_costs(g: Graph, overhead: int = DEFAULT_EDGE_OVERHEAD) -> dict[tuple[int, int], int]:
    """Token cost per edge: both endpoint token counts plus a flat overhead.

    Keys are the (u, w) edges with u < w in sorted order, built from the
    adjacency lists so that the keys share their int objects with them.
    O(n + m).
    """
    if overhead < 0:
        raise ConfigError("edge overhead must be >= 0")
    tokens = [meta.token_count for meta in g.meta]
    return {
        (u, w): tokens[u] + tokens[w] + overhead
        for u, nbrs in enumerate(g.adj)
        for w in nbrs
        if u < w
    }


def _rank_key(g: Graph):
    degrees = g.degrees

    def key(edge: tuple[int, int]):
        u, w = edge
        return (-(degrees[u] + degrees[w]), u, w)

    return key


def _ranked_edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays (u < w) in rank order: combined endpoint degree descending, then u, then w.

    One ``np.lexsort`` over the edge arrays, O(m log m).
    """
    u, w = g.edge_arrays()
    degrees = np.array(g.degrees, dtype=np.int64)
    order = np.lexsort((w, u, -(degrees[u] + degrees[w])))
    return u[order], w[order]


def budget_from_edge_fraction(
    g: Graph, fraction: float, edge_costs: dict[tuple[int, int], int]
) -> int:
    """Token budget equal to the cost of the top ``fraction`` of ranked edges.

    The top ``floor(fraction * m)`` edges of the ranking are priced by
    looking each one up in ``edge_costs``. O(m log m).
    """
    if not 0 < fraction <= 1:
        raise ConfigError("edge fraction must be in (0, 1]")
    u, w = _ranked_edge_arrays(g)
    count = int(fraction * len(u) + 1e-9)
    return sum(map(edge_costs.__getitem__, zip(u[:count].tolist(), w[:count].tolist())))


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
    by the first leaf in visit order.
    """
    leaves = sorted(h.leaves(), key=lambda c: (-c.level, c.id))
    key = _rank_key(g)
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
        edges.sort(key=key)
        out.append((leaf.id, edges))
    return out


def round_robin_sample(
    h: Hierarchy,
    g: Graph,
    edge_costs: dict[tuple[int, int], int],
    budget: int,
) -> SampleResult:
    """Round-robin token-constrained selection over leaf communities."""
    if budget < 1:
        raise ConfigError("budget must be positive")
    if not h.clusters:
        raise InputError("hierarchy has no clusters")

    ranking = community_edge_ranking(g, h)
    queues: dict[int, deque] = {}
    retired: list[int] = []
    unaffordable: list[int] = []
    active: list[int] = []
    for cid, edges in ranking:
        if edges:
            queues[cid] = deque(edges)
            active.append(cid)
        else:
            retired.append(cid)

    selected: list[SelectedEdge] = []
    remaining = budget
    while active:
        survivors: list[int] = []
        for cid in active:
            queue = queues[cid]
            edge = queue[0]
            try:
                cost = edge_costs[edge]
            except KeyError:
                u, w = edge
                raise InputError(
                    f"missing token cost for edge {g.external_id(u)!r}-{g.external_id(w)!r}"
                ) from None
            if cost > remaining:
                retired.append(cid)
                unaffordable.append(cid)
                continue
            queue.popleft()
            selected.append(SelectedEdge(edge=edge, community=cid, cost=cost))
            remaining -= cost
            if queue:
                survivors.append(cid)
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
