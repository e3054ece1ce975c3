"""Core decomposition by level-synchronous peeling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _gather_rows


@dataclass(frozen=True)
class CoreDecomposition:
    """Core numbers for every node, and the maximum core."""

    core: list[int]
    max_core: int


#: Frontiers of at least this many nodes are peeled in one vectorized step;
#: smaller ones node by node, where a step's fixed NumPy overhead would cost
#: more than the work. This also bounds the vectorized steps by n / 64.
_MIN_BATCH = 64


def core_numbers(g: Graph) -> CoreDecomposition:
    """Compute every node's core number by peeling minimum-degree nodes.

    The core number of v is the largest k such that v lies in a subgraph of
    minimum degree >= k. Level k starts at the smallest remaining degree and
    peels every node whose remaining degree is <= k, then every node that
    drops to k as its neighbours go; each of them has core number k. The
    peeling reads the graph's CSR arrays directly, with no copy. A frontier
    of at least ``_MIN_BATCH`` nodes is peeled at once in NumPy, whose
    access pattern stays cache-friendly as graphs grow; a smaller one node
    by node, each reading its slice of ``g.indices``. The result does not
    depend on peeling order. Cost: every node is peeled once and every edge
    is scanned once from each end, O(m log m) with the sort that merges a
    frontier's hits, plus one O(n) scan per level (there are at most
    sqrt(2m) + 1 levels); a node peeled alone costs about 1 us of NumPy
    slicing on top of its edges. Isolated nodes get core 0. Any graph is
    accepted: it is simple and has a node by construction.
    """
    n = g.n
    indptr, indices = g.indptr, g.indices
    deg = np.diff(indptr)
    # A peeled node leaves ``alive`` when it joins a frontier; its degree is
    # then frozen at the level, which is its core number. Alive nodes keep
    # degrees above the level.
    alive = np.ones(n, dtype=bool)
    while True:
        rest = np.flatnonzero(alive)
        if not len(rest):
            break
        k = int(deg[rest].min())
        frontier = rest[deg[rest] <= k]
        alive[frontier] = False
        while len(frontier):
            if len(frontier) >= _MIN_BATCH:
                nbrs = _gather_rows(g, frontier)[0]
                hit, times = np.unique(nbrs[alive[nbrs]], return_counts=True)
                lowered = np.maximum(deg[hit] - times, k)
                deg[hit] = lowered
                frontier = hit[lowered == k]
                alive[frontier] = False
            else:
                stack = frontier.tolist()
                while stack and len(stack) < _MIN_BATCH:
                    v = stack.pop()
                    for u in indices[indptr[v] : indptr[v + 1]].tolist():
                        if alive[u]:
                            du = deg[u] - 1
                            deg[u] = du
                            if du == k:
                                alive[u] = False
                                stack.append(u)
                frontier = np.array(stack, dtype=np.int64)

    core = deg.tolist()
    return CoreDecomposition(core=core, max_core=max(core))
