"""Residual-aware k-core hierarchy construction.

The builder walks core levels 1..K_m. At each level every queued cluster is
split into its core part (core number >= level) and residual part; connected
components of the core part become child clusters and re-enter the queue,
components of the residual part become leaf clusters. Oversized components
are broken up by greedy seed growth. Singleton clusters produced at a level
are pooled, grouped by 2-hop reachability in the full graph, and either
emitted as two-hop clusters or parked as global singletons, which are
attached to neighboring leaves once the level loop ends. Every choice
breaks ties by smallest internal id, so the result is fully deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

from .cores import core_numbers
from .errors import ConfigError, InputError, VerificationError
from .graph import Graph, is_connected

CLUSTER_KINDS = ("root", "core", "residual", "two_hop")


@dataclass
class Cluster:
    """One node set in the hierarchy.

    ``anchors`` records members pulled in as shared anchors during two-hop
    splitting; they belong to other clusters as well, so size and nesting
    checks treat them separately.
    """

    id: int
    members: set[int]
    level: int
    kind: str
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    anchors: frozenset[int] = frozenset()

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


@dataclass
class Hierarchy:
    """All clusters of one build, the leaf registry and where singletons were attached.

    ``leaf_ids`` is the authoritative retrieval-leaf registry. It is not
    simply the childless clusters: a cluster whose members all dissolved
    into singleton pools is interior bookkeeping (its content lives on in
    two-hop groups and attachment hosts), and merging removes absorbed
    clusters from the registry without promoting their parents.
    """

    clusters: dict[int, Cluster]
    roots: list[int]
    attached_singletons: dict[int, int]  # node -> cluster that absorbed it
    max_level: int
    max_cluster_size: int
    leaf_ids: set[int] = field(default_factory=set)

    def is_leaf(self, cid: int) -> bool:
        return cid in self.leaf_ids

    def leaves(self) -> list[Cluster]:
        return [self.clusters[cid] for cid in sorted(self.leaf_ids)]

    def covered_nodes(self) -> set[int]:
        covered: set[int] = set()
        for leaf in self.leaves():
            covered |= leaf.members
        return covered


def split_component(g: Graph, members, max_size: int) -> list[list[int]]:
    """Partition a connected node set into clusters of at most ``max_size``.

    Each cluster grows greedily from the highest-degree unassigned seed,
    repeatedly absorbing the frontier node with the most neighbors already
    inside. The frontier accumulates (frontier union N(v)) minus the grown
    set, so reachable nodes are never stranded. Ties everywhere go to the
    smallest id. Sets of size <= max_size come back unchanged.
    """
    remaining = set(members)
    if len(remaining) <= max_size:
        return [sorted(remaining)]
    seed_order = sorted(remaining, key=lambda v: (-g.degrees[v], v))
    out: list[list[int]] = []
    for seed in seed_order:
        if seed not in remaining:
            continue
        remaining.discard(seed)
        grown = [seed]
        conn: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        for w in g.adj[seed]:
            if w in remaining:
                conn[w] = conn.get(w, 0) + 1
                heapq.heappush(heap, (-conn[w], w))
        while len(grown) < max_size and heap:
            neg, v = heapq.heappop(heap)
            if v not in remaining or conn.get(v) != -neg:
                continue  # stale heap entry
            remaining.discard(v)
            grown.append(v)
            for w in g.adj[v]:
                if w in remaining:
                    conn[w] = conn.get(w, 0) + 1
                    heapq.heappush(heap, (-conn[w], w))
        out.append(sorted(grown))
    return out


def _two_hop_split_parts(g: Graph, pool, max_size: int) -> list[tuple[list[int], list[int]]]:
    """Split an oversized 2-hop group; yields (grown members, qualifying anchors).

    Anchors are the outside neighbors of the pool. Clusters grow from the
    seed with the largest anchor set, preferring the candidate whose anchor
    sets overlap the grown cluster's the most; afterwards every anchor
    adjacent to at least two grown members is attached to the cluster.
    """
    pool_sorted = sorted(pool)
    pool_set = set(pool_sorted)
    anchor_set = {w for u in pool_sorted for w in g.adj[u]} - pool_set
    anchors_of = {u: frozenset(anchor_set.intersection(g.adj[u])) for u in pool_sorted}
    sharing: dict[int, list[int]] = {}
    for u in pool_sorted:
        for a in anchors_of[u]:
            sharing.setdefault(a, []).append(u)

    remaining = set(pool_sorted)
    out: list[tuple[list[int], list[int]]] = []
    while remaining:
        seed = min(remaining, key=lambda u: (-len(anchors_of[u]), u))
        remaining.discard(seed)
        grown = [seed]
        score: dict[int, int] = {}
        heap: list[tuple[int, int]] = []

        def absorb(u: int) -> None:
            touched: set[int] = set()
            for a in anchors_of[u]:
                touched.update(sharing[a])
            for v in touched:
                if v in remaining:
                    score[v] = score.get(v, 0) + len(anchors_of[v] & anchors_of[u])
                    heapq.heappush(heap, (-score[v], v))

        absorb(seed)
        while len(grown) < max_size and heap:
            neg, v = heapq.heappop(heap)
            if v not in remaining or score.get(v) != -neg:
                continue
            remaining.discard(v)
            grown.append(v)
            absorb(v)
        grown.sort()
        grown_set = set(grown)
        counts: dict[int, int] = {}
        for u in grown:
            for w in g.adj[u]:
                if w in anchor_set:
                    counts[w] = counts.get(w, 0) + 1
        qualifying = sorted(a for a, c in counts.items() if c >= 2 and a not in grown_set)
        out.append((grown, qualifying))
    return out


def _subset_components(g: Graph, nodes: list[int]) -> list[list[int]]:
    """Connected components of the induced subgraph, ordered by smallest member."""
    in_set = set(nodes)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        dq = deque([start])
        while dq:
            u = dq.popleft()
            for w in g.adj[u]:
                if w in in_set and w not in seen:
                    seen.add(w)
                    comp.append(w)
                    dq.append(w)
        comps.append(sorted(comp))
    return comps


def _common_ancestor(parent_ids: list[int | None], clusters: dict[int, Cluster]) -> int | None:
    """Deepest cluster that is an ancestor-or-self of every given parent id."""
    unique = set(parent_ids)
    if len(unique) == 1:
        return parent_ids[0]
    if None in unique:
        return None
    chains: list[list[int]] = []
    for pid in sorted(unique):  # type: ignore[arg-type]
        chain = []
        cur: int | None = pid
        while cur is not None:
            chain.append(cur)
            cur = clusters[cur].parent
        chains.append(chain)
    common = set(chains[0])
    for chain in chains[1:]:
        common &= set(chain)
    if not common:
        return None
    for cid in chains[0]:  # deepest first
        if cid in common:
            return cid
    return None


def build_hierarchy(g: Graph, max_cluster_size: int, core: list[int] | None = None) -> Hierarchy:
    """Build the full residual-aware core hierarchy of a preprocessed graph.

    Requires the output of :func:`largest_connected_component`: connected and
    free of self-loops. ``max_cluster_size`` caps every cluster produced by
    the splitting paths; singleton attachment may push a leaf one past it.
    ``core`` takes the graph's core numbers when the caller has them
    already (``core_numbers(g).core``); otherwise they are computed here.
    """
    if max_cluster_size < 2:
        raise ConfigError("max cluster size must be at least 2")
    if g.n == 0:
        raise InputError("empty graph")
    if g.self_loops:
        raise InputError("hierarchy input must have self-loops removed")
    if not is_connected(g):
        raise InputError("hierarchy input must be connected; extract the largest component first")

    if core is None:
        core = core_numbers(g).core
    elif len(core) != g.n:
        raise InputError(f"core numbers given for {len(core)} nodes; the graph has {g.n}")
    max_core = max(core)

    clusters: dict[int, Cluster] = {}
    counter = itertools.count()
    global_singletons: set[int] = set()
    # Clusters whose members all dissolved into a singleton pool; they stay
    # in the tree but are not retrieval leaves (their content is covered by
    # two-hop groups and attachment hosts instead).
    dissolved: set[int] = set()

    def new_cluster(members, level, kind, parent, anchors=frozenset()) -> Cluster:
        cid = next(counter)
        cluster = Cluster(cid, set(members), level, kind, parent, [], frozenset(anchors))
        clusters[cid] = cluster
        if parent is not None:
            clusters[parent].children.append(cid)
        return cluster

    def pool_singletons(level: int, pooled: list[tuple[int, int | None]]) -> None:
        """Group this level's singleton clusters by 2-hop reachability.

        Two pooled nodes belong together when they are adjacent or share a
        neighbor in the full graph. Groups of one go to the global singleton
        set; larger groups become two-hop clusters, split when oversized.
        A group identical to an existing cluster is a duplicate: it is not
        re-created, and the clusters covering its nodes stay leaves.
        """
        if not pooled:
            return
        pooled = sorted(pooled)
        parent_of = dict(pooled)
        nodes = [v for v, _ in pooled]
        node_set = set(nodes)

        uf_parent = {v: v for v in nodes}

        def find(x: int) -> int:
            while uf_parent[x] != x:
                uf_parent[x] = uf_parent[uf_parent[x]]
                x = uf_parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                uf_parent[rb] = ra

        bucket_owner: dict[int, int] = {}
        for v in nodes:
            for w in g.adj[v]:
                if w in node_set:
                    union(v, w)
                owner = bucket_owner.get(w)
                if owner is None:
                    bucket_owner[w] = v
                else:
                    union(v, owner)

        groups: dict[int, list[int]] = {}
        for v in nodes:
            groups.setdefault(find(v), []).append(v)
        for root in sorted(groups):
            group = sorted(groups[root])
            if len(group) == 1:
                global_singletons.add(group[0])
                continue
            if len(group) <= max_cluster_size:
                parent = _common_ancestor([parent_of[v] for v in group], clusters)
                if parent is not None and set(group) == clusters[parent].members:
                    # Duplicate of an existing cluster: collapse. The origin
                    # clusters (necessarily childless) keep covering the nodes.
                    for v in group:
                        origin = parent_of[v]
                        if origin is not None:
                            dissolved.discard(origin)
                    continue
                new_cluster(group, level, "two_hop", parent)
            else:
                for grown, anchors in _two_hop_split_parts(g, group, max_cluster_size):
                    parent = _common_ancestor([parent_of[v] for v in grown], clusters)
                    new_cluster(set(grown) | set(anchors), level, "two_hop", parent, anchors)

    # Level 1: after preprocessing every node has degree >= 1, so the whole
    # graph is the 1-core and the residual side is empty.
    all_nodes = list(range(g.n))
    queue: list[int] = []
    if g.n == 1:
        new_cluster(all_nodes, 1, "root", None)
    else:
        pooled: list[tuple[int, int | None]] = []
        for part in ([all_nodes] if g.n <= max_cluster_size else split_component(g, all_nodes, max_cluster_size)):
            if len(part) == 1:
                pooled.append((part[0], None))
            else:
                queue.append(new_cluster(part, 1, "root", None).id)
        pool_singletons(1, pooled)

    for level in range(2, max_core + 1):
        next_queue: list[int] = []
        pooled = []
        for cid in queue:
            cluster = clusters[cid]
            members = cluster.sorted_members()
            core_side = [v for v in members if core[v] >= level]
            if len(core_side) == len(members):
                # The whole cluster survives at this level; collapse the
                # would-be duplicate child and record the deeper level.
                cluster.level = level
                next_queue.append(cid)
                continue
            if not core_side:
                # Uniform shell: the residual copy would duplicate the
                # cluster, so it simply stays a leaf at its own level.
                continue
            residual_side = [v for v in members if core[v] < level]
            made_children = False
            for side, kind in ((core_side, "core"), (residual_side, "residual")):
                for comp in _subset_components(g, side):
                    parts = [comp] if len(comp) <= max_cluster_size else split_component(g, comp, max_cluster_size)
                    for part in parts:
                        if len(part) == 1:
                            pooled.append((part[0], cid))
                            continue
                        child = new_cluster(part, level, kind, cid)
                        made_children = True
                        if kind == "core":
                            next_queue.append(child.id)
            if not made_children:
                # Every member dissolved into the singleton pool; the cluster
                # is interior bookkeeping unless the pool hands it back.
                dissolved.add(cid)
        pool_singletons(level, pooled)
        queue = next_queue

    hierarchy = Hierarchy(
        clusters=clusters,
        roots=[cid for cid, c in sorted(clusters.items()) if c.parent is None and c.kind == "root"],
        attached_singletons={},
        max_level=max(c.level for c in clusters.values()),
        max_cluster_size=max_cluster_size,
        leaf_ids={cid for cid, c in clusters.items() if not c.children and cid not in dissolved},
    )
    _attach_global_singletons(g, hierarchy, global_singletons)
    return hierarchy


def _attach_global_singletons(g: Graph, h: Hierarchy, singletons: set[int]) -> None:
    """Fold every parked singleton into the neighboring leaf that knows it best.

    Target: the leaf holding the most of the singleton's neighbors, ties to
    the smallest cluster id. Attachment can chain (a singleton may only
    reach the graph through another one), so passes repeat until stable.
    """
    if not singletons:
        return
    node_leaves: dict[int, list[int]] = {}  # anchors sit in several leaves
    for leaf in h.leaves():
        for v in leaf.members:
            node_leaves.setdefault(v, []).append(leaf.id)
    remaining = sorted(singletons)
    while remaining:
        progressed = False
        deferred: list[int] = []
        for v in remaining:
            counts: dict[int, int] = {}
            for w in g.adj[v]:
                for leaf_id in node_leaves.get(w, ()):
                    counts[leaf_id] = counts.get(leaf_id, 0) + 1
            if not counts:
                deferred.append(v)
                continue
            best = min(counts, key=lambda cid: (-counts[cid], cid))
            h.clusters[best].members.add(v)
            h.attached_singletons[v] = best
            node_leaves.setdefault(v, []).append(best)
            progressed = True
        if not progressed:
            raise VerificationError(
                f"could not attach singletons {deferred}; graph should be connected"
            )
        remaining = deferred
