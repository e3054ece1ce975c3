"""Post-processing passes that fold size-2 clusters into their neighbors.

Two modes share one loop: the basic pass collects only two-hop clusters of
size two, the extended pass additionally collects residual clusters of size
two. While eligible clusters remain, the one with the most distinct
neighbors inside the kept cluster set is merged into the kept leaf it shares
the most edges with; clusters with no such neighbors are promoted to stand
alone (and immediately become merge targets themselves). Hosts keep their
level and kind and may grow past the size cap; clusters of size three or
more are never touched.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from enum import Enum

from .errors import ConfigError
from .graph import Graph
from .hierarchy import Hierarchy, _add_host, _best_host, _host_map


class MergeMode(str, Enum):
    TWO_HOP_ONLY = "two_hop_only"
    RESIDUAL_AND_TWO_HOP = "residual_and_two_hop"

    @classmethod
    def parse(cls, text: str) -> "MergeMode":
        aliases = {
            "two_hop_only": cls.TWO_HOP_ONLY,
            "m2hc": cls.TWO_HOP_ONLY,
            "residual_and_two_hop": cls.RESIDUAL_AND_TWO_HOP,
            "mrc": cls.RESIDUAL_AND_TWO_HOP,
        }
        try:
            return aliases[text.lower()]
        except KeyError:
            raise ConfigError(f"unknown merge mode {text!r}") from None


_ELIGIBLE_KINDS = {
    MergeMode.TWO_HOP_ONLY: ("two_hop",),
    MergeMode.RESIDUAL_AND_TWO_HOP: ("two_hop", "residual"),
}


@dataclass
class MergeReport:
    """What happened to each eligible small cluster."""

    mode: MergeMode
    merged: list[tuple[int, int]] = field(default_factory=list)  # (small id, host id)
    promoted: list[int] = field(default_factory=list)
    clusters_before: int = 0
    clusters_after: int = 0
    # Members a merge found already present in its host (shared anchors);
    # the only way leaf node counts may shrink.
    deduplicated: int = 0

    def to_json_obj(self) -> dict:
        # Shallow: asdict would deep-copy every merged pair, about 30 ms at 5k merges.
        return dict(vars(self))


def merge_small_clusters(
    g: Graph, h: Hierarchy, mode: MergeMode = MergeMode.TWO_HOP_ONLY
) -> tuple[Hierarchy, MergeReport]:
    """Merge eligible size-2 leaf clusters of ``h`` into neighboring leaves, in place; return ``(h, report)``.

    ``h`` itself is changed and returned: merged clusters leave its cluster
    map and leaf registry, their hosts' member lists grow, and attached
    singletons follow their cluster. Merge a ``copy.deepcopy(h)`` to keep
    the original. Merge targets are leaf clusters only; folding a leaf
    into an internal cluster would pull its nodes out of the leaf level
    entirely. Neighbor counts are re-evaluated against the kept set as it
    grows, and all ties break toward the smallest cluster id.

    Cost: O(k m log m) when a node lies in at most k leaves (1 without
    shared anchors): a node's adjacency is scanned when it is first covered
    and twice per small cluster holding it, each step reads up to k cluster
    ids and may push onto the heap. A merge unlinks the small cluster from
    its parent's c children in O(c), and inserts each new node into its
    host's member list, in time linear in the host's size; the new nodes
    are the small's members that the host map does not place in the host.
    Memory: the kept leaves' host map (``hierarchy._host_map``), 8 bytes
    per node of ``g`` plus a dict entry and a list per node in several
    leaves; the small clusters by member and the attached singletons by
    owner, O(s + a) for s small clusters and a attached singletons; no
    cluster is copied.
    """
    mode = MergeMode(mode)
    report = MergeReport(mode=mode, clusters_before=len(h.clusters))

    eligible_kinds = _ELIGIBLE_KINDS[mode]
    leaf_ids = [c.id for c in h.leaves()]
    small_ids = [
        cid
        for cid in leaf_ids
        if h.clusters[cid].kind in eligible_kinds and len(h.clusters[cid].members) == 2
    ]
    small_set = set(small_ids)

    # The hosts of each node covered by the kept cluster set; shared anchor
    # members have several.
    first, more = _host_map(g.n, (h.clusters[cid] for cid in leaf_ids if cid not in small_set))

    member_of_small: dict[int, list[int]] = {}
    for cid in small_ids:
        for v in h.clusters[cid].members:
            member_of_small.setdefault(v, []).append(cid)

    attached_by_cluster: dict[int, list[int]] = {}
    for v, owner in h.attached_singletons.items():
        attached_by_cluster.setdefault(owner, []).append(v)

    flat, bounds = g._rows

    def covered_neighbor_count(cid: int) -> int:
        members = h.clusters[cid].members
        hits = {
            w for v in members for w in flat[bounds[v]:bounds[v + 1]] if first[w] is not None and w not in members
        }
        return len(hits)

    counts = {cid: covered_neighbor_count(cid) for cid in small_ids}
    heap = [(-counts[cid], cid) for cid in small_ids]
    heapq.heapify(heap)

    def mark_covered(nodes, host_id: int) -> None:
        """Record new coverage of ``nodes``, ascending, and bump the neighbor counts of touched smalls."""
        for v in nodes:
            first_time = first[v] is None
            _add_host(first, more, v, host_id)
            if not first_time:
                continue
            bumped: set[int] = set()
            for w in flat[bounds[v]:bounds[v + 1]]:
                for sid in member_of_small.get(w, ()):
                    if sid in small_set and v not in h.clusters[sid].members:
                        bumped.add(sid)
            for sid in bumped:
                counts[sid] += 1
                heapq.heappush(heap, (-counts[sid], sid))

    while small_set:
        neg, cid = heapq.heappop(heap)
        if cid not in small_set or counts[cid] != -neg:
            continue
        small_set.discard(cid)
        small = h.clusters[cid]

        best = _best_host(g, small.members, first, more)
        if best is not None:
            host = h.clusters[best]
            new_nodes = [v for v in small.members if first[v] != best and best not in more.get(v, ())]
            report.deduplicated += len(small.members) - len(new_nodes)
            for v in new_nodes:
                insort(host.members, v)
            if small.parent is not None:
                h.clusters[small.parent].children.remove(cid)
            del h.clusters[cid]
            h.leaf_ids.discard(cid)
            for v in attached_by_cluster.pop(cid, ()):
                h.attached_singletons[v] = best
                attached_by_cluster.setdefault(best, []).append(v)
            mark_covered(new_nodes, best)
            report.merged.append((cid, best))
        else:
            mark_covered(small.members, cid)
            report.promoted.append(cid)

    report.clusters_after = len(h.clusters)
    h.max_level = max(c.level for c in h.clusters.values())
    return h, report
