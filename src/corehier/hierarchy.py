"""Residual-aware k-core hierarchy construction.

The builder walks core levels 1..K_m. At each level every queued cluster is
split into its core part (core number >= level) and residual part; connected
components of the core part become child clusters and re-enter the queue,
components of the residual part become leaf clusters. Oversized components
are broken up by greedy seed growth. Singleton clusters produced at a level
are pooled, grouped by 2-hop reachability in the full graph, and either
emitted as two-hop clusters or parked as global singletons, which are
attached to neighboring leaves once the level loop ends. The components of
every level are labelled once, before the level loop, by one sweep down the
core levels; 2-hop groups are labelled per level by the same labeller.
Every choice breaks ties by smallest internal id, so the result is fully
deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .cores import core_numbers
from .errors import ConfigError, InputError, VerificationError
from .graph import Graph, _component_labels, _gather_rows, _stable_order, is_connected

CLUSTER_KINDS = ("root", "core", "residual", "two_hop")


@dataclass(slots=True)
class Cluster:
    """One node set in the hierarchy.

    ``members`` is an ascending list of node ids without repeats; the
    constructor sorts whatever iterable it is given, so pass a set when it
    may repeat a node. Built from the graph's shared node ints, a member
    costs one 8-byte list slot, against ~60-120 bytes per entry of a small
    set. ``anchors`` records members pulled in as shared anchors during
    two-hop splitting; they belong to other clusters as well, so size and
    nesting checks treat them separately.
    """

    id: int
    members: list[int]
    level: int
    kind: str
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    anchors: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        self.members = sorted(self.members)


@dataclass
class Hierarchy:
    """All clusters of one build, the leaf registry and where singletons were attached.

    Each cluster's ``members`` is an ascending list (see :class:`Cluster`):
    ~8 bytes per member entry beyond each list's fixed 56 bytes.
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


def _grow(order, remaining: bytearray, ids: list[int], max_size: int, absorb):
    """Cut the flagged nodes into greedy clusters of at most ``max_size`` nodes; yield each as it closes.

    Each cluster starts from the first node of ``order`` still flagged in
    ``remaining``, then keeps absorbing the flagged node with the highest
    count, ties to the smallest id; absorbed nodes are unflagged. The heap
    holds plain ints ``v - c * n`` for node v at count c (n = ``len(ids)``),
    so its smallest key is the highest count, then the smallest id.
    ``absorb(v, heap)`` is called for every absorbed node but the one that
    fills the cluster: it raises the counts that v adds to and pushes their
    new keys. Counts only rise within a cluster, so a node's current key
    comes out before its stale ones, which are skipped once it is absorbed.

    Yields ``(grown, heap)`` per cluster: the members in absorption order,
    as ``ids`` entries, and the keys never popped, so the caller can reset
    the counts its cluster raised before the next one starts. Cost:
    O(|order|), plus O(log H) to pop each key pushed into a heap of at most
    H keys, plus the ``absorb`` calls.
    """
    n = len(ids)
    pop = heapq.heappop
    for seed in order:
        if not remaining[seed]:
            continue
        grown: list[int] = []
        heap = [seed]
        while heap:
            v = pop(heap) % n
            if remaining[v]:
                remaining[v] = 0
                grown.append(ids[v])
                if len(grown) == max_size:
                    break
                absorb(v, heap)
        yield grown, heap


def split_component(g: Graph, members, max_size: int) -> list[list[int]]:
    """Partition a connected node set into clusters of at most ``max_size``.

    Each cluster grows greedily (see :func:`_grow`) from the highest-degree
    unassigned seed, repeatedly absorbing the frontier node with the most
    neighbors already inside, so reachable nodes are never stranded. Ties
    everywhere go to the smallest id. Sets of size <= max_size come back
    whole. Every member returned is the graph's own int (``g._ids``).

    Seeds of degree 2 or more grow first. Every member of higher degree is
    taken by the time the first degree-1 seed comes up, so a degree-1 member
    left then is stranded unless its one neighbour is left too (an isolated
    edge, only in a disconnected graph). When none is, the members left
    (degree 1, then degree 0, each in id order) come back as one-member
    parts in one array step, without passing through the grower.

    State is flat and node-indexed: a ``bytearray`` of remaining flags and
    a list of counts, which each cluster resets through the keys left in
    its heap. Cost: O(n) to set up the state for the graph's n nodes, one
    O(k log k) sort of the k members by (degree descending, id), and
    O(log e) per adjacency entry of the grown members, e entries in all;
    the node that fills a cluster is not scanned, and a stranded member
    costs O(1) array work and its one-member list.
    """
    n, ids, (flat, bounds) = g.n, g._ids, g._rows
    remaining = bytearray(n)
    for v in members:
        remaining[v] = 1
    left = np.frombuffer(remaining, dtype=np.uint8)  # a view: it follows the grower's writes
    nodes = np.flatnonzero(left)
    if len(nodes) <= max_size:
        return [list(map(ids.__getitem__, nodes.tolist()))]
    degree = np.diff(g.indptr)[nodes]
    nodes = nodes[np.lexsort((nodes, -degree))]
    head = int(np.count_nonzero(degree >= 2))
    del degree
    count = [0] * n
    push = heapq.heappush

    def absorb(v: int, heap: list[int]) -> None:
        for w in flat[bounds[v]:bounds[v + 1]]:
            if remaining[w]:
                c = count[w] + 1
                count[w] = c
                push(heap, w - c * n)

    out: list[list[int]] = []

    def grow(order: np.ndarray) -> None:
        # ids entries: the loop keeps 8 bytes per node in order, not 40 for new ints
        for grown, heap in _grow(list(map(ids.__getitem__, order.tolist())), remaining, ids, max_size, absorb):
            for key in heap:  # every remaining node whose count rose has a key here
                count[key % n] = 0
            grown.sort()
            out.append(grown)

    grow(nodes[:head])
    tail = nodes[head:]
    tail = tail[left[tail] == 1]  # the members of degree 1 or 0 that no cluster took
    starts = g.indptr[tail]
    partners = g.indices[starts[g.indptr[tail + 1] > starts]]  # each degree-1 member's one neighbour
    if left[partners].any():  # an isolated edge, whose two ends grow together
        grow(tail)
    else:
        out += [[v] for v in map(ids.__getitem__, tail.tolist())]
    return out


def _two_hop_split_parts(g: Graph, pool, max_size: int) -> list[tuple[list[int], list[int]]]:
    """Split an oversized 2-hop group into (grown members, qualifying anchors) pairs.

    Anchors are the outside neighbors of the pool. Clusters grow (see
    :func:`_grow`) from the seed with the largest anchor set, preferring the
    candidate whose anchor sets overlap the grown cluster's the most;
    afterwards every anchor adjacent to at least two grown members is
    attached to the cluster. Every node returned is the graph's own int
    (``g._ids``).

    A candidate's overlap is the sum, over its anchors a, of k_a, the number
    of grown members that hold a, so each cluster keeps one counter per
    anchor. The free members that hold a alone all score k_a, and the
    smallest of them is their best: each raise of k_a pushes one key, for
    that member. Only members with several anchors keep explicit counts,
    raised by a walk over those members of a. Cost: O(n) to flag the pool
    among the graph's n nodes, O(p log p + d) for p pool nodes with d
    adjacency entries, and O(log H) per key pushed: one per anchor entry of
    an absorbed node, plus one per free member walked, where each raise of
    k_a walks a's members with several anchors. A pool whose members each
    have one anchor, such as a hub's pendants, costs O(p + d) pushes.
    """
    n, ids, (flat, bounds) = g.n, g._ids, g._rows
    nodes = sorted(set(pool))
    remaining = bytearray(n)
    for u in nodes:
        remaining[u] = 1
    anchors_of: dict[int, list[int]] = {}
    singles: dict[int, list[int]] = {}  # anchor -> members that hold it alone, descending
    multis: dict[int, list[int]] = {}  # anchor -> members that hold it among others
    for u in reversed(nodes):
        anchors_of[u] = anchors = [a for a in flat[bounds[u]:bounds[u + 1]] if not remaining[a]]
        if len(anchors) == 1:
            singles.setdefault(anchors[0], []).append(u)
        else:
            for a in anchors:
                multis.setdefault(a, []).append(u)
    k: dict[int, int] = {}  # per cluster: anchor -> grown members holding it
    score: dict[int, int] = {}  # per cluster: multi-anchor member -> overlap
    push = heapq.heappush

    def absorb(v: int, heap: list[int]) -> None:
        for a in anchors_of[v]:
            k[a] = c = k.get(a, 0) + 1
            free = singles.get(a)
            while free and not remaining[free[-1]]:
                free.pop()
            if free:
                push(heap, free[-1] - c * n)
            for w in multis.get(a, ()):
                if remaining[w]:
                    score[w] = s = score.get(w, 0) + 1
                    push(heap, w - s * n)

    order = sorted(nodes, key=lambda u: -len(anchors_of[u]))  # stable: ties stay in id order
    out: list[tuple[list[int], list[int]]] = []
    for grown, _ in _grow(order, remaining, ids, max_size, absorb):
        k.clear()
        score.clear()
        counts = Counter(a for u in grown for a in anchors_of[u])
        out.append((sorted(grown), sorted(a for a, c in counts.items() if c >= 2)))
    return out


def _two_hop_groups(g: Graph, nodes: np.ndarray) -> list[list[int]]:
    """``nodes`` (ascending) grouped by 2-hop reachability in ``g``: each group ascending, as ``g._ids`` entries.

    Two nodes of ``nodes`` share a group when a chain of steps joins them,
    each step between two of them that are adjacent or share a neighbour.
    One labelling of their own CSR rows finds the groups: every node is
    linked to each of its neighbours, so a chain between two of them
    passes other nodes only as shared neighbours. Each group is named by
    its smallest member, and the groups come in the order of their names.
    Cost: for p nodes with d adjacency entries among the graph's n nodes,
    O(n + d) array work, the labelling rounds, and one stable sort of p
    keys below n (see :func:`~corehier.graph._stable_order`).
    """
    nbrs, counts = _gather_rows(g, nodes)
    root = _component_labels(g.n, np.repeat(nodes, counts), nbrs)[nodes]
    name = np.full(g.n, g.n)
    np.minimum.at(name, root, nodes)  # a label may be a neighbour outside nodes
    keys = name[root]
    order = _stable_order(keys, g.n)
    heads = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    members = list(map(g._ids.__getitem__, nodes[order].tolist()))
    return list(map(members.__getitem__, map(slice, heads, heads[1:] + [len(members)])))


def _common_ancestor(parent_ids: list[int | None], clusters: dict[int, Cluster]) -> int | None:
    """Deepest cluster that is an ancestor-or-self of every given parent id; None if they share none.

    A parent is created before its children and so has the smaller id: the
    largest id left is an ancestor of no other one, so it is replaced by its
    parent until one id is left or a root's parent (None) comes up.
    """
    ids = set(parent_ids)
    while len(ids) > 1 and None not in ids:
        top = max(ids)
        ids.remove(top)
        ids.add(clusters[top].parent)
    return ids.pop() if len(ids) == 1 else None


def _nested_labels(g: Graph, queued: np.ndarray, rank_of: np.ndarray, core_of: np.ndarray, top: int):
    """Label the components of every level 2..``top`` of the level-1 parts at once.

    ``queued`` lists the nodes of the queued level-1 parts, ``rank_of``
    gives each node's part (-1 outside them) and ``core_of`` its core
    number, ``top`` the largest. A cluster queued at level L is a component
    of its part's nodes of core >= L - 1 (or the part itself), so its
    residual side is its nodes of core L - 1, and the sides' components
    at L are those of the whole part on core L - 1 and on core >= L: a path
    inside the part on either side stays inside every cluster above it.

    Returns ``(residual, by_level, pos)``. ``residual`` labels every node
    with the smallest node of its component under the edges inside a part
    whose ends share a core number: one labelling gives the residual side
    of every level. For the core sides, the inside edges are ordered once
    by descending smaller core number, and a top-down sweep adds those of
    level L and continues the labelling over the nodes of core >= L only.
    ``by_level[L]`` holds the labels of those nodes as int32, in the order
    of ``queued`` sorted by descending core, where node v sits at
    ``pos[v]``. Every label is its component's smallest node.

    Cost: O(n + m) array work and one stable sort on a narrow key, plus the
    labelling rounds. The sweep hands each edge over once, and it
    pointer-jumps only the n_L queued nodes of core >= L at level L; the
    n_L sum to at most 2m, and so do the stored labels.
    """
    eu, ew = g.edge_arrays()
    inside = rank_of[eu] == rank_of[ew]
    inside &= rank_of[eu] >= 0
    eu = eu[inside]
    ew = ew[inside]
    del inside
    lo, hi = core_of[eu], core_of[ew]
    same = lo == hi
    residual = _component_labels(g.n, eu[same], ew[same])
    del same
    np.minimum(lo, hi, out=lo)
    del hi
    # Edges of level top first; those of level 1 come last and are cut off.
    edge_count = np.bincount(lo, minlength=top + 1)
    edge_end = np.cumsum(edge_count[::-1])
    order = _stable_order(top - lo, top)[:len(lo) - edge_count[:2].sum()]
    del lo
    eu = eu[order]
    ew = ew[order]
    del order
    by_core = queued[_stable_order(top - core_of[queued], top)]
    pos = np.empty(g.n, dtype=np.intp)
    pos[by_core] = np.arange(len(by_core))
    node_end = np.cumsum(np.bincount(core_of[queued], minlength=top + 1)[::-1])
    label = np.arange(g.n)
    by_level: list[np.ndarray | None] = [None] * (top + 1)
    for level in range(top, 1, -1):
        stop = edge_end[top - level]
        active = by_core[:node_end[top - level]]
        _component_labels(g.n, eu[stop - edge_count[level]:stop], ew[stop - edge_count[level]:stop], label, active)
        by_level[level] = label[active].astype(np.int32)
    return residual, by_level, pos


def build_hierarchy(g: Graph, max_cluster_size: int, core: list[int] | None = None) -> Hierarchy:
    """Build the full residual-aware core hierarchy of a preprocessed graph.

    Requires a connected graph, such as the output of
    :func:`largest_connected_component`, and raises :class:`InputError`
    otherwise; :func:`is_connected` reads the record that function leaves,
    so its output is not labelled again. ``max_cluster_size`` caps every
    cluster produced by the splitting paths. Singleton attachment has no
    size bound, and neither has merging
    (:func:`~corehier.merging.merge_small_clusters`), so a leaf may end up
    well past the cap.
    ``core`` takes the graph's core numbers when the caller has them
    already (``core_numbers(g).core``); otherwise they are computed here.
    A graph of one node has no edge, so its node has core 0; the result is
    one root at level 1 over that node, which is also its one leaf. Every
    other root, and every core cluster, has members of core at least its
    level.

    Cost: level 1 is one :func:`split_component` of the graph. Then
    :func:`_nested_labels` labels the components of every later level at
    once, handing each edge to the labeller at most twice: O(n + m) array
    work plus the labelling rounds. Each later level only sorts the q
    nodes still queued by (cluster, side, stored label), O(q log q), with
    O(1) Python work per component, plus the pooling (see
    ``pool_singletons``). A node is queued at no more levels than its core
    number, so the q sum to at most 2m over all levels.
    """
    if max_cluster_size < 2:
        raise ConfigError("max cluster size must be at least 2")
    if not is_connected(g):
        raise InputError("hierarchy input must be connected; extract the largest component first")

    if core is None:
        core = core_numbers(g).core
    elif len(core) != g.n:
        raise InputError(f"core numbers given for {len(core)} nodes; the graph has {g.n}")
    top = max(core)
    core_of = np.asarray(core, dtype=np.min_scalar_type(top))

    clusters: dict[int, Cluster] = {}
    counter = itertools.count()
    global_singletons: set[int] = set()
    # Clusters whose members all dissolved into a singleton pool; they stay
    # in the tree but are not retrieval leaves (their content is covered by
    # two-hop groups and attachment hosts instead).
    dissolved: set[int] = set()
    all_nodes = g._ids  # the int objects g._rows holds, so member lists add none

    def new_cluster(members: list[int], level, kind, parent, anchors=frozenset()) -> Cluster:
        # members is ascending: Cluster's sort is linear, and its copy keeps all_nodes out of every cluster
        cid = next(counter)
        cluster = Cluster(cid, members, level, kind, parent, [], frozenset(anchors))
        clusters[cid] = cluster
        if parent is not None:
            clusters[parent].children.append(cid)
        return cluster

    def pool_singletons(level: int, nodes: np.ndarray, parent_of: dict[int, int] | None) -> None:
        """Group this level's singleton clusters, ``nodes`` in ascending order, by 2-hop reachability.

        ``parent_of`` maps each pooled node to the cluster it was split off;
        it is None at level 1, where no pooled node has one. Two pooled
        nodes belong together when they are adjacent or share a neighbor in
        the full graph (see :func:`_two_hop_groups`). Groups of one go to
        the global singleton set; larger groups become two-hop clusters,
        split when oversized. A group identical to an existing cluster is a
        duplicate: it is not re-created, and the clusters covering its
        nodes stay leaves.

        Cost: that of :func:`_two_hop_groups` for p pooled nodes with d
        adjacency entries, and O(1) Python work per group plus, above level
        1, a :func:`_common_ancestor` search for its parent; at level 1 the
        parent is None and nothing is searched.
        """
        if not len(nodes):
            return
        for group in _two_hop_groups(g, nodes):
            if len(group) == 1:
                global_singletons.add(group[0])
                continue
            if len(group) <= max_cluster_size:
                parent = None if parent_of is None else _common_ancestor([parent_of[v] for v in group], clusters)
                if parent is not None and group == clusters[parent].members:
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
                    parent = None if parent_of is None else _common_ancestor([parent_of[v] for v in grown], clusters)
                    new_cluster(sorted(grown + anchors), level, "two_hop", parent, anchors)

    # Level 1: after preprocessing every node has degree >= 1, so the whole
    # graph is the 1-core and the residual side is empty. Its parts fit the
    # size cap and children are subsets, so later levels never split for size.
    # A graph of one node has no edge: its node has core 0, and it makes one
    # root at level 1, which is also the hierarchy's one leaf.
    queue: list[int] = []
    rank_of = np.full(g.n, -1)  # queue position of each node's cluster; -1 outside the queue
    if g.n == 1:
        new_cluster(all_nodes, 1, "root", None)
    else:
        # The parts and the nodes in them end to end; one-member parts go to
        # the pool in one array step, the others become queued roots.
        parts = split_component(g, all_nodes, max_cluster_size)
        lengths = np.fromiter(map(len, parts), dtype=np.intp, count=len(parts))
        flat = np.fromiter(itertools.chain.from_iterable(parts), dtype=np.intp, count=g.n)
        kept = lengths > 1
        rank_of[flat] = np.repeat(np.where(kept, np.cumsum(kept) - 1, -1), lengths)
        queue = [new_cluster(part, 1, "root", None).id for part in itertools.compress(parts, kept.tolist())]
        pool_singletons(1, np.sort(flat[np.cumsum(lengths)[~kept] - 1]), None)
        del parts, flat
    # The queued nodes, ascending within each cluster.
    nodes = np.flatnonzero(rank_of >= 0)
    residual_label, by_level, pos = _nested_labels(g, nodes, rank_of, core_of, top)
    for level in range(2, top + 1):
        # Tag each queued node 2 * queue position + (residual side) and sort
        # by (tag, smallest member of its side's component): components come
        # in creation order, each in ascending node order.
        core_side = core_of[nodes] >= level
        label = residual_label[nodes]
        label[core_side] = by_level[level][pos[nodes[core_side]]]
        by_level[level] = None
        keys = (2 * rank_of[nodes] + ~core_side) * g.n + label
        order = np.argsort(keys, kind="stable")
        nodes, keys = nodes[order], keys[order]
        heads = np.flatnonzero(np.diff(keys, prepend=-1))
        lengths = np.diff(heads, append=len(nodes))
        tags = keys[heads] // g.n
        # A run that is its cluster's only run leaves the cluster whole. All
        # core, the cluster survives at this level: the would-be duplicate
        # child collapses and the cluster records the deeper level. All
        # residual (a uniform shell), it simply stays a leaf. Only the other
        # runs need their members. first[i]: run i starts its cluster (and
        # first[-1], past the last run, is set), so run i is whole when run
        # i + 1 starts the next cluster.
        first = np.diff(tags >> 1, prepend=-1, append=len(queue)) != 0
        whole = first[:-1] & first[1:]
        members = list(map(all_nodes.__getitem__, nodes[np.repeat(~whole, lengths)].tolist()))
        next_queue: list[int] = []
        pooled: list[tuple[int, int]] = []
        at = 0
        for tag, length, is_whole in zip(tags.tolist(), lengths.tolist(), whole.tolist()):
            cid, is_residual = queue[tag >> 1], tag & 1
            if is_whole:
                if not is_residual:
                    clusters[cid].level = level
                    next_queue.append(cid)
                continue
            part = members[at:at + length]
            at += length
            if length == 1:
                pooled.append((part[0], cid))
            else:
                cluster = new_cluster(part, level, "residual" if is_residual else "core", cid)
                if not is_residual:
                    next_queue.append(cluster.id)
        requeued = ((tags & 1) == 0) & (lengths > 1)
        rank_of[nodes] = np.repeat(np.where(requeued, np.cumsum(requeued) - 1, -1), lengths)
        # A split cluster whose members all went to the pool is interior
        # bookkeeping unless the pool hands it back.
        dissolved.update(cid for _, cid in pooled if not clusters[cid].children)
        parent_of = dict(pooled)
        pool_singletons(level, np.array(sorted(parent_of), dtype=np.intp), parent_of)
        nodes = nodes[rank_of[nodes] >= 0]
        queue = next_queue
    del nodes, rank_of, residual_label, by_level, pos

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


def _host_map(n: int, clusters) -> tuple[list[int | None], dict[int, list[int]]]:
    """Which of ``clusters`` hold each of the n nodes, as ``(first, more)``; see :func:`_add_host`.

    ``first[v]`` is the id of the first cluster found holding v, None when
    none does; ``more[v]`` lists the others, only for the nodes that several
    clusters hold (shared anchors). Memory: 8 bytes per node, plus a dict
    entry and a list for each node with more than one host, not a dict entry
    and a list for every node. O(n + M) for M member entries.
    """
    first: list[int | None] = [None] * n
    more: dict[int, list[int]] = {}
    for c in clusters:
        for v in c.members:
            _add_host(first, more, v, c.id)
    return first, more


def _add_host(first: list[int | None], more: dict[int, list[int]], v: int, host: int) -> None:
    """Record in the host map ``(first, more)`` that cluster ``host`` holds node v."""
    if first[v] is None:
        first[v] = host
    else:
        more.setdefault(v, []).append(host)


def _best_host(g: Graph, nodes, first: list[int | None], more: dict[int, list[int]]) -> int | None:
    """The host that shares the most edges with ``nodes``, ties to the smallest id; None if none does.

    The hosts are the host map ``(first, more)`` of :func:`_host_map`. An
    edge from a node of ``nodes`` to a node w outside them counts once for
    each host of w. Cost: O(e k) for the e adjacency entries of ``nodes``
    when a node has at most k hosts: one list read per entry, and one dict
    lookup per entry whose node has a host.
    """
    flat, bounds = g._rows
    counts: dict[int, int] = {}  # a plain loop: a Counter per call made attachment ~30% slower
    for v in nodes:
        for w in flat[bounds[v]:bounds[v + 1]]:
            hid = first[w]
            if hid is None or w in nodes:
                continue
            counts[hid] = counts.get(hid, 0) + 1
            if w in more:
                for hid in more[w]:
                    counts[hid] = counts.get(hid, 0) + 1
    return min(counts, key=lambda hid: (-counts[hid], hid), default=None)


def _attach_global_singletons(g: Graph, h: Hierarchy, singletons: set[int]) -> None:
    """Fold every parked singleton into the neighboring leaf that knows it best.

    Target: the leaf holding the most of the singleton's neighbors, ties to
    the smallest cluster id (see :func:`_best_host`). Attachment can chain (a
    singleton may only reach the graph through another one), so passes
    repeat until stable. A singleton with one neighbour w that has at most
    one host takes w's host (or waits for the next pass when w has none)
    without a :func:`_best_host` call, which would pick the same. A
    singleton already in its target (a shared anchor there) is recorded as
    attached but not listed twice; its host map entry still gains the target
    once more, so every later :func:`_best_host` counts an edge to it twice
    for that leaf. The leaves' host map (:func:`_host_map`) takes 8 bytes
    per node of ``g``, plus an entry per node in several leaves; every
    attached singleton is added to it. Cost: one pass over the leaf
    members, plus O(1) per singleton and pass with one neighbour of at most
    one host, one :func:`_best_host` per other singleton and pass, and a
    binary search and an O(k) list insert per singleton whose target has k
    members.
    """
    if not singletons:
        return
    first, more = _host_map(g.n, h.leaves())
    flat, bounds = g._rows
    remaining = sorted(singletons)
    while remaining:
        deferred: list[int] = []
        for v in remaining:
            lo = bounds[v]
            if bounds[v + 1] - lo == 1 and flat[lo] not in more:
                best = first[flat[lo]]
            else:
                best = _best_host(g, (v,), first, more)
            if best is None:
                deferred.append(v)
                continue
            members = h.clusters[best].members
            i = bisect_left(members, v)
            if i == len(members) or members[i] != v:
                members.insert(i, v)
            h.attached_singletons[v] = best
            _add_host(first, more, v, best)
        if len(deferred) == len(remaining):
            raise VerificationError(
                f"could not attach singletons {deferred}; graph should be connected"
            )
        remaining = deferred
