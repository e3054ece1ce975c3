"""Shared builders, oracles, and invariant checkers for the test suite."""

from __future__ import annotations

import gc
import heapq
import tracemalloc
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest

from corehier.cores import core_numbers
from corehier.graph import Graph, NodeMeta, load_graph
from corehier.errors import VerificationError
from corehier.fileio import edges_to_tsv, nodes_to_jsonl
from corehier.hierarchy import CLUSTER_KINDS, Hierarchy, _two_hop_split_parts
from corehier.merging import _ELIGIBLE_KINDS, MergeMode, MergeReport
from corehier.sampling import DEFAULT_EDGE_OVERHEAD, SampleResult


def make_graph(edges, names=None, tokens=None) -> Graph:
    """Graph from external-id edge pairs; tokens maps name -> token count."""
    if names is None:
        names = sorted({x for e in edges for x in e})
    tokens = tokens or {}
    nodes = [NodeMeta(external_id=nm, token_count=tokens.get(nm, 0)) for nm in names]
    return load_graph(edges, nodes)


def write_edges_tsv(path, records) -> None:
    """Write ``(src, dst)`` name pairs as an edge file, one ``src<TAB>dst`` line each."""
    Path(path).write_text(edges_to_tsv(records), encoding="utf-8")


def write_nodes_jsonl(path, records) -> None:
    """Write :class:`NodeMeta` records as a node file in the layout ``gen-fixture`` writes."""
    Path(path).write_text(nodes_to_jsonl(records), encoding="utf-8")


def planted_block_records(seed=5, blocks=24, size=50, links=1500, density=(0.05, 0.5)):
    """Dense blocks of rising density joined by random links; max core 19 by default.

    Block b draws each of its internal pairs with a probability spread
    evenly over ``density``; external ids are a seeded shuffle, so blocks
    are not contiguous in id order. ``links`` random pairs join different
    blocks (pairs within one block are dropped). Tokens are uniform in
    [10, 120]. A few blocks of ~100 nodes at density up to 0.9 give a core
    past 60.
    """
    rng = np.random.default_rng(seed)
    n = blocks * size
    names = [f"e{i:05d}" for i in rng.permutation(n)]
    iu, ju = np.triu_indices(size, 1)
    edges = []
    for b, p in enumerate(np.linspace(*density, blocks)):
        keep = rng.random(len(iu)) < p
        edges += [(names[b * size + i], names[b * size + j])
                  for i, j in zip(iu[keep].tolist(), ju[keep].tolist())]
    a, c = rng.integers(0, n, size=(2, links))
    edges += [(names[x], names[y]) for x, y in zip(a.tolist(), c.tolist()) if x // size != y // size]
    tokens = rng.integers(10, 121, size=n).tolist()
    return edges, [NodeMeta(nm, f"entity {nm}", t) for nm, t in zip(names, tokens)]


def adjacency(g: Graph) -> list[list[int]]:
    """Every node's neighbours in ascending order, rebuilt from ``g.edges()``: the oracles' own view of the rows.

    ``g.edges()`` is sorted by (u, w), so each row fills in ascending order.
    O(n + m); callers that read many rows build it once.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, w in g.edges():
        adj[u].append(w)
        adj[w].append(u)
    return adj


def node_id(g: Graph, name: str) -> int:
    """The internal id of the node with external id ``name``; O(n)."""
    return g.external_ids.index(name)


def random_graph(rng: np.random.Generator, n: int, extra_edges: int) -> Graph:
    """Random graph: spanning-tree-ish backbone plus extra edges; may have isolates."""
    names = [f"v{i:03d}" for i in range(n)]
    edges: set[tuple[int, int]] = set()
    if n > 1:
        perm = rng.permutation(n)
        for idx in range(1, n):
            if rng.random() < 0.9:  # leave occasional isolates
                a, b = int(perm[idx]), int(perm[int(rng.integers(0, idx))])
                edges.add((min(a, b), max(a, b)))
    tries = 0
    while extra_edges > 0 and tries < 20 * (extra_edges + 1):
        tries += 1
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in edges:
            continue
        edges.add(key)
        extra_edges -= 1
    return make_graph([(names[a], names[b]) for a, b in sorted(edges)], names)


def split_two_hop(g: Graph, pool, max_size: int) -> list[set[int]]:
    """Split an oversized 2-hop group into clusters, shared anchors included."""
    return [set(grown) | set(anchors) for grown, anchors in _two_hop_split_parts(g, pool, max_size)]



def split_component_oracle(g: Graph, members, max_size: int) -> list[list[int]]:
    """``split_component`` with its own greedy growth loop, as it was before the growers were shared."""
    remaining = set(members)
    if len(remaining) <= max_size:
        return [sorted(remaining)]
    seed_order = sorted(remaining, key=lambda v: (-g.degrees[v], v))
    adj = adjacency(g)
    out: list[list[int]] = []
    for seed in seed_order:
        if seed not in remaining:
            continue
        remaining.discard(seed)
        grown = [seed]
        conn: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        for w in adj[seed]:
            if w in remaining:
                conn[w] = conn.get(w, 0) + 1
                heapq.heappush(heap, (-conn[w], w))
        while len(grown) < max_size and heap:
            neg, v = heapq.heappop(heap)
            if v not in remaining or conn.get(v) != -neg:
                continue  # stale heap entry
            remaining.discard(v)
            grown.append(v)
            for w in adj[v]:
                if w in remaining:
                    conn[w] = conn.get(w, 0) + 1
                    heapq.heappush(heap, (-conn[w], w))
        out.append(sorted(grown))
    return out


def two_hop_split_parts_oracle(g: Graph, pool, max_size: int) -> list[tuple[list[int], list[int]]]:
    """``_two_hop_split_parts`` with its own growth loop and overlap scores, as it was before the growers were shared."""
    pool_sorted = sorted(pool)
    pool_set = set(pool_sorted)
    adj = adjacency(g)
    anchor_set = {w for u in pool_sorted for w in adj[u]} - pool_set
    anchors_of = {u: frozenset(anchor_set.intersection(adj[u])) for u in pool_sorted}
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
            for w in adj[u]:
                if w in anchor_set:
                    counts[w] = counts.get(w, 0) + 1
        qualifying = sorted(a for a, c in counts.items() if c >= 2 and a not in grown_set)
        out.append((grown, qualifying))
    return out


def two_hop_groups_oracle(g: Graph, nodes) -> list[list[int]]:
    """``_two_hop_groups`` by BFS: ``nodes`` grouped under "adjacent or share a neighbour", by smallest member."""
    adj = adjacency(g)
    pooled = set(nodes)
    groups: list[list[int]] = []
    seen: set[int] = set()
    for start in sorted(pooled):
        if start in seen:
            continue
        group, queue = {start}, deque([start])
        while queue:
            u = queue.popleft()
            near = set(adj[u]).union(*(adj[w] for w in adj[u]))
            for v in (near & pooled) - group:
                group.add(v)
                queue.append(v)
        seen |= group
        groups.append(sorted(group))
    return groups


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: the tracemalloc peak of the call, in bytes above what it began with.

    numpy reports its buffers to tracemalloc, so the peak counts the arrays
    too. Only allocations made during the call are traced, so what the
    arguments already hold is not counted.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak - start


def traced_retained(fn, *args):
    """``(fn(*args), retained)``: the bytes that the call's result keeps alive, by tracemalloc.

    The bytes still traced after the call returns, less those traced when
    it began; what the arguments already hold is not counted, and the
    call's garbage has been freed.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, retained - start


def best_host_oracle(adj: list[list[int]], nodes, hosts_of: dict[int, list[int]]) -> int | None:
    """``hierarchy._best_host`` on a dict of host lists, as it was before the host map; ``adj`` from :func:`adjacency`."""
    counts: dict[int, int] = {}
    for v in nodes:
        for w in adj[v]:
            if w not in nodes:
                for hid in hosts_of.get(w, ()):
                    counts[hid] = counts.get(hid, 0) + 1
    return min(counts, key=lambda hid: (-counts[hid], hid), default=None)


def attach_global_singletons_oracle(g: Graph, h: Hierarchy, singletons: set[int]) -> None:
    """``hierarchy._attach_global_singletons`` with a dict of leaf lists per node, as it was before the host map."""
    if not singletons:
        return
    adj = adjacency(g)
    node_leaves: dict[int, list[int]] = {}
    for leaf in h.leaves():
        for v in leaf.members:
            node_leaves.setdefault(v, []).append(leaf.id)
    remaining = sorted(singletons)
    while remaining:
        deferred: list[int] = []
        for v in remaining:
            best = best_host_oracle(adj, (v,), node_leaves)
            if best is None:
                deferred.append(v)
                continue
            if v not in h.clusters[best].members:
                h.clusters[best].members = sorted(h.clusters[best].members + [v])
            h.attached_singletons[v] = best
            node_leaves.setdefault(v, []).append(best)
        if len(deferred) == len(remaining):
            raise VerificationError(f"could not attach singletons {deferred}; graph should be connected")
        remaining = deferred


def merge_small_clusters_oracle(g: Graph, h: Hierarchy, mode: MergeMode) -> tuple[Hierarchy, MergeReport]:
    """``merging.merge_small_clusters`` with a dict of host lists per covered node, as it was before the host map."""
    mode = MergeMode(mode)
    report = MergeReport(mode=mode, clusters_before=len(h.clusters))
    leaf_ids = [c.id for c in h.leaves()]
    small_ids = [
        cid for cid in leaf_ids
        if h.clusters[cid].kind in _ELIGIBLE_KINDS[mode] and len(h.clusters[cid].members) == 2
    ]
    small_set = set(small_ids)
    covered_in: dict[int, list[int]] = {}
    for cid in leaf_ids:
        if cid not in small_set:
            for v in h.clusters[cid].members:
                covered_in.setdefault(v, []).append(cid)
    member_of_small: dict[int, list[int]] = {}
    for cid in small_ids:
        for v in h.clusters[cid].members:
            member_of_small.setdefault(v, []).append(cid)
    attached_by_cluster: dict[int, list[int]] = {}
    for v, owner in h.attached_singletons.items():
        attached_by_cluster.setdefault(owner, []).append(v)
    adj = adjacency(g)

    def covered_neighbor_count(cid: int) -> int:
        members = h.clusters[cid].members
        return len({w for v in members for w in adj[v] if w not in members and w in covered_in})

    counts = {cid: covered_neighbor_count(cid) for cid in small_ids}
    heap = [(-counts[cid], cid) for cid in small_ids]
    heapq.heapify(heap)

    def mark_covered(nodes, host_id: int) -> None:
        for v in sorted(nodes):
            first_time = v not in covered_in
            covered_in.setdefault(v, []).append(host_id)
            if not first_time:
                continue
            bumped: set[int] = set()
            for w in adj[v]:
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
        best = best_host_oracle(adj, small.members, covered_in)
        if best is not None:
            host = h.clusters[best]
            new_nodes = set(small.members) - set(host.members)
            report.deduplicated += len(small.members) - len(new_nodes)
            host.members = sorted(set(host.members) | set(small.members))
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


def ranked_edges(g: Graph) -> list[tuple[int, int]]:
    """Edges (u < w) by combined endpoint degree descending, then u, then w.

    A plain sort on the rank key, the oracle for the package's array ranking.
    """
    deg = g.degrees
    return sorted(g.edges(), key=lambda e: (-(deg[e[0]] + deg[e[1]]), e[0], e[1]))


def community_ranking_oracle(g: Graph, h: Hierarchy) -> dict[int, list[tuple[int, int]]]:
    """Brute-force reference for ``community_edge_ranking``: each leaf's owned edges in rank order.

    Leaves are visited by level descending, then id. Each takes its internal
    edges that no earlier leaf has claimed, in the order of :func:`ranked_edges`:
    an edge goes to the first leaf in visit order that holds both endpoints.
    """
    visit = sorted(h.leaves(), key=lambda c: (-c.level, c.id))
    holders: dict[int, set[int]] = {}
    for position, leaf in enumerate(visit):
        for v in leaf.members:
            holders.setdefault(v, set()).add(position)
    out: dict[int, list[tuple[int, int]]] = {leaf.id: [] for leaf in visit}
    for u, w in ranked_edges(g):
        shared = holders.get(u, set()) & holders.get(w, set())
        if shared:
            out[visit[min(shared)].id].append((u, w))
    return out


def sample_fields(result: SampleResult) -> tuple:
    """Every field of ``result``, the pick columns as lists of exact ints: what two equal samples share.

    ``SampleResult`` compares by identity, and its pick columns are arrays,
    while :func:`round_robin_oracle` gives lists; this reads both alike.
    """
    columns = result.sources, result.targets, result.communities, result.costs
    return (*([int(x) for x in column] for column in columns),
            result.total_tokens, result.retired, result.budget, result.unaffordable)


def round_robin_oracle(h: Hierarchy, g: Graph, budget: int, overhead: int = DEFAULT_EDGE_OVERHEAD) -> SampleResult:
    """Visit-by-visit reference for ``round_robin_sample`` on :func:`community_ranking_oracle`.

    Its pick columns are lists of Python ints, appended visit by visit.

    Leaves are visited by level descending, then id, one queue of owned
    edges each. A visit takes the head edge if the remaining budget affords
    its price (both endpoint token counts plus ``overhead``), and otherwise
    retires the leaf as unaffordable; a leaf whose queue empties retires
    too. Leaves owning no edge retire before the first visit.
    """
    ranking = community_ranking_oracle(g, h)
    tokens = list(g.tokens)
    result = SampleResult([], [], [], [], 0, [], budget, [])
    active: list[tuple[int, deque]] = []
    for leaf in sorted(h.leaves(), key=lambda c: (-c.level, c.id)):
        if ranking[leaf.id]:
            active.append((leaf.id, deque(ranking[leaf.id])))
        else:
            result.retired.append(leaf.id)
    remaining = budget
    while active:
        survivors: list[tuple[int, deque]] = []
        for cid, queue in active:
            u, w = queue[0]
            cost = tokens[u] + tokens[w] + overhead
            if cost > remaining:
                result.retired.append(cid)
                result.unaffordable.append(cid)
                continue
            queue.popleft()
            result.sources.append(u)
            result.targets.append(w)
            result.communities.append(cid)
            result.costs.append(cost)
            remaining -= cost
            if queue:
                survivors.append((cid, queue))
            else:
                result.retired.append(cid)
        active = survivors
    result.total_tokens = budget - remaining
    return result


def iter_set_partitions(n: int):
    """Yield every set partition of range(n) as a restricted growth string.

    Pure-Python reference generator, the independent oracle for
    ``all_partition_assignments``; rows come in lexicographic order.
    """
    if n == 0:
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        yield list(rgs)
        i = n - 1
        while i > 0:
            if rgs[i] <= maxes[i - 1]:
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for j in range(i + 1, n):
            rgs[j] = 0
            maxes[j] = maxes[i]


def edge_columns(spans):
    """The endpoints of edge spans decoded: (sources, targets) as lists of str."""
    names = [spans.data[a:b].decode("utf-8", "surrogatepass") for a, b in zip(spans.starts.tolist(), spans.ends.tolist())]
    return names[0::2], names[1::2]


def load_graph_oracle(edge_records, node_records=()):
    """List-based reference ingest: (adj, meta) as ``load_graph`` must build them.

    Ids follow sorted external ids; parallel and reversed edges collapse
    through a set of (low, high) pairs; a self-loop registers its node and
    adds no edge; neighbour lists are sorted.
    """
    meta_by_id = {}
    for rec in node_records:
        assert rec.external_id not in meta_by_id
        meta_by_id[rec.external_id] = rec
    for src, dst in edge_records:
        for ext in (src, dst):
            meta_by_id.setdefault(ext, NodeMeta(external_id=ext))
    order = sorted(meta_by_id)
    index = {ext: i for i, ext in enumerate(order)}
    seen = set()
    adj = [[] for _ in order]
    for src, dst in edge_records:
        u, w = index[src], index[dst]
        if u != w and (min(u, w), max(u, w)) not in seen:
            seen.add((min(u, w), max(u, w)))
            adj[u].append(w)
            adj[w].append(u)
    return [sorted(a) for a in adj], [meta_by_id[ext] for ext in order]


def lcc_oracle(adj, meta):
    """Breadth-first reference for ``largest_connected_component``: (adj, meta) it must build.

    Ties go to the component holding the smallest id; ids are renumbered in
    order.
    """
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if seen[start]:
            continue
        seen[start] = True
        comp, dq = [start], deque([start])
        while dq:
            for w in adj[dq.popleft()]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    dq.append(w)
        comps.append(sorted(comp))
    best = max(comps, key=lambda c: (len(c), -c[0]))
    keep = {v: i for i, v in enumerate(best)}
    return [[keep[w] for w in adj[v]] for v in best], [meta[v] for v in best]


def component_roots_oracle(n: int, pairs) -> list[int]:
    """Breadth-first reference for ``_component_labels``: each node's smallest component member.

    Starts are taken in ascending order, so each search starts at the
    smallest node of its component.
    """
    adj = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    root = [-1] * n
    for start in range(n):
        if root[start] >= 0:
            continue
        root[start] = start
        dq = deque([start])
        while dq:
            for w in adj[dq.popleft()]:
                if root[w] < 0:
                    root[w] = start
                    dq.append(w)
    return root


def core_numbers_oracle(g: Graph) -> list[int]:
    """Brute force: for each k, peel degree < k to fixpoint; survivors have core >= k."""
    adj = adjacency(g)
    core = [0] * g.n
    for k in range(1, g.n + 1):
        alive = set(range(g.n))
        changed = True
        while changed:
            changed = False
            for v in sorted(alive):
                if sum(1 for w in adj[v] if w in alive) < k:
                    alive.discard(v)
                    changed = True
        if not alive:
            break
        for v in alive:
            core[v] = k
    return core


def _connected_within(adj: list[list[int]], nodes: set[int]) -> bool:
    if not nodes:
        return False
    start = next(iter(nodes))
    seen = {start}
    dq = deque([start])
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            if w in nodes and w not in seen:
                seen.add(w)
                dq.append(w)
    return seen == nodes


def check_hierarchy_invariants(g: Graph, h: Hierarchy, max_size: int) -> None:
    """Structural invariants every finished hierarchy must satisfy.

    Every root and core cluster has members of core at least its level,
    except in a graph of one node, whose one root sits at level 1 over a
    node of core 0. Size and nesting checks exclude attached singletons and
    shared anchors: attachment is allowed to overflow the cap, and anchors
    belong to other clusters by design. A core or residual cluster's base
    is a component of its side of the parent's base: connected, and closed
    under adjacency within the parent's base nodes of core >= its level
    (core) or below it (residual).
    """
    core = core_numbers(g).core
    adj = adjacency(g)
    if g.n == 1:
        # No edge, so core 0: the node makes one root at level 1, which is the one leaf.
        assert core == [0]
        assert [(c.kind, c.level, c.members) for c in h.clusters.values()] == [("root", 1, [0])]
        assert h.leaf_ids == set(h.clusters)
    attached_to: dict[int, set[int]] = {}
    for v, cid in h.attached_singletons.items():
        attached_to.setdefault(cid, set()).add(v)

    for c in h.clusters.values():
        assert c.members, f"cluster {c.id} is empty"
        assert all(u < v for u, v in zip(c.members, c.members[1:])), f"cluster {c.id} is not strictly ascending"
        assert c.kind in CLUSTER_KINDS
        base = set(c.members) - attached_to.get(c.id, set()) - set(c.anchors)
        assert base, f"cluster {c.id} has no base members"
        if c.kind != "root":
            assert len(base) <= max_size, f"cluster {c.id} exceeds the size cap"
        if c.kind in ("root", "core"):
            assert g.n == 1 or min(core[v] for v in base) >= c.level
            assert _connected_within(adj, base), f"core cluster {c.id} is disconnected"
        if c.kind == "residual":
            assert max(core[v] for v in base) < c.level
            assert _connected_within(adj, base)
        if c.kind in ("residual", "two_hop"):
            assert h.is_leaf(c.id), f"{c.kind} cluster {c.id} must be a leaf"
        if c.parent is not None:
            parent = h.clusters[c.parent]
            assert base <= set(parent.members), f"cluster {c.id} escapes its parent"
            assert c.level > parent.level or (c.kind != "core")
        if c.kind in ("core", "residual"):
            # A component, not only a connected part: no edge leaves the base
            # for a node of its side in the parent's base.
            parent_base = set(parent.members) - attached_to.get(parent.id, set()) - set(parent.anchors)
            side = {v for v in parent_base if (core[v] >= c.level) == (c.kind == "core")}
            assert not {w for v in base for w in adj[v] if w in side} - base, f"{c.kind} cluster {c.id} is not maximal"
        for child in c.children:
            assert h.clusters[child].parent == c.id

    for cid in h.leaf_ids:
        assert not h.clusters[cid].children, f"leaf {cid} has children"

    # No node is covered by two leaves unless shared anchors explain it.
    anchor_nodes = {v for c in h.clusters.values() for v in c.anchors}
    seen: dict[int, int] = {}
    for leaf in h.leaves():
        for v in leaf.members:
            seen[v] = seen.get(v, 0) + 1
    for v, count in seen.items():
        assert count == 1 or v in anchor_nodes, f"node {v} is covered by {count} leaves"

    assert seen.keys() == set(range(g.n)), "leaves must cover every node"
    for cid in h.roots:
        assert h.clusters[cid].parent is None


def leaf_node_multiset(h: Hierarchy) -> Counter:
    counts: Counter = Counter()
    for leaf in h.leaves():
        counts.update(leaf.members)
    return counts


def check_round_robin_properties(
    g: Graph, h: Hierarchy, result: SampleResult, budget: int, overhead: int = DEFAULT_EDGE_OVERHEAD
) -> None:
    """Budget safety, prices, prefix-rank respect, and the round-robin visit pattern."""
    assert result.total_tokens == sum(result.costs)
    assert result.total_tokens <= budget
    for u, w, cost in zip(result.sources, result.targets, result.costs):
        assert cost == g.tokens[u] + g.tokens[w] + overhead

    ranking = community_ranking_oracle(g, h)
    by_comm: dict[int, list[tuple[int, int]]] = {}
    for u, w, cid in zip(result.sources, result.targets, result.communities):
        by_comm.setdefault(cid, []).append((u, w))
    for cid, picked in by_comm.items():
        assert picked == ranking[cid][: len(picked)], f"community {cid} skipped a ranked edge"

    # Round-robin: picks arrive in rounds, so the per-community ordinal of
    # successive picks never decreases and never jumps by more than one.
    ordinal: dict[int, int] = {}
    last = 0
    for cid in result.communities:
        ordinal[cid] = ordinal.get(cid, 0) + 1
        assert ordinal[cid] in (last, last + 1), "round-robin order violated"
        last = ordinal[cid]

    # Every community ends retired (exhausted or priced out), and a community
    # with zero picks and a nonempty list must have been priced out.
    assert sorted(result.retired) == sorted(ranking.keys())
    priced_out = set(result.unaffordable)
    for cid, edges in ranking.items():
        if edges and not by_comm.get(cid):
            assert cid in priced_out


@pytest.fixture(scope="session")
def sparse_fixture_batch():
    """Shared batch of seeded sparse fixtures for the heavier suites."""
    from corehier.fixtures import generate_kg_sparse
    from corehier.graph import largest_connected_component

    batch = []
    for seed in range(8):
        edges, nodes = generate_kg_sparse(1000, seed=seed)
        batch.append(largest_connected_component(load_graph(edges, nodes)))
    return batch
