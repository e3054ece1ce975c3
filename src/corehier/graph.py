"""Graph container, ingestion, and pre-clustering cleanup.

Every graph is simple and has at least one node when it is built: ingest
drops self-loops and parallel edges. The clustering stages operate on the
largest connected component, mirroring how GraphRAG prepares its knowledge
graph before community detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import lt
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError


@dataclass(frozen=True, slots=True)
class NodeMeta:
    """Per-node metadata: stable external id, display label, token count."""

    external_id: str
    label: str = ""
    token_count: int = 0

    def __post_init__(self) -> None:
        if self.token_count < 0:
            raise InputError(f"node {self.external_id!r}: token count must be >= 0")


class Graph:
    """Immutable simple undirected graph over dense integer node ids, n >= 1.

    The graph is stored once, in CSR form: ``indices[indptr[v]:indptr[v+1]]``
    are v's neighbours in ascending order (``indptr`` int64 of length n + 1,
    ``indices`` int32 holding every edge twice). Internal ids are assigned
    in lexicographic order of external ids, so identical inputs always
    produce identical numbering; every deterministic tie-break downstream
    relies on that ordering. The arrays describe a simple graph: no
    neighbour list holds its own node or a node twice, so ``m`` is half the
    entries and a node's degree is its row length. A graph with no nodes
    is rejected with :class:`InputError`.

    Node metadata is kept as three lists indexed by id: ``external_ids``,
    ``labels`` and ``tokens``, the token counts. The graph keeps the lists
    it is given; nothing mutates them.

    ``degrees`` is a list built on construction (O(n)). ``adj``, the same
    neighbour lists as Python lists for the per-node loops downstream, is
    derived from the arrays on first access in O(n + m); its entries share
    the int objects of ``_ids``, one per node id, as the hierarchy's member
    sets do. The external-id index behind :meth:`id_of` comes from
    :func:`graph_from_columns` when the ids arrived in order, or is built
    from ``external_ids`` on first use in O(n). ``_ranking`` holds the
    sampling stage's edge ranking once it is first computed (see
    ``sampling._ranked_edge_arrays``), and is None until then.

    Treat instances as frozen once constructed; nothing in the package
    mutates them, which makes concurrent reads safe (two threads racing on
    a lazy attribute both build the same value).
    """

    __slots__ = (
        "n", "m", "indptr", "indices", "adj", "_ids", "external_ids", "labels", "tokens", "degrees",
        "_ext_index", "_ranking",
    )

    def __init__(self, indptr, indices, external_ids: list[str], labels: list[str], tokens: list[int]):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.n = n = len(external_ids)
        if not n:
            raise InputError("empty input: no nodes")
        if not (len(self.indptr) == n + 1 and len(labels) == len(tokens) == n):
            raise InputError("adjacency and metadata lengths differ")
        self.external_ids, self.labels, self.tokens = external_ids, labels, tokens
        self._ranking = None
        self.m = len(self.indices) // 2
        self.degrees = np.diff(self.indptr).tolist()

    def __getattr__(self, name: str):
        # Only reached while a lazy slot is still unset.
        if name in ("adj", "_ids"):
            self._ids = ids = list(range(self.n))
            flat = list(map(ids.__getitem__, self.indices.tolist()))
            bounds = self.indptr.tolist()
            self.adj = list(map(flat.__getitem__, map(slice, bounds[:-1], bounds[1:])))
            return getattr(self, name)
        if name == "_ext_index":
            self._ext_index = dict(zip(self.external_ids, range(self.n)))
            return self._ext_index
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.m / self.n

    def id_of(self, external_id: str) -> int:
        return self._ext_index[external_id]

    def external_id(self, v: int) -> str:
        return self.external_ids[v]

    def token_count(self, v: int) -> int:
        return self.tokens[v]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once as int64 arrays (u, w) with u < w, sorted by (u, w). O(n + m)."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = rows < self.indices
        return rows[upper], self.indices[upper].astype(np.int64)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterator over every edge once as (u, v) with u < v, in sorted order."""
        u, w = self.edge_arrays()
        return zip(u.tolist(), w.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


def load_graph(
    edge_records: Iterable[tuple[str, str]],
    node_records: Iterable[NodeMeta] = (),
) -> Graph:
    """Build a graph from raw edge and node records.

    A self-loop registers its node and adds no edge, so the graph is
    simple; records naming no node raise :class:`InputError`. The records
    are unzipped into columns in O(n + m) for :func:`graph_from_columns`,
    which states the rules and the cost.
    """
    pairs, nodes = list(edge_records), list(node_records)
    return graph_from_columns(
        [src for src, _ in pairs],
        [dst for _, dst in pairs],
        [rec.external_id for rec in nodes],
        [rec.label for rec in nodes],
        [rec.token_count for rec in nodes],
    )


def graph_from_columns(
    sources: list[str],
    targets: list[str],
    ids: list[str],
    labels: list[str],
    tokens: list[int],
) -> Graph:
    """Build a graph from edge and node columns.

    Edge i joins ``sources[i]`` and ``targets[i]``; node j has external id
    ``ids[j]``, label ``labels[j]`` and ``tokens[j]`` >= 0 tokens. Edge
    endpoints that name no node are registered with an empty label and
    zero tokens. Parallel edges collapse to one, and a self-loop is dropped
    while the keys are built, though it still registers its node, so the
    graph is simple. Internal ids follow lexicographic external-id order.
    Columns naming no node at all raise :class:`InputError` ("empty input:
    no nodes"). The graph may keep the node lists.

    Cost: one dict of the node ids, and one lookup in it per endpoint. The
    endpoints it lacks are collected, sorted and numbered after the nodes.
    If the ids are then in order, which an input written in id order gives,
    that dict is the graph's id index. Otherwise one sort of the ids
    (O(n log n) string comparisons) renumbers the endpoints by array
    indexing, and the index is built when first used. Then an O(m log m)
    sort of the encoded keys u * n + w of both edge directions; a key equal
    to its predecessor is a parallel edge. The sorted keys are the CSR rows
    in order.
    """
    known = dict(zip(ids, range(len(ids))))
    if len(known) < len(ids):
        seen: set[str] = set()
        for ext in ids:
            if ext in seen:
                raise InputError(f"duplicate node id {ext!r}")
            seen.add(ext)
    if not (all(sources) and all(targets)):
        raise InputError("edge with empty endpoint id")

    ends = sources + targets
    node = np.fromiter(map(known.get, ends, repeat(-1)), dtype=np.int64, count=len(ends))
    missing = node < 0
    if missing.any():
        names = list(compress(ends, missing.tolist()))
        unknown = sorted(set(names))
        extra = dict(zip(unknown, range(len(ids), len(ids) + len(unknown))))
        node[missing] = np.fromiter(map(extra.__getitem__, names), dtype=np.int64, count=len(names))
        known.update(extra)
        ids, labels, tokens = ids + unknown, labels + [""] * len(unknown), tokens + [0] * len(unknown)
    n = len(ids)
    in_order = all(map(lt, ids, islice(ids, 1, None)))
    if not in_order:
        order = sorted(range(n), key=ids.__getitem__)
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.arange(n)
        node = rank[node]
        ids, labels, tokens = (list(map(column.__getitem__, order)) for column in (ids, labels, tokens))

    u, w = node[: len(sources)], node[len(sources):]
    edge = u != w
    u, w = u[edge], w[edge]
    keys = np.concatenate((u * n + w, w * n + u))
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    rows, cols = np.divmod(keys[fresh], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])

    g = Graph(indptr, cols, ids, labels, tokens)
    if in_order:
        g._ext_index = known
    return g


def _component_labels(n: int, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The smallest node id in each node's component under the edges (u[i], w[i]), as int64.

    Any pairs over ``range(n)`` will do, repeated or reversed; a node no
    edge touches labels itself. Every node starts as its own root. Each
    round hooks the larger root of every edge that still joins two trees
    onto the smaller one, then jumps pointers until every node points at a
    root; pointers only decrease, so each tree's root is its smallest
    member. Edges inside one tree are dropped for good. A round costs
    O(n + m') for the m' edges still joining trees plus O(n) per pointer
    jump, and the number of trees falls geometrically on the graphs seen so
    far (a path with shuffled ids takes about log_3 n rounds).
    """
    label, lu, lw = np.arange(n), u, w
    while True:
        np.minimum.at(label, np.maximum(lu, lw), np.minimum(lu, lw))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
        lu, lw = label[u], label[w]
        apart = lu != lw
        if not apart.any():
            return label
        u, w, lu, lw = u[apart], w[apart], lu[apart], lw[apart]


def _gather_rows(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows of ``nodes`` end to end, and each row's length; O(len(nodes) + their degrees)."""
    starts = g.indptr[nodes]
    counts = g.indptr[nodes + 1] - starts
    offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return g.indices[offsets + np.arange(len(offsets))], counts


def is_connected(g: Graph) -> bool:
    """Whether the graph has exactly one component; O(n + m) array work (see ``_component_labels``)."""
    return not _component_labels(g.n, *g.edge_arrays()).any()


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component: connected, simple, with n >= 1.

    Size ties go to the component containing the smallest external id, which
    is the component with the smallest internal id because ids are assigned
    lexicographically. Ids are re-densified preserving relative order. A
    connected graph is returned as is. Otherwise the component's rows are
    copied out of the arrays and renumbered, and its entries of the node
    columns are copied. Cost: component labelling plus O(n + m) array work.
    """
    labels = _component_labels(g.n, *g.edge_arrays())
    sizes = np.bincount(labels, minlength=g.n)
    best = int(np.argmax(sizes))  # first maximum: the smallest id among equal sizes
    if sizes[best] == g.n:
        return g
    keep = labels == best
    nodes = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    row_sizes = np.diff(g.indptr)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(row_sizes[nodes], out=indptr[1:])
    # A component is closed under adjacency: every neighbour is kept.
    indices = new_id[g.indices[np.repeat(keep, row_sizes)]]
    pick = nodes.tolist()
    columns = (list(map(column.__getitem__, pick)) for column in (g.external_ids, g.labels, g.tokens))
    return Graph(indptr, indices, *columns)
