"""Graph container, ingestion, and pre-clustering cleanup.

Every graph is simple and has at least one node when it is built: ingest
drops self-loops and parallel edges. The clustering stages operate on the
largest connected component, mirroring how GraphRAG prepares its knowledge
graph before community detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from operator import eq, lt
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError


@dataclass(frozen=True, slots=True)
class NodeMeta:
    """Per-node metadata: stable external id, display label, token count.

    The label is written to node files; no stage reads it, and a graph does
    not keep it.
    """

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
    relies on that ordering, and the writers write in it. The constructor
    checks it: an id out of order or repeated raises :class:`InputError`
    naming the first such pair (O(n) comparisons), and so does a graph
    with no nodes or arrays of the wrong lengths. Nothing else is checked:
    the rows must be simple and symmetric (no row holds its own node or a
    node twice; w is in v's row iff v is in w's), so ``m`` is half the
    entries and a node's degree is its row length, and every token count
    must be >= 0. Every builder in the package guarantees both.

    Node metadata is kept as two lists indexed by id: ``external_ids`` and
    ``tokens``, the token counts. The graph keeps the lists it is given;
    nothing mutates them.

    ``degrees`` is a list built on construction (O(n)). Two attributes are
    built on first access. ``_ids`` is ``list(range(n))``, one int object
    per node id (O(n); 8 bytes per node, and 32 per int past 256); every
    int that names a node downstream is taken from it: the entries of
    ``_rows`` and the hierarchy's member lists (also those read back from
    JSON), so no node id is held as two objects.
    ``_rows`` is ``(flat, bounds)``, the CSR rows as Python lists for the
    per-node loops downstream: ``flat`` is ``indices`` with each id
    replaced by its ``_ids`` int, ``bounds`` is ``indptr.tolist()``, and v's
    neighbours are ``flat[bounds[v]:bounds[v + 1]]``. It is derived in
    O(n + m) by one object gather of ``_ids`` by ``indices``, and keeps 8
    bytes per entry and 40 per node; no int is made per entry. While
    ``flat`` is built, the gathered object array holds 8 bytes per entry
    more, and it is freed before ``bounds`` is built. ``_ranking`` holds
    the sampling stage's edge ranking once it is first computed, two int32
    arrays of m entries (see ``sampling._ranked_edge_arrays``), and is None
    until then. ``_connected`` records whether the graph has one component:
    :func:`largest_connected_component` sets it on its input and its
    result, :func:`is_connected` on first call, and it is None until then.

    Treat instances as frozen once constructed; nothing in the package
    mutates them, which makes concurrent reads safe (two threads racing on
    a lazy attribute both build the same value).
    """

    __slots__ = (
        "n", "m", "indptr", "indices", "_rows", "_ids", "external_ids", "tokens", "degrees", "_ranking",
        "_connected",
    )

    def __init__(self, indptr, indices, external_ids: list[str], tokens: list[int]):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.n = n = len(external_ids)
        if not n:
            raise InputError("empty input: no nodes")
        if not (len(self.indptr) == n + 1 and len(tokens) == n):
            raise InputError("adjacency and metadata lengths differ")
        if not all(map(lt, external_ids, islice(external_ids, 1, None))):
            raise InputError("node ids must be strictly ascending: {!r} before {!r}".format(
                *next(pair for pair in zip(external_ids, external_ids[1:]) if not lt(*pair))))
        self.external_ids, self.tokens = external_ids, tokens
        self._ranking = self._connected = None
        self.m = len(self.indices) // 2
        self.degrees = np.diff(self.indptr).tolist()

    def __getattr__(self, name: str):
        # Only reached while a lazy slot is still unset.
        if name == "_ids":
            self._ids = list(range(self.n))
            return self._ids
        if name == "_rows":
            flat = np.array(self._ids, dtype=object)[self.indices].tolist()
            self._rows = flat, self.indptr.tolist()
            return self._rows
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.m / self.n

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
    simple; records naming no node raise :class:`InputError`. A record's
    ``label`` is not kept. The endpoints are encoded into :class:`EdgeSpans`
    and the node records unzipped into columns in O(n + m) for
    :func:`graph_from_columns`, which states the rules and the cost.
    """
    nodes = list(node_records)
    return graph_from_columns(
        EdgeSpans.encode([end for src, dst in edge_records for end in (src, dst)]),
        [rec.external_id for rec in nodes],
        [rec.token_count for rec in nodes],
    )


@dataclass(frozen=True, eq=False)
class EdgeSpans:
    """Edge endpoints as UTF-8 byte spans of one buffer: no ``str`` per endpoint.

    Endpoint j is ``data[starts[j]:ends[j]]``, and edge i joins endpoints
    2i and 2i + 1; ``starts`` and ``ends`` are int64 arrays of equal,
    even length. The edge readers keep the file's bytes as ``data`` and
    record where each field lies, so the spans cost 16 bytes per endpoint
    on top of the file; :meth:`encode` builds the same form from names.
    """

    data: bytes
    starts: np.ndarray
    ends: np.ndarray

    @classmethod
    def encode(cls, names: list[str]) -> EdgeSpans:
        """The spans of ``names`` (edge i joins names 2i and 2i + 1), encoded end to end. O(total length)."""
        return cls(*_encode(names))


def _encode(names: list[str]) -> tuple[bytes, np.ndarray, np.ndarray]:
    """``names`` as UTF-8 end to end, and each one's start and end offset (int64).

    A lone surrogate, which a JSON string may hold, is encoded as its three
    bytes ("surrogatepass"), so every name has bytes and they decode back
    to the same ``str``; UTF-8 orders bytes as ``str`` orders code points.
    An ASCII text is encoded in one call. The offsets are two views of one
    array of len(names) + 1 bounds, 8 bytes per name.
    """
    joined = "".join(names)
    if joined.isascii():
        data, pieces = joined.encode("ascii"), names
    else:
        pieces = [name.encode("utf-8", "surrogatepass") for name in names]
        data = b"".join(pieces)
    bounds = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces)), out=bounds[1:])
    return data, bounds[:-1], bounds[1:]


def _stable_order(key: np.ndarray, top: int) -> np.ndarray:
    """Stable argsort of ``key``, whose entries are ints in [0, ``top``].

    The key is cast to the narrowest unsigned dtype that holds ``top``:
    numpy sorts 8- and 16-bit keys by radix in O(len(key)), and wider ones
    in O(len(key) log len(key)).
    """
    return np.argsort(key.astype(np.min_scalar_type(top)), kind="stable")


def _fixed_keys(data: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes of ``data`` from each of ``starts``, one key each, ordered as the bytes are.

    Up to 8 bytes make a big-endian uint64, built one byte column at a
    time; more make an ``S{width}`` string, copied in one gather of
    ``width``-byte windows. Every key has all ``width`` bytes, so equal
    keys are equal bytes: the string dtype's trailing-NUL rule cannot merge
    two keys of one width. No transient array is larger than the keys and
    one int64 per start.
    """
    if width <= 8:
        keys = np.zeros(len(starts), dtype=np.uint64)
        for j in range(width):
            keys <<= 8
            keys |= data[starts + j]
        return keys
    return sliding_window_view(data, width)[starts].view(f"S{width}").ravel()


#: Endpoints matched per step of :func:`_join`, which bounds its transient
#: arrays. Each step sorts its keys, which takes three more arrays of the
#: chunk's length: at 1 << 16, a 58.8k-node ingest peaked 3 MiB higher in
#: RSS than at 1 << 14, and the search was no faster.
_CHUNK = 1 << 14


def _by_width(lengths: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """``(width, positions)`` for each distinct value of ``lengths``, ascending; positions ascending.

    One stable sort of the lengths, split where the sorted lengths change:
    O(len(lengths)) memory, however wide the widest.
    """
    if not len(lengths):
        return
    order = _stable_order(lengths, int(lengths.max()))
    ranked = lengths[order]
    for part in np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1):
        yield int(lengths[part[0]]), part


def _join(edges: EdgeSpans, ids: list[str]) -> tuple[np.ndarray, list[str]]:
    """Each endpoint's index in ``ids``, which are distinct and in order, and the endpoints naming none.

    Returns ``(node, unknown)``: ``unknown`` holds the distinct names that
    no id matches, ordered by their byte width, then by their bytes (which
    is their order within one width), and an endpoint naming ``unknown[q]``
    gets ``len(ids) + q``. Ids and endpoints are grouped by byte length, so
    that within a group every key has the same width (see
    :func:`_fixed_keys`). The ids' keys of each width are in order, since
    an in-order list stays in order when filtered. For ``_CHUNK``
    endpoints at a time, the keys of each width are sorted by one
    argsort, so that one ``np.searchsorted`` walks the ids' keys in order,
    and an exact key comparison confirms each match; the results are
    scattered back to the endpoints' positions by index. Searched in file
    order, the keys hop across the ids' keys: at 58.8k nodes and 97k edges
    that took 24 ms on a 2-core host, against 9 ms to sort and search. The
    endpoints no id matches are then grouped by width, sorted and
    numbered, and only the distinct ones are decoded, one ``str`` each.
    Cost: O(B) to build the keys of B bytes, plus O(e log c) to sort e
    endpoints in chunks of c = ``_CHUNK`` and O(e log n) to search them
    among n ids, plus O(u log u) to sort the keys of the u unknown
    endpoints within each width.
    Memory: the result and the ids' keys, plus O(_CHUNK) ints and the keys
    of one chunk's endpoints transient, plus O(u) ints and the keys of the
    u unknown endpoints.
    """
    n = len(ids)
    id_data, id_starts, id_ends = _encode(ids)
    id_bytes, end_bytes = np.frombuffer(id_data, dtype=np.uint8), np.frombuffer(edges.data, dtype=np.uint8)
    index = {
        width: (ranks, _fixed_keys(id_bytes, id_starts[ranks], width))
        for width, ranks in _by_width(id_ends - id_starts)
    }
    node = np.empty(len(edges.starts), dtype=np.int64)
    lost = [np.zeros(0, dtype=np.int64)]  # the endpoints no id matches
    for first in range(0, len(node), _CHUNK):
        starts = edges.starts[first:first + _CHUNK]
        for width, part in _by_width(edges.ends[first:first + _CHUNK] - starts):
            wanted = _fixed_keys(end_bytes, starts[part], width)
            part = part + first
            if width not in index:
                lost.append(part)
                continue
            ranks, keys = index[width]
            order = np.argsort(wanted)
            part, wanted = part[order], wanted[order]
            at = np.searchsorted(keys, wanted)
            np.minimum(at, len(keys) - 1, out=at)
            found = keys[at] == wanted
            node[part[found]] = ranks[at[found]]
            lost.append(part[~found])
    lost = np.concatenate(lost)
    names: list[str] = []  # the unknown names, by width, then in order
    for width, part in _by_width(edges.ends[lost] - edges.starts[lost]):
        part = lost[part]
        missing = _fixed_keys(end_bytes, edges.starts[part], width)
        order = np.argsort(missing, kind="stable")
        missing = missing[order]
        fresh = np.ones(len(order), dtype=bool)
        np.not_equal(missing[1:], missing[:-1], out=fresh[1:])
        node[part[order]] = n + len(names) + np.cumsum(fresh) - 1
        names.extend(
            edges.data[start:start + width].decode("utf-8", "surrogatepass")
            for start in edges.starts[part[order[fresh]]].tolist()
        )
    return node, names


def graph_from_columns(edges: EdgeSpans, ids: list[str], tokens: list[int]) -> Graph:
    """Build a graph from edge spans and node columns.

    Edge i joins endpoints 2i and 2i + 1 of ``edges``; node j has external
    id ``ids[j]`` and ``tokens[j]`` >= 0 tokens. Edge endpoints that name
    no node are registered with zero tokens. Parallel edges collapse to one, and a self-loop is dropped
    while the keys are built, though it still registers its node, so the
    graph is simple. Internal ids follow lexicographic external-id order.
    A repeated id raises :class:`InputError` before an empty endpoint
    does, and columns naming no node at all raise "empty input: no nodes".
    The graph may keep the node lists.

    Cost: O(n) string comparisons to see whether the ids are in order, and
    one sort of them (O(n log n) comparisons) when they are not, which also
    finds a repeated id. Then :func:`_join` matches the endpoints to the ids
    by their bytes: no endpoint becomes a ``str`` unless it names no node.
    When some name no node, one sort of the ids and those names renumbers
    every endpoint by array indexing. The ids are one in-order run and the
    names one run per byte width, so for k names of b widths the sort takes
    O((n + k) log(b + 1)) comparisons. Then an O(m log m) sort of the
    encoded keys u * n + w of both edge directions; a key equal to its
    predecessor is a parallel edge. The sorted keys are the CSR rows in
    order.
    """
    if not all(map(lt, ids, islice(ids, 1, None))):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ranked = list(map(ids.__getitem__, order))
        repeats = list(compress(islice(order, 1, None), map(eq, ranked, islice(ranked, 1, None))))
        if repeats:  # each repeat sorts right after an earlier equal id
            raise InputError(f"duplicate node id {ids[min(repeats)]!r}")
        ids, tokens = ranked, list(map(tokens.__getitem__, order))
    if (edges.starts == edges.ends).any():
        raise InputError("edge with empty endpoint id")

    node, unknown = _join(edges, ids)
    if unknown:
        ids, tokens = ids + unknown, tokens + [0] * len(unknown)
        order = sorted(range(len(ids)), key=ids.__getitem__)  # in-order runs: the ids, then one per width
        rank = np.empty(len(ids), dtype=np.int64)
        rank[order] = np.arange(len(ids))
        node = rank[node]
        ids, tokens = (list(map(column.__getitem__, order)) for column in (ids, tokens))
    n = len(ids)

    u, w = node[0::2], node[1::2]
    edge = u != w
    u, w = u[edge], w[edge]
    del node, edge  # each step below frees what it no longer needs, to keep the peak low
    keys = np.concatenate((u * n + w, w * n + u))
    del u, w
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    cols = (keys % n).astype(np.int32)
    keys //= n  # the row of each entry
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return Graph(indptr, cols, ids, tokens)


def _component_labels(n: int, u: np.ndarray, w: np.ndarray, label: np.ndarray | None = None, active=None) -> np.ndarray:
    """The smallest node id in each node's component under the edges (u[i], w[i]), as int64.

    Any pairs over ``range(n)`` will do, repeated or reversed; a node no
    edge touches labels itself. Every node starts as its own root, unless
    ``label`` continues an earlier labelling: there, each entry already
    names the smallest node of its component under earlier edges, and the
    array is updated in place and returned. ``active`` (an index array, or
    None for every node) must list every node in a component that an edge
    touches, earlier edges included; only those are pointer-jumped, and the
    other nodes must label themselves. Each round hooks the larger root of
    every edge that still joins two trees onto the smaller one, then jumps
    pointers until every node points at a root; pointers only decrease, so
    each tree's root is its smallest member. Edges inside one tree are
    dropped for good. A round costs O(a + m') for the a active nodes and
    the m' edges still joining trees, plus O(a) per pointer jump, and the
    number of trees falls geometrically on the graphs seen so far (a path
    with shuffled ids takes about log_3 n rounds).
    """
    if label is None:
        label, lu, lw = np.arange(n), u, w
    else:
        lu, lw = label[u], label[w]
    nodes = slice(None) if active is None else active
    while True:
        np.minimum.at(label, np.maximum(lu, lw), np.minimum(lu, lw))
        at = label[nodes]
        while True:
            jumped = label[at]
            if np.array_equal(jumped, at):
                break
            label[nodes] = at = jumped
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
    """Whether the graph has exactly one component.

    Read from ``g._connected`` when it is set, as on every output of
    :func:`largest_connected_component`; otherwise O(n + m) array work
    (see ``_component_labels``), recorded there.
    """
    if g._connected is None:
        g._connected = not _component_labels(g.n, *g.edge_arrays()).any()
    return g._connected


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component: connected, simple, with n >= 1.

    Size ties go to the component containing the smallest external id, which
    is the component with the smallest internal id because a graph's ids
    are ascending (see :class:`Graph`). Ids are re-densified preserving
    relative order, so the result's ids are ascending too. A
    connected graph is returned as is. Otherwise the component's rows are
    copied out of the arrays and renumbered, and its entries of the node
    columns are copied. The result is recorded as connected, and the input
    as connected or not (``_connected``), so :func:`is_connected` labels
    neither again. Cost: component labelling plus O(n + m) array work.
    """
    labels = _component_labels(g.n, *g.edge_arrays())
    sizes = np.bincount(labels, minlength=g.n)
    best = int(np.argmax(sizes))  # first maximum: the smallest id among equal sizes
    g._connected = bool(sizes[best] == g.n)
    if g._connected:
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
    columns = (list(map(column.__getitem__, pick)) for column in (g.external_ids, g.tokens))
    lcc = Graph(indptr, indices, *columns)
    lcc._connected = True
    return lcc
