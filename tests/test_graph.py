"""Graph loading, preprocessing, and their invariants."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier import graph
from corehier.errors import InputError
from corehier.fixtures import generate_kg_sparse
from corehier.graph import (
    EdgeSpans,
    Graph,
    NodeMeta,
    _component_labels,
    _join,
    is_connected,
    largest_connected_component,
    load_graph,
)

from conftest import component_roots_oracle, lcc_oracle, load_graph_oracle, make_graph, node_id, traced_peak


def csr_rows(g):
    """Every row of the CSR arrays as a list of ints: ``indices[indptr[v]:indptr[v + 1]]`` for each v."""
    bounds = g.indptr.tolist()
    return [g.indices[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def test_single_edge():
    g = make_graph([("a", "b")])
    assert (g.n, g.m) == (2, 1)
    assert csr_rows(g) == [[1], [0]]


def test_ids_are_built_without_the_row_view():
    """``_ids`` alone leaves ``_rows`` unbuilt; ``_rows`` holds the CSR rows as ``_ids``' own int objects."""
    g = make_graph([("a", "b"), ("b", "c")])
    ids = g._ids
    with pytest.raises(AttributeError):
        Graph._rows.__get__(g)  # the slot itself, without the lazy fallback
    flat, bounds = g._rows
    assert bounds == [0, 1, 3, 4] and flat == [1, 0, 2, 1]
    assert all(w is ids[w] for w in flat)
    assert not hasattr(g, "adj")


def test_row_view_build_makes_no_int_per_entry():
    """``_rows`` is gathered from ``_ids``, so its build peaks near 16 bytes per entry, not 40 or more.

    3,000 nodes and 60,000 seeded edge records (~119k entries). The flat
    list keeps 8 bytes per entry; while it is built, the gathered object
    array takes 8 bytes per entry more, and ``_ids`` as an object array 8
    bytes per node. A new int per entry would add 28 bytes per entry on
    its own.

    A node-heavy graph (the 6,000-node sparse fixture, ~3.3 entries per
    node) bounds the per-node part: the row bounds, a list of ints (40
    bytes per node), are built once the object arrays are freed, so they
    add ~13.5 bytes per node beyond 16 per entry. A list per row, as a
    list of lists keeps, would add 64 bytes per node.
    """
    rng = np.random.default_rng(20261019)
    names = [f"v{i:04d}" for i in range(3000)]
    pairs = rng.integers(0, len(names), size=(60_000, 2)).tolist()
    dense = make_graph([(names[a], names[b]) for a, b in pairs], names)
    sparse = load_graph(*generate_kg_sparse(6000, seed=3))
    for g in (dense, sparse):
        ids = g._ids  # built first: the row view shares its ints
        (flat, bounds), peak = traced_peak(getattr, g, "_rows")
        entries = 2 * g.m
        assert bounds == g.indptr.tolist() and flat == g.indices.tolist()
        assert all(w is ids[w] for w in flat)
        assert peak <= 16 * entries + 24 * g.n, f"peak {peak} B at {g.n} nodes, {entries} entries"


def test_duplicate_and_reversed_edges_collapse():
    g = load_graph([("a", "b"), ("b", "a"), ("a", "b")], [NodeMeta("a"), NodeMeta("b")])
    assert g.m == 1


def test_isolated_node_retained_at_load():
    g = load_graph([("a", "b")], [NodeMeta("a"), NodeMeta("b"), NodeMeta("c")])
    assert g.n == 3
    assert g.degrees[node_id(g, "c")] == 0


def test_auto_registered_endpoints_get_empty_meta():
    g = load_graph([("x", "y")], [NodeMeta("x", label="known", token_count=5)])
    v = node_id(g, "y")
    assert g.tokens[v] == 0


def test_ids_follow_lexicographic_order():
    g = load_graph([("b", "a"), ("c", "b")], [])
    assert [g.external_ids[v] for v in range(g.n)] == ["a", "b", "c"]


def test_duplicate_node_records_rejected():
    with pytest.raises(InputError):
        load_graph([], [NodeMeta("a"), NodeMeta("a")])


def test_zero_nodes_rejected():
    with pytest.raises(InputError, match="empty input: no nodes"):
        load_graph([], [])


@pytest.mark.parametrize("indptr,tokens", [([0, 0], [0, 0]), ([0], [0, 0]), ([0, 0, 0], [0])])
def test_graph_columns_of_the_wrong_length_rejected(indptr, tokens):
    with pytest.raises(InputError, match=r"^adjacency and metadata lengths differ$"):
        Graph(indptr, [], ["a", "b"], tokens)


def test_negative_tokens_rejected():
    with pytest.raises(InputError):
        NodeMeta("a", token_count=-1)


def test_self_loop_registers_its_node_and_adds_no_edge():
    g = load_graph([("a", "a"), ("a", "b"), ("b", "c"), ("a", "c"), ("z", "z")], [])
    assert (g.n, g.m) == (4, 3)
    assert g.degrees[node_id(g, "a")] == 2
    assert g.degrees[node_id(g, "z")] == 0 and csr_rows(g)[node_id(g, "z")] == []
    assert sum(g.degrees) == 2 * g.m


def test_lcc_of_looped_triangle_is_the_loaded_graph():
    g = load_graph([("a", "a"), ("a", "b"), ("b", "c"), ("a", "c")], [])
    lcc = largest_connected_component(g)
    assert lcc is g and (lcc.n, lcc.m) == (3, 3)


def test_lcc_picks_larger_component():
    g = make_graph([("a", "b"), ("b", "c"), ("d", "e")])
    lcc = largest_connected_component(g)
    assert sorted(lcc.external_ids) == ["a", "b", "c"]


def test_lcc_tie_goes_to_smallest_external_id():
    g = make_graph([("c", "d"), ("a", "b")])
    lcc = largest_connected_component(g)
    assert sorted(lcc.external_ids) == ["a", "b"]


def test_lcc_carries_metadata():
    g = load_graph([("a", "b")], [NodeMeta("a", label="alpha", token_count=7), NodeMeta("b")])
    lcc = largest_connected_component(g)
    v = node_id(lcc, "a")
    assert lcc.tokens[v] == 7
    assert lcc.tokens == [7, 0]


def test_graph_without_nodes_rejected():
    with pytest.raises(InputError, match="empty input: no nodes"):
        Graph([0], [], [], [])


edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)).map(
        lambda t: (f"n{t[0]:02d}", f"n{t[1]:02d}")
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(edges=edge_lists)
def test_handshake_and_simplicity_hold_after_load(edges):
    g = load_graph(edges, [])
    assert sum(g.degrees) == 2 * g.m
    rows = csr_rows(g)
    for v in range(g.n):
        assert rows[v] == sorted(set(rows[v]))
        assert v not in rows[v]
        for w in rows[v]:
            assert v in rows[w]


@settings(max_examples=80, deadline=None)
@given(edges=edge_lists)
def test_lcc_output_is_connected_loopfree_min_degree_one(edges):
    lcc = largest_connected_component(load_graph(edges, []))
    assert is_connected(lcc)
    if lcc.n > 1:
        assert min(lcc.degrees) >= 1
    assert sum(lcc.degrees) == 2 * lcc.m


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists)
def test_load_is_deterministic(edges):
    a = load_graph(edges, [])
    b = load_graph(list(edges), [])
    assert csr_rows(a) == csr_rows(b)
    assert a.external_ids == b.external_ids


@st.composite
def ingest_inputs(draw):
    """Edge and node records with duplicate, reversed and loop edges, isolated and
    auto-registered nodes, and several copies of one component (equal sizes)."""
    names = [f"n{i:02d}" for i in range(draw(st.integers(1, 16)))]
    pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
    edges = draw(st.lists(pair, max_size=30))
    base = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
    for prefix in draw(st.lists(st.sampled_from("cmpz"), unique=True, max_size=3)):
        edges += [(f"{prefix}{a}", f"{prefix}{b}") for a, b in base]
    if edges:
        again = draw(st.lists(st.sampled_from(edges), max_size=10))
        flips = draw(st.lists(st.booleans(), min_size=len(again), max_size=len(again)))
        edges += [(b, a) if flip else (a, b) for (a, b), flip in zip(again, flips)]
        edges = draw(st.permutations(edges))
    known = draw(st.lists(st.sampled_from(names), unique=True))
    isolated = [f"iso{i}" for i in range(draw(st.integers(0, 3)))]
    nodes = [
        NodeMeta(ext, label=f"label {ext}", token_count=len(ext) + i)
        for i, ext in enumerate(draw(st.permutations(known + isolated)))
    ]
    return edges, nodes


def assert_matches_oracle(g, adj, meta):
    assert csr_rows(g) == adj
    assert g.degrees == list(map(len, adj))
    assert g.m == sum(map(len, adj)) // 2
    assert g.external_ids == [mt.external_id for mt in meta]
    assert g.tokens == [mt.token_count for mt in meta]
    assert [node_id(g, mt.external_id) for mt in meta] == list(range(len(meta)))


@settings(max_examples=300, deadline=None)
@given(records=ingest_inputs())
def test_array_ingest_and_lcc_match_list_oracle(records):
    edges, nodes = records
    if not edges and not nodes:
        with pytest.raises(InputError, match="empty input: no nodes"):
            load_graph(edges, nodes)
        return
    g = load_graph(edges, nodes)
    adj, meta = load_graph_oracle(edges, nodes)
    assert_matches_oracle(g, adj, meta)
    lcc = largest_connected_component(g)
    lcc_adj, lcc_meta = lcc_oracle(adj, meta)
    assert_matches_oracle(lcc, lcc_adj, lcc_meta)
    assert is_connected(lcc)
    assert is_connected(g) == (len(lcc_meta) == len(meta))


def test_lcc_of_connected_loop_free_graph_is_the_graph():
    g = make_graph([("a", "b"), ("b", "c")])
    assert largest_connected_component(g) is g


def test_component_labelling_on_long_shuffled_path():
    n = 3000
    order = np.random.default_rng(5).permutation(n)
    names = [f"v{i:04d}" for i in order]
    edges = list(zip(names, names[1:])) + [("w0", "w1")]
    g = load_graph(edges, [])
    assert is_connected(load_graph(edges[:-1], []))
    lcc = largest_connected_component(g)
    assert lcc.n == n and lcc.m == n - 1
    # Node i of the component is v{i:04d}. Cutting the path in the middle
    # leaves two halves, each labelled with its smallest id.
    u, w = lcc.edge_arrays()
    cut = (u == order[1499:1501].min()) & (w == order[1499:1501].max())
    labels = _component_labels(n, u[~cut], w[~cut])
    assert labels[order[:1500]].tolist() == [order[:1500].min()] * 1500
    assert labels[order[1500:]].tolist() == [order[1500:].min()] * 1500


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_component_labels_on_edge_subsets_match_bfs(data):
    # Any pairs over range(n): none at all, isolated nodes, loops, and
    # repeated or reversed pairs.
    n = data.draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
    pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=5)) if pairs else []
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    w = np.array([b for _, b in pairs], dtype=np.int64)
    assert _component_labels(n, u, w).tolist() == component_roots_oracle(n, pairs)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_component_labels_continue_from_given_labels(data):
    """Labelling a second batch of edges on top of the first's labels gives the labels of both batches."""
    n = data.draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=3 * n))
    cut = data.draw(st.integers(0, len(pairs)))
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    w = np.array([b for _, b in pairs], dtype=np.int64)
    label = _component_labels(n, u[:cut], w[:cut])
    # Every node an edge touches; the others label themselves.
    active = data.draw(st.sampled_from([None, np.unique(np.concatenate((u, w)))]))
    assert _component_labels(n, u[cut:], w[cut:], label, active) is label
    assert label.tolist() == component_roots_oracle(n, pairs)


@settings(max_examples=150, deadline=None)
@given(edges=edge_lists)
def test_connectivity_record_agrees_with_a_fresh_labelling(edges):
    """``is_connected`` reads what ``largest_connected_component`` records, and it matches one labelling."""
    def labelled(g):
        return not _component_labels(g.n, *g.edge_arrays()).any()

    g = load_graph(edges, [])
    assert g._connected is None
    assert is_connected(g) == labelled(g) == g._connected
    g = load_graph(edges, [])
    lcc = largest_connected_component(g)
    assert g._connected is labelled(g) and is_connected(g) == labelled(g)
    assert lcc._connected is True and labelled(lcc)


#: Pieces of the names in the byte-join tests: ASCII, two- and three-byte
#: UTF-8, NUL, a newline and a lone surrogate (JSON can escape one), so
#: that names share prefixes ("a", "a\x00", "ab") and byte lengths.
ID_PIECES = ["a", "b", "\x00", "é", "漢", "\n", "\ud800"]
#: The pieces an edge file can hold inside a field.
TSV_PIECES = ID_PIECES[:5]


def _names(pieces):
    return st.lists(st.sampled_from(pieces), min_size=1, max_size=3).map("".join)


@st.composite
def join_inputs(draw, in_files: bool):
    """Edge records and node ids (any order, maybe repeated) for the byte join.

    Endpoints name a node or no node; in memory they may also be empty or
    hold any piece, while in files they hold only what a TSV field can.
    """
    ids = draw(st.lists(_names(ID_PIECES), max_size=8))
    if draw(st.booleans()):
        ids += draw(st.permutations(["a", "a\x00", "ab"]))
    fits = [x for x in ids if not set(x) - set("".join(TSV_PIECES))] if in_files else ids
    fresh = _names(TSV_PIECES if in_files else ID_PIECES)
    endpoint = (st.sampled_from(fits) | fresh) if fits else fresh
    if not in_files:
        endpoint = endpoint | st.just("")
    return draw(st.lists(st.tuples(endpoint, endpoint), max_size=12)), draw(st.permutations(ids))


def ingest_error(edges, ids) -> str | None:
    """The message ingest gives for these records, checked in its order: repeated id, empty endpoint, no node."""
    seen = set()
    for ext in ids:
        if ext in seen:
            return f"duplicate node id {ext!r}"
        seen.add(ext)
    if not all(src and dst for src, dst in edges):
        return "edge with empty endpoint id"
    if not edges and not ids:
        return "empty input: no nodes"
    return None


def _check_join(load, edges, ids):
    nodes = [NodeMeta(ext, f"label {i}", i) for i, ext in enumerate(ids)]
    message = ingest_error(edges, ids)
    if message is not None:
        with pytest.raises(InputError) as info:
            load(edges, nodes)
        assert str(info.value) == message
        return
    assert_matches_oracle(load(edges, nodes), *load_graph_oracle(edges, nodes))


@settings(max_examples=300, deadline=None)
@given(records=join_inputs(in_files=False))
def test_byte_join_matches_the_oracle_in_memory(records):
    _check_join(load_graph, *records)


@settings(max_examples=300, deadline=None)
@given(records=join_inputs(in_files=True), eol=st.sampled_from(["\n", "\r\n"]))
def test_byte_join_matches_the_oracle_from_files(tmp_path_factory, records, eol):
    """Through the CLI's reader: CRLF or LF lines, node ids JSON-escaped in the order drawn."""
    from corehier import cli

    def load(edges, nodes):
        folder = tmp_path_factory.mktemp("join")
        (folder / "edges.tsv").write_bytes("".join(f"{src}\t{dst}{eol}" for src, dst in edges).encode("utf-8"))
        lines = (json.dumps({"id": r.external_id, "label": r.label, "tokens": r.token_count}) for r in nodes)
        (folder / "nodes.jsonl").write_bytes("".join(line + eol for line in lines).encode("utf-8"))
        return cli._load(cli.PipelineConfig(edges_path=folder / "edges.tsv", nodes_path=folder / "nodes.jsonl"))

    _check_join(load, *records)


def join_oracle(names: list[str], ids: list[str]) -> tuple[list[int], list[str]]:
    """``_join`` by dict: each endpoint's index in ``ids``, unknown names numbered after them by UTF-8 width, then bytes."""
    index = {ext: i for i, ext in enumerate(ids)}
    utf8 = {name: name.encode("utf-8", "surrogatepass") for name in set(names) - index.keys()}
    unknown = sorted(utf8, key=lambda name: (len(utf8[name]), utf8[name]))
    index.update((ext, len(ids) + q) for q, ext in enumerate(unknown))
    return [index[name] for name in names], unknown


@pytest.mark.parametrize("chunk", [3, 1 << 16])
def test_join_does_not_depend_on_endpoint_order(monkeypatch, chunk):
    """Sorted and shuffled endpoints get the same nodes, as the dict oracle numbers them.

    Ids of 1 to 8 bytes (integer keys) and wider (``S{width}`` keys), a
    non-ASCII one among them; endpoints repeated, and unknown names that
    sort before, between and after the ids, of widths that ids have and
    do not have. ``chunk`` endpoints are matched per step.
    """
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    rng = np.random.default_rng(7)
    ids = sorted({"m" * width + str(i) for width in range(12) for i in range(3)} | {"\u00e9t\u00e9", "b"})
    unknown = ["A", "Aaaaaaaaaaaaa", "c", "mz", "mmmmmmmmmmmmmmmmmmmm", "zz", "\u00ff", "\u6f22\u5b57\u6f22\u5b57"]
    pool = ids + unknown
    names = [pool[i] for i in rng.integers(0, len(pool), size=400)] + ids + unknown
    expected, expected_unknown = join_oracle(names, ids)
    node, found = _join(EdgeSpans.encode(names), ids)
    assert node.tolist() == expected and found == expected_unknown
    ranked = sorted(names)
    node, found = _join(EdgeSpans.encode(ranked), ids)
    assert node.tolist() == join_oracle(ranked, ids)[0] and found == expected_unknown
    shuffle = rng.permutation(len(names))
    node, found = _join(EdgeSpans.encode([names[i] for i in shuffle]), ids)
    assert node.tolist() == [expected[i] for i in shuffle] and found == expected_unknown


def test_duplicate_id_is_reported_before_an_empty_endpoint():
    with pytest.raises(InputError, match=r"^duplicate node id 'b'$"):
        load_graph([("a", ""), ("", "b")], [NodeMeta("b"), NodeMeta("a"), NodeMeta("b")])


def test_prefixes_and_nuls_stay_apart_and_unknown_names_number_after_the_nodes():
    """Keys keep every byte: "a\x00b" and "\x00ab" differ, and "a" is not "a\x00"."""
    edges = [("a\x00", "a"), ("ab", "z"), ("é", "a\x00\x00"), ("a\x00b", "\x00ab")]
    g = load_graph(edges, [NodeMeta("ab"), NodeMeta("a", "A", 3), NodeMeta("a\x00b", "B", 4)])
    assert g.external_ids == ["\x00ab", "a", "a\x00", "a\x00\x00", "a\x00b", "ab", "z", "é"]
    assert g.tokens == [0, 3, 0, 0, 4, 0, 0, 0]
    assert csr_rows(g) == [[4], [2], [1], [7], [0], [6], [5], [3]]


def test_long_ids_join_by_their_bytes():
    """Ids far wider than 8 bytes, and than the number of keys of their width, join by all their bytes."""
    long = "x" * 5000
    g = load_graph([(long, "a"), ("b", long + "y"), (long + "\x00", long)], [NodeMeta(long, "L", 7)])
    assert g.external_ids == ["a", "b", long, long + "\x00", long + "y"]
    assert g.tokens == [0, 0, 7, 0, 0]
    assert csr_rows(g) == [[2], [4], [0, 3], [2], [1]]
