"""Parsers, writers, and hierarchy JSON round-tripping."""

import json
import math
from copy import deepcopy
from io import StringIO
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corehier import fileio
from corehier.cores import CoreDecomposition, core_numbers
from corehier.errors import InputError
from corehier.fileio import (
    _clean_node_columns,
    _clean_tsv_spans,
    _read_edges_by_line,
    _read_nodes_by_line,
    hierarchy_from_json_obj,
    hierarchy_to_json_obj,
    json_dumps_stable,
    read_edges_tsv,
    read_nodes_jsonl,
    sample_to_tsv,
    write_decomposition_json,
    write_hierarchy_json,
    write_sample_tsv,
)
from corehier.fixtures import three_level_example
from corehier.graph import EdgeSpans, Graph, largest_connected_component, load_graph
from corehier.hierarchy import CLUSTER_KINDS, Cluster, Hierarchy, build_hierarchy
from corehier.merging import MergeMode, merge_small_clusters
from corehier.sampling import (
    SampleResult,
    TokenModel,
    _int64_or_exact,
    round_robin_sample,
)

from conftest import edge_columns, node_id, traced_peak, traced_retained, write_edges_tsv, write_nodes_jsonl


class TestEdgeFile:
    def test_parses_two_and_three_columns(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("# comment\na\tb\nb\tc\t2.5\n\n", encoding="utf-8")
        assert edge_columns(read_edges_tsv(p)) == (["a", "b"], ["b", "c"])

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("a\tb\nnot-an-edge\n", encoding="utf-8")
        with pytest.raises(InputError, match=":2:"):
            read_edges_tsv(p)

    def test_bad_weight_reports_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_text("a\tb\theavy\n", encoding="utf-8")
        with pytest.raises(InputError, match=":1:"):
            read_edges_tsv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            read_edges_tsv(tmp_path / "absent.tsv")

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        p = tmp_path / "edges.tsv"
        p.write_bytes(b"a\tb\n# note\nc\t\xff\xfe\n")
        with pytest.raises(InputError, match=rf"{p.name}:3: invalid UTF-8"):
            read_edges_tsv(p)

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "edges.tsv"
        records = [("a", "b"), ("b", "c")]
        write_edges_tsv(p, records)
        assert list(zip(*edge_columns(read_edges_tsv(p)))) == records


class TestNodeFile:
    def test_tokens_take_precedence_over_text(self, tmp_path):
        p = tmp_path / "nodes.jsonl"
        p.write_text(
            '{"id": "a", "tokens": 7, "text": "xxxxxxxxxxxxxxxx"}\n'
            '{"id": "b", "text": "xxxxxxxx"}\n'
            '{"id": "c", "label": "gamma"}\n',
            encoding="utf-8",
        )
        ids, tokens = read_nodes_jsonl(p, TokenModel(chars_per_token=4))
        by_id = dict(zip(ids, tokens))
        assert by_id["a"] == 7
        assert by_id["b"] == 2
        assert by_id["c"] == 0

    def test_invalid_json_and_missing_id(self, tmp_path):
        p = tmp_path / "nodes.jsonl"
        p.write_text("{broken\n", encoding="utf-8")
        with pytest.raises(InputError, match=":1:"):
            read_nodes_jsonl(p)
        p.write_text('{"label": "no id"}\n', encoding="utf-8")
        with pytest.raises(InputError, match="'id'"):
            read_nodes_jsonl(p)

    def test_negative_tokens_rejected(self, tmp_path):
        p = tmp_path / "nodes.jsonl"
        p.write_text('{"id": "a", "tokens": -3}\n', encoding="utf-8")
        with pytest.raises(InputError):
            read_nodes_jsonl(p)

    def test_boolean_tokens_rejected(self, tmp_path):
        p = tmp_path / "nodes.jsonl"
        p.write_text('{"id": "a", "tokens": 2}\n{"id": "b", "tokens": true}\n', encoding="utf-8")
        with pytest.raises(InputError, match=rf"{p.name}:2: 'tokens'"):
            read_nodes_jsonl(p)

    @pytest.mark.parametrize("text", ["5", "[\"abc\"]", "{}", "true"])
    def test_text_that_is_not_a_string_rejected(self, tmp_path, text):
        p = tmp_path / "nodes.jsonl"
        p.write_text('{"id": "a", "text": null}\n{"id": "b", "text": ' + text + "}\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"{p.name}:2: 'text' must be a string"):
            read_nodes_jsonl(p)

    def test_integer_too_long_to_convert_rejected(self, tmp_path):
        p = tmp_path / "nodes.jsonl"
        p.write_text('{"id": "a", "tokens": ' + "9" * 5000 + "}\n", encoding="utf-8")
        with pytest.raises(InputError, match=rf"{p.name}:1: invalid JSON: "):
            read_nodes_jsonl(p)

    def test_invalid_utf8_reports_line_number(self, tmp_path):
        p = tmp_path / "nodes.jsonl"
        p.write_bytes(b'{"id": "a"}\n{"id": "\xff\xfe"}\n')
        with pytest.raises(InputError, match=rf"{p.name}:2: invalid UTF-8"):
            read_nodes_jsonl(p)

    @pytest.mark.parametrize(
        "line",
        [
            ' {"id": "b", "tokens": 1}',
            '{"id": "b", "tokens": 1}  ',
            '\t{"id": "b", "tokens": 1}\t',
            ' \t {"id": "b", "label": "x"} \t ',
            '\u00a0{"id": "b", "tokens": 1}',
            '{"id": "b", "tokens": 1}\u00a0',
            '\ufeff{"id": "b"}',
            '{"id": "b"} {"id": "c"}',
            '{"id": "b"}{"id": "c"}',
            '{"id": "b"}x',
            '{"id": "b",',
            '[{"id": "b"}]',
            '{}',
            '"b"',
            '{"id": "b", "label": "a\\tb", "tokens": 3}',
        ],
    )
    def test_each_line_decodes_as_json_loads(self, tmp_path, line):
        p = tmp_path / "nodes.jsonl"
        text = '{"id": "a", "tokens": 2}\n' + line + "\n"
        p.write_text(text, encoding="utf-8")
        expected = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                expected = f"{p}:{lineno}: invalid JSON: {exc.msg}"
                break
            if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
                expected = f"{p}:{lineno}: node records need a string 'id'"
                break
            expected.append((obj["id"], obj.get("tokens", 0)))
        if isinstance(expected, str):
            with pytest.raises(InputError) as info:
                read_nodes_jsonl(p)
            assert str(info.value) == expected
        else:
            assert list(zip(*read_nodes_jsonl(p))) == expected

    def test_roundtrip(self, tmp_path):
        _, nodes = three_level_example()
        p = tmp_path / "nodes.jsonl"
        write_nodes_jsonl(p, nodes)
        assert list(zip(*read_nodes_jsonl(p))) == [(r.external_id, r.token_count) for r in nodes]


def outcome(read, *args):
    """What a reader gives: its columns (edge spans decoded), or the text of its InputError."""
    try:
        result = read(*args)
    except InputError as exc:
        return str(exc)
    return edge_columns(result) if isinstance(result, EdgeSpans) else result


def write_exact(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))  # no newline translation


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a\tb\nc\td\n", (["a", "c"], ["b", "d"])),  # clean: the bulk path
        ("a\tb\r\nc\td\r\n", (["a", "c"], ["b", "d"])),  # CRLF
        ("a\x85x\tb\n", "{p}:1: expected 'src<TAB>dst[<TAB>weight]'"),  # NEL breaks the id
        ("a\tb\u2028c\n", "{p}:2: expected 'src<TAB>dst[<TAB>weight]'"),  # LINE SEPARATOR too
        ("a\tb\nc\td", (["a", "c"], ["b", "d"])),  # no trailing newline
        ("a\tb\n\t\nc\td\n", (["a", "c"], ["b", "d"])),  # a tab-only line is blank
        ("a\t#b\n#c\td\n", (["a"], ["#b"])),  # "#" starts a comment only at the line's start
        (" a\tb \n  # note\nc\t\u00a0d\n", (["a", "c"], ["b", "d"])),  # stripped fields
        ("a\tb \nc\td\n", (["a", "c"], ["b", "d"])),  # an ASCII space ends a field
        ("a\t\u00a0b\nc\u3000\td\n", (["a", "c"], ["b", "d"])),  # non-ASCII spaces
        ("a\tb\t1.5\nc\td\n", (["a", "c"], ["b", "d"])),  # a weight column
        ("a\tb\nc\td\tx\n", "{p}:2: weight 'x' is not a number"),
        ("a\tb\n\nc\td\n", (["a", "c"], ["b", "d"])),  # a blank line
        ("a\tb\nc\n\td\te\n", "{p}:2: expected 'src<TAB>dst[<TAB>weight]'"),  # tabs add up, lines do not
        ("a\tb\nc\nd\te\tf\n", "{p}:2: expected 'src<TAB>dst[<TAB>weight]'"),  # so do the fields
        ("a\t\tb\n", "{p}:1: expected 'src<TAB>dst[<TAB>weight]'"),  # an empty field
        ("", ([], [])),
        ("\n", ([], [])),
    ],
)
def test_edge_reader_pinned_cases(tmp_path, text, expected):
    p = tmp_path / "edges.tsv"
    write_exact(p, text)
    if isinstance(expected, str):
        expected = expected.format(p=p)
    assert outcome(read_edges_tsv, p) == expected
    assert outcome(_read_edges_by_line, p, text) == expected


#: The characters beyond ASCII that ``str.strip`` removes, less the three line breaks.
WIDE_SPACES = "\u00a0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"


def test_wide_spaces_are_the_strip_set_beyond_ascii_less_the_line_breaks():
    stripped = "".join(chr(c) for c in range(0x80, 0x110000) if chr(c).isspace())
    assert stripped == "".join(sorted(WIDE_SPACES + "\x85\u2028\u2029"))
    assert fileio._WIDE_SPACES.tolist() == [int.from_bytes(ch.encode("utf-8"), "big") for ch in WIDE_SPACES]


@pytest.mark.parametrize("space", list(WIDE_SPACES), ids=lambda ch: f"U+{ord(ch):04X}")
def test_edge_fields_that_start_or_end_with_a_wide_space_are_stripped(tmp_path, space):
    """Such a field leaves the bulk path, at either end of either column and at the file's end; inside a field it stays."""
    p = tmp_path / "edges.tsv"
    for text in (
        f"{space}a\tb\n", f"a{space}\tb\n", f"a\t{space}\u6f22\n", f"a\t\u6f22{space}\n",
        f"\u00e9\tb\nc\t\u00e9{space}", f"a\t{space}\n", f"{space}{space}\tb\n",
    ):
        write_exact(p, text)
        assert _clean_tsv_spans(text.encode("utf-8")) is None
        assert outcome(read_edges_tsv, p) == outcome(_read_edges_by_line, p, text)
    text = f"a{space}b\t\u6f22{space}\u00e9\n"
    write_exact(p, text)
    assert _clean_tsv_spans(text.encode("utf-8")) is not None
    assert outcome(read_edges_tsv, p) == ([f"a{space}b"], [f"\u6f22{space}\u00e9"])


@pytest.mark.parametrize("near", ["\u00a1", "\u00bf", "\u1681", "\u200b", "\u2030", "\u205e", "\u3001", "\u2fff"])
def test_edge_fields_that_end_with_a_near_miss_stay_on_the_bulk_path(tmp_path, near):
    """Characters whose UTF-8 bytes differ from a space's in one byte are kept at a field's ends."""
    p = tmp_path / "edges.tsv"
    text = f"{near}a\t{near}\nb{near}\t{near}{near}"
    write_exact(p, text)
    assert _clean_tsv_spans(text.encode("utf-8")) is not None
    assert outcome(read_edges_tsv, p) == ([f"{near}a", f"b{near}"], [near, near + near])


def test_non_ascii_edge_file_peaks_within_five_times_its_bytes(tmp_path, monkeypatch):
    """A clean edge file of non-ASCII ids is checked on its bytes, with no decoded text.

    60,000 seeded edges over 20,000 ids ``漢00001字`` (1.44 MB). The peak
    counts the file's bytes and the spans (16 bytes per 12-byte field):
    about 2.3x the file before any check. Decoding the whole file, and
    each field whose first or last byte is not ASCII, peaked at 11.8x.
    """
    rng = np.random.default_rng(20261020)
    names = [f"\u6f22{i:05d}\u5b57" for i in range(20_000)]
    pairs = rng.integers(0, len(names), size=(60_000, 2)).tolist()
    p = tmp_path / "edges.tsv"
    write_exact(p, "".join(f"{names[a]}\t{names[b]}\n" for a, b in pairs))
    monkeypatch.setattr(fileio, "_read_edges_by_line", None)  # the bulk path must take it
    spans, peak = traced_peak(read_edges_tsv, p)
    assert edge_columns(spans) == ([names[a] for a, _ in pairs], [names[b] for _, b in pairs])
    size = p.stat().st_size
    assert peak <= 5 * size, f"peak {peak} B is {peak / size:.2f} x the {size} file bytes"


@pytest.mark.parametrize(
    "text,expected",
    [
        ('{"id": "a", "label": "x", "tokens": 1}\n{"id": "b", "label": "", "tokens": 0}\n',
         (["a", "b"], [1, 0])),  # clean: the bulk path
        ('{"id": "a", "label": "x", "tokens": 1}\r\n{"id": "b", "label": "y", "tokens": 2}\r\n',
         (["a", "b"], [1, 2])),  # CRLF
        ('{"id": "a", "label": "x", "tokens": 1}', (["a"], [1])),  # no trailing newline
        ('{"id": "a\u2028b", "label": "", "tokens": 1}\n',
         "{p}:1: invalid JSON: Unterminated string starting at"),  # a raw U+2028 splits the line
        ('{"id": "a\x85b", "label": "", "tokens": 1}\n', "{p}:1: invalid JSON: Unterminated string starting at"),
        ('{"id": "a", "label": "x", "tokens": 1}\n\n{"id": "b", "label": "y", "tokens": 2}\n',
         (["a", "b"], [1, 2])),  # a blank line
        ('{"id": "a\\"q", "label": "\\u0041", "tokens": 3}\n', (['a"q'], [3])),  # escapes
        ('{"id": "a", "label": "x", "tokens": 1234567890123456789}\n', (["a"], [1234567890123456789])),
        ('{"id": "a", "label": "x", "tokens": 01}\n', "{p}:1: invalid JSON: Expecting ',' delimiter"),
        ('{"id": "a", "label": "x", "tokens": 1} \n', (["a"], [1])),  # trailing space
        ('{"id": "a", "label": "x", "tokens": 1}\n{"id": "b", "label": 5}\n',
         (["a", "b"], [1, 0])),  # one line in another shape
        ('{"id": "a", "label": {"x": [null, 1.5]}, "tokens": 4}\n', (["a"], [4])),  # a label of any JSON type
        ('{"id": "a", "x": [{"y": 1}\n{"z": 2}]}\n{"id": "c"}, {"id": "d"}\n',
         "{p}:1: invalid JSON: Expecting ',' delimiter"),  # parses as three records only when joined
    ],
)
def test_node_reader_pinned_cases(tmp_path, text, expected):
    p = tmp_path / "nodes.jsonl"
    write_exact(p, text)
    if isinstance(expected, str):
        expected = expected.format(p=p)
    assert outcome(read_nodes_jsonl, p) == expected
    assert outcome(_read_nodes_by_line, p, text, TokenModel()) == expected


def test_written_files_take_the_bulk_paths(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(fileio, "_read_edges_by_line", refuse)
    monkeypatch.setattr(fileio, "_read_nodes_by_line", refuse)
    edges, nodes = three_level_example()
    write_edges_tsv(tmp_path / "edges.tsv", edges)
    write_nodes_jsonl(tmp_path / "nodes.jsonl", nodes)
    assert list(zip(*edge_columns(read_edges_tsv(tmp_path / "edges.tsv")))) == edges
    assert list(zip(*read_nodes_jsonl(tmp_path / "nodes.jsonl"))) == [(r.external_id, r.token_count) for r in nodes]


#: Pieces inserted into clean files: separators, every line break
#: ``str.splitlines`` honours, whitespace, comment marks, weights, JSON
#: syntax, escapes, nesting, long integers and extra or repeated fields.
SPLICES = [
    "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u2029",
    " ", "\u00a0", "\u3000", "#", "\t1.5", "\tx", "", "\u00e9",
    '"', "\\", '\\"', "\\u0041", "\\n", "{", "}", "[", "]", ",", ":", "0", "-", "9" * 19, "9" * 25,
    '{"id": "z"}', "true", "null", '[[[[{"a": [1]}]]]]', ', "tokens": 5', ', "text": "abcde"',
    ', "label": 7', ', "id": "dup"', '"label": "", ',
]


@st.composite
def spliced(draw, clean: str):
    """``clean`` with a few pieces inserted and ranges deleted at drawn positions."""
    text = clean
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(SPLICES)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 6)):]
    return text


ids_for_files = st.text(st.sampled_from("ab09_-.:\u00e9\u6f22 "), min_size=1, max_size=4).map(lambda s: f"n{s}x")


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_edge_reader_matches_the_line_reader(tmp_path_factory, data):
    pairs = data.draw(st.lists(st.tuples(ids_for_files, ids_for_files), max_size=6))
    clean = "".join(f"{a}\t{b}\n" for a, b in pairs)
    if pairs:
        assert _clean_tsv_spans(clean.encode("utf-8")) is not None
    text = data.draw(spliced(clean))
    p = tmp_path_factory.mktemp("edges") / "edges.tsv"
    write_exact(p, text)
    assert outcome(read_edges_tsv, p) == outcome(_read_edges_by_line, p, text)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_node_reader_matches_the_line_reader(tmp_path_factory, data):
    records = data.draw(st.lists(st.tuples(ids_for_files, st.text(max_size=4), st.integers(0, 10**25)), max_size=5))
    clean = "".join(
        json.dumps({"id": ext, "label": label, "tokens": count}, sort_keys=True) + "\n"
        for ext, label, count in records
    )
    text = data.draw(spliced(clean))
    p = tmp_path_factory.mktemp("nodes") / "nodes.jsonl"
    write_exact(p, text)
    tm = TokenModel()
    assert outcome(read_nodes_jsonl, p, tm) == outcome(_read_nodes_by_line, p, text, tm)


def clean_record(ext: str, label: str, count: int) -> str:
    return json.dumps({"id": ext, "label": label, "tokens": count}, sort_keys=True, ensure_ascii=False) + "\n"


#: Records whose lines are 37 to 55 bytes long, so a small block cuts some of them.
RECORDS = "".join(clean_record(f"n{i:0{1 + i % 4}d}", "entity " * (i % 3), i * 7) for i in range(12))


def test_twenty_quotes_on_two_lines_not_ten_each_leave_the_bulk_path(tmp_path):
    """Ten quotes per line on average is not ten on each line: the line reader takes the file."""
    text = '{"id": "a", "label": "b", "tokens": 1, "x": "y"}\n{"id": "c", "tokens": 2}\n'
    assert _clean_node_columns(text.encode("utf-8")) is None
    p = tmp_path / "nodes.jsonl"
    write_exact(p, text)
    assert read_nodes_jsonl(p) == (["a", "c"], [1, 2])


@pytest.mark.parametrize("block", [1, 16, 64, 200])
@pytest.mark.parametrize(
    "text,bulk",
    [
        pytest.param(RECORDS, True, id="lines-straddle-the-cuts"),
        pytest.param(RECORDS.rstrip("\n"), True, id="no-last-newline"),
        pytest.param(clean_record("only", "x", 3), True, id="one-line"),
        pytest.param(clean_record("only", "x", 3).rstrip("\n"), True, id="one-line-no-newline"),
        pytest.param(RECORDS + clean_record("a", "", 10**18 - 1), True, id="empty-label-18-digits"),
        pytest.param(RECORDS + clean_record("a", "x", 10**18), False, id="19-digits"),
        pytest.param(RECORDS + '{"id": "a", "label": "x", "tokens": 01}\n', False, id="leading-zero"),
        pytest.param(RECORDS + clean_record("\u00e9\u6f22\U0001f600", "\u00e9", 5) + RECORDS, True, id="non-ascii-id"),
        pytest.param(RECORDS + clean_record("a", "x", 1).replace("\n", "\r\n") + RECORDS, False, id="late-crlf"),
        pytest.param(RECORDS + clean_record("a\u2028b", "x", 1) + RECORDS, False, id="late-u2028"),
        pytest.param(RECORDS + clean_record("a", "x\u2029", 1), False, id="u2029-in-a-label"),
        pytest.param(RECORDS + clean_record("a", "x", 1) + "\n" + RECORDS, False, id="blank-line"),
        pytest.param(RECORDS + '{"id": "", "label": "x", "tokens": 1}\n', False, id="empty-id"),
        pytest.param(RECORDS + '{"id": "a", "label": "x", "tokens": 1, "text": "b"}\n', False, id="another-shape"),
    ],
)
def test_node_reader_block_cuts(tmp_path, monkeypatch, block, text, bulk):
    """Whatever the block size, the bulk path gives the line reader's columns, or leaves the file to it."""
    monkeypatch.setattr(fileio, "_NODE_BLOCK", block)
    p = tmp_path / "nodes.jsonl"
    write_exact(p, text)
    expected = outcome(_read_nodes_by_line, p, text, TokenModel())
    columns = _clean_node_columns(text.encode("utf-8"))
    assert (columns is not None) == bulk
    if bulk:
        assert columns == expected
    assert outcome(read_nodes_jsonl, p) == expected


@pytest.mark.parametrize("block", [1, 64])
def test_node_reader_reports_bad_utf8_in_a_later_block_first(tmp_path, monkeypatch, block):
    """Bad bytes in a later block are the error, with the file's line number, even after an unclean line."""
    monkeypatch.setattr(fileio, "_NODE_BLOCK", block)
    p = tmp_path / "nodes.jsonl"
    raw = (RECORDS + "not json\n" + RECORDS).encode("utf-8") + b'{"id": "\xff", "label": "", "tokens": 1}\n'
    p.write_bytes(raw)
    assert outcome(read_nodes_jsonl, p) == f"{p}:26: invalid UTF-8 (invalid start byte)"
    p.write_bytes(RECORDS.encode("utf-8") + raw[len(RECORDS) + len("not json\n"):])
    assert outcome(read_nodes_jsonl, p) == f"{p}:25: invalid UTF-8 (invalid start byte)"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_node_reader_matches_the_line_reader_at_any_block_size(tmp_path_factory, data):
    records = data.draw(st.lists(st.tuples(ids_for_files, st.text(max_size=4), st.integers(0, 10**19)), max_size=8))
    text = data.draw(spliced("".join(clean_record(*record) for record in records)))
    p = tmp_path_factory.mktemp("nodes") / "nodes.jsonl"
    write_exact(p, text)
    tm = TokenModel()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_NODE_BLOCK", data.draw(st.integers(1, 120)))
        assert outcome(read_nodes_jsonl, p, tm) == outcome(_read_nodes_by_line, p, text, tm)


def test_node_reader_peak_memory_is_within_twice_the_file(tmp_path):
    """The bulk node reader holds the file's bytes and one block's arrays besides the columns it returns.

    A seeded clean file of 30,000 records laid out as perfbench's ``kg_sparse``
    nodes. A scan that makes a tuple and three ``str`` per record before
    building the columns peaked about 3x the file above them.
    """
    rng = np.random.default_rng(20261019)
    p = tmp_path / "nodes.jsonl"
    tokens = rng.integers(20, 400, size=30_000).tolist()
    write_exact(p, "".join(clean_record(f"n{i:05d}", f"entity {i}", t) for i, t in enumerate(tokens)))
    size = p.stat().st_size
    (ids, counts), peak = traced_peak(read_nodes_jsonl, p)
    assert counts == tokens and len(ids) == 30_000
    del ids, counts
    _, retained = traced_retained(read_nodes_jsonl, p)
    assert peak - retained <= 2 * size, f"peak {peak} B less {retained} B kept is {(peak - retained) / size:.2f} x the {size} file bytes"


class TestHierarchyJson:
    def build(self):
        edges, nodes = three_level_example()
        g = largest_connected_component(load_graph(edges, nodes))
        return g, build_hierarchy(g, 16)

    def test_roundtrip_preserves_everything(self):
        g, h = self.build()
        obj = hierarchy_to_json_obj(h, g)
        back = hierarchy_from_json_obj(json.loads(json_dumps_stable(obj)), g)
        assert back.leaf_ids == h.leaf_ids
        assert back.roots == h.roots
        assert back.attached_singletons == h.attached_singletons
        assert set(back.clusters) == set(h.clusters)
        for cid, c in h.clusters.items():
            rc = back.clusters[cid]
            assert (rc.members, rc.level, rc.kind, rc.parent) == (
                c.members,
                c.level,
                c.kind,
                c.parent,
            )
            assert sorted(rc.children) == sorted(c.children)

    def test_unknown_attached_singleton_rejected(self):
        g, h = self.build()
        obj = hierarchy_to_json_obj(h, g)
        obj["attached_singletons"] = {"zzz": h.roots[0]}
        with pytest.raises(InputError, match=r"^attached_singletons: unknown node 'zzz'$"):
            hierarchy_from_json_obj(obj, g)

    def test_members_out_of_order_and_repeated_read_back_sorted(self):
        """A hand-written cluster whose members are shuffled and repeated reads back as the written one does."""
        g, h = self.build()
        obj = hierarchy_to_json_obj(h, g)
        messy = deepcopy(obj)
        for entry in messy["clusters"]:
            names = entry["members"]
            entry["members"] = names[::-1] + names[: len(names) // 2 + 1]
        assert any(len(entry["members"]) > 2 for entry in messy["clusters"])
        back = hierarchy_from_json_obj(messy, g)
        assert back == hierarchy_from_json_obj(obj, g) == h
        assert all(v is g._ids[v] for c in back.clusters.values() for v in c.members)

    def test_merge_of_roundtripped_hierarchy_matches_direct(self):
        g, h = self.build()
        back = hierarchy_from_json_obj(hierarchy_to_json_obj(h, g), g)
        direct, _ = merge_small_clusters(g, deepcopy(h), MergeMode.RESIDUAL_AND_TWO_HOP)
        via_json, _ = merge_small_clusters(g, back, MergeMode.RESIDUAL_AND_TWO_HOP)
        assert hierarchy_to_json_obj(direct, g) == hierarchy_to_json_obj(via_json, g)

    def test_missing_field_rejected(self):
        g, _ = self.build()
        with pytest.raises(InputError):
            hierarchy_from_json_obj({"not_clusters": []}, g)


def test_sample_tsv_layout():
    edges, nodes = three_level_example()
    g = largest_connected_component(load_graph(edges, nodes))
    h = build_hierarchy(g, 16)
    result = round_robin_sample(h, g, 200)
    text = sample_to_tsv(result, g)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#src\tdst\tcommunity\tcost")
    for line, u, w, cid, price in zip(lines[1:], result.sources, result.targets, result.communities, result.costs):
        src, dst, comm, cost = line.split("\t")
        assert (node_id(g, src), node_id(g, dst)) == (u, w)
        assert int(comm) == cid and int(cost) == price


# External ids that exercise every escape json.dumps makes: quotes,
# backslashes, control characters, non-ASCII, astral code points and lone
# surrogates (a Graph takes any str as an id, and a JSONL "\ud800" decodes to one).
external_ids = st.text(
    st.sampled_from(['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "/", "a", "B", "0",
                     "\u00e9", "\u6f22", "\u2028", "\U0001f600", "\ud800", "\udfff"])
    | st.characters(),
    min_size=1,
    max_size=5,
)


@st.composite
def graphs(draw, max_nodes=8):
    """Edgeless graphs over unique external ids, ascending as a Graph requires: the writers read only the ids."""
    names = sorted(draw(st.lists(external_ids, min_size=1, max_size=max_nodes, unique=True)))
    return Graph([0] * (len(names) + 1), [], names, [0] * len(names))


def node_sets(g):
    return st.sets(st.integers(0, g.n - 1), max_size=g.n)


@st.composite
def hierarchies(draw):
    g = draw(graphs())
    ids = draw(st.lists(st.integers(0, 40), max_size=6, unique=True))
    some_id = st.sampled_from(ids) if ids else st.nothing()
    clusters = {
        cid: Cluster(
            cid,
            draw(node_sets(g)),
            draw(st.integers(0, 5)),
            draw(st.sampled_from(CLUSTER_KINDS)),
            draw(st.none() | some_id),
            [],
            frozenset(draw(node_sets(g))),
        )
        for cid in ids
    }
    h = Hierarchy(
        clusters=clusters,
        roots=draw(st.lists(some_id, max_size=3)) if ids else [],
        attached_singletons=draw(
            st.dictionaries(st.integers(0, g.n - 1), some_id, max_size=g.n) if ids else st.just({})
        ),
        max_level=draw(st.integers(0, 5)),
        max_cluster_size=draw(st.integers(2, 200)),
        leaf_ids=set(draw(st.lists(some_id, max_size=6))) if ids else set(),
    )
    return h, g


def written(writer, *args) -> str:
    out = StringIO()
    writer(out, *args)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(case=hierarchies())
def test_hierarchy_writer_matches_oracle(case):
    h, g = case
    assert written(write_hierarchy_json, h, g) == json_dumps_stable(hierarchy_to_json_obj(h, g))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_decomposition_writer_matches_oracle(data):
    g = data.draw(graphs(max_nodes=12))
    dec = CoreDecomposition(data.draw(st.lists(st.integers(0, 30), min_size=g.n, max_size=g.n)),
                            data.draw(st.integers(0, 30)))
    payload = {"cores": {g.external_ids[v]: dec.core[v] for v in range(g.n)}, "max_core": dec.max_core}
    assert written(write_decomposition_json, dec, g) == json_dumps_stable(payload)


#: 0, and each power of ten with the value below it, up to int64's largest:
#: every width a decimal in int64 can take, at both of its ends.
DECIMAL_EDGES = [0, *(10**j + d for j in range(1, 19) for d in (-1, 0)), 2**63 - 1]

#: Columns the writer prints by digits (nonnegative int64), and by ``str``
#: (negative int64, and exact ints past int64 in an object array).
NUMBERS = {
    "digits": st.sampled_from(DECIMAL_EDGES) | st.integers(0, 2**63 - 1),
    "signed": st.integers(-(2**63), 2**63 - 1),
    "exact": st.integers(-(2**70), 2**70) | st.sampled_from([2**63, 2**64, 10**20, -(2**63) - 1]),
}


def sample_of(sources, targets, communities, costs) -> SampleResult:
    """Picks in the columns the sampler makes: int32 nodes, int64-or-exact communities and costs."""
    nodes = [np.array(column, dtype=np.int32) for column in (sources, targets)]
    return SampleResult(*nodes, _int64_or_exact(communities), _int64_or_exact(costs), 0, [], 0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sample_writer_matches_oracle(data):
    """Byte for byte against ``sample_to_tsv``, across chunks of 1, 2, 7 and the default picks."""
    g = data.draw(graphs())
    k = data.draw(st.integers(0, 20))
    node = st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k)
    sources, targets = data.draw(node), data.draw(node)
    communities, costs = (
        data.draw(st.lists(NUMBERS[data.draw(st.sampled_from(sorted(NUMBERS)))], min_size=k, max_size=k))
        for _ in range(2)
    )
    result = sample_of(sources, targets, communities, costs)
    with patch.object(fileio, "_SAMPLE_CHUNK", data.draw(st.sampled_from([1, 2, 7, fileio._SAMPLE_CHUNK]))):
        assert written(write_sample_tsv, result, g) == sample_to_tsv(result, g)


@pytest.mark.parametrize("chunk", [1, 2, 7, fileio._SAMPLE_CHUNK])
def test_sample_writer_pinned_cases(chunk, monkeypatch):
    """Zero picks, every decimal width in both columns, and exact ints past int64, at each chunk size."""
    monkeypatch.setattr(fileio, "_SAMPLE_CHUNK", chunk)
    g = Graph([0] * 5, [], ["a", "\u00e9t\u00e9", "\ud800", "\U0001f600"], [0] * 4)
    empty = sample_of([], [], [], [])
    assert written(write_sample_tsv, empty, g) == sample_to_tsv(empty, g) == "#src\tdst\tcommunity\tcost\n"
    k = len(DECIMAL_EDGES)
    ends = [i % 4 for i in range(k)], [(i * 3 + 1) % 4 for i in range(k)]
    widths = sample_of(*ends, DECIMAL_EDGES, DECIMAL_EDGES[::-1])
    assert widths.communities.dtype == widths.costs.dtype == np.int64
    text = written(write_sample_tsv, widths, g)
    assert text == sample_to_tsv(widths, g)
    assert text.splitlines()[-1] == f"\u00e9t\u00e9\ta\t{2**63 - 1}\t0"
    exact = sample_of([0, 1, 2], [3, 2, 1], [2**63, -1, 10**20], [0, 2**64, -(2**63)])
    assert exact.communities.dtype == exact.costs.dtype == object
    assert written(write_sample_tsv, exact, g) == sample_to_tsv(exact, g)


class CountingSink:
    """A text sink that keeps nothing: it counts its ``write`` calls and characters."""

    def __init__(self):
        self.writes = self.chars = 0

    def write(self, text: str) -> int:
        self.writes += 1
        self.chars += len(text)
        return len(text)


def test_sample_writer_memory_is_set_by_the_chunk_not_the_picks():
    """On 120k picks the writer peaks, above its inputs, within a bound per chunk, in one write per chunk.

    1,000 ids, so the encoded ids and their offsets take under 20 kB. Each
    line is about 32 bytes, and a chunk's bytes are assembled with a few
    int64 arrays per byte of one field, so the peak is set by the chunk:
    it measured 290 bytes per pick of a chunk at 4,096 and 16,384 picks
    per chunk (1.1 and 4.4 MiB), while the text written is 3.6 MiB.
    """
    rng = np.random.default_rng(7)
    g = Graph([0] * 1001, [], [f"node{i:05d}" for i in range(1000)], [0] * 1000)
    k = 120_000
    ends = rng.integers(0, 1000, size=(2, k))
    result = sample_of(*ends, rng.integers(0, 10**6, size=k).tolist(), rng.integers(0, 10**4, size=k).tolist())
    sink = CountingSink()
    _, peak = traced_peak(write_sample_tsv, sink, result, g)
    chunk = fileio._SAMPLE_CHUNK
    assert sink.writes <= math.ceil(k / chunk) + 1
    assert sink.chars > 30 * k
    assert peak <= 400 * chunk, f"peak {peak} B is {peak / chunk:.0f} B per pick of a {chunk}-pick chunk"


@pytest.mark.parametrize(
    "clusters,roots,attached",
    [
        ({}, [], {}),  # no clusters at all
        ({0: Cluster(0, {0, 1}, 0, "root")}, [], {}),  # one cluster, null parent, no anchors
        ({0: Cluster(0, set(), 0, "root"), 1: Cluster(1, {1}, 1, "core", 0, [], frozenset({1}))},
         [0], {0: 1}),
    ],
    ids=["empty", "single-cluster", "empty-members"],
)
def test_hierarchy_writer_edge_cases(clusters, roots, attached):
    g = Graph([0, 0, 0], [], ['a"\\', "z\u00e9"], [0, 0])
    h = Hierarchy(clusters, roots, attached, 1, 2, set(clusters))
    assert written(write_hierarchy_json, h, g) == json_dumps_stable(hierarchy_to_json_obj(h, g))


def test_writers_match_oracle_on_the_example():
    edges, nodes = three_level_example()
    g = largest_connected_component(load_graph(edges, nodes))
    dec = core_numbers(g)
    h = build_hierarchy(g, 16)
    merged, _ = merge_small_clusters(g, deepcopy(h), MergeMode.RESIDUAL_AND_TWO_HOP)
    payload = {"max_core": dec.max_core, "cores": {g.external_ids[v]: dec.core[v] for v in range(g.n)}}
    assert written(write_decomposition_json, dec, g) == json_dumps_stable(payload)
    for hier in (h, merged):
        assert written(write_hierarchy_json, hier, g) == json_dumps_stable(hierarchy_to_json_obj(hier, g))
    result = round_robin_sample(merged, g, 200)
    assert written(write_sample_tsv, result, g) == sample_to_tsv(result, g)
