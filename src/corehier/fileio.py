"""Readers and writers for the on-disk formats.

Edge files are TSV (``src<TAB>dst[<TAB>weight]``, ``#`` comments allowed,
UTF-8); weights are validated but discarded since every algorithm here is
unweighted. Node files are JSON Lines with ``id`` required and ``label``,
``tokens`` or ``text`` optional; ``text`` is converted to a token count by
the supplied estimator, and ``label`` is accepted and ignored, as no stage
reads it. JSON artifacts are serialized with sorted keys, two-space
indentation and a trailing newline so reruns are byte-identical.

The readers build no object per record. The node reader returns
columns, lists of ids and token counts. The edge reader returns the
endpoints as :class:`~corehier.graph.EdgeSpans`, UTF-8 byte spans of one
buffer, so no endpoint becomes a ``str``: a clean file keeps its own
bytes, with 16 bytes of offsets per endpoint. Each reader has a bulk path
for the clean layout of its writer: an edge file whose every line is
``src<TAB>dst`` with nothing to strip, and a node file whose every line
is a record as :func:`nodes_to_jsonl` writes it, are parsed on their
bytes by array operations: the structural bytes (tabs and newlines;
newlines and quotes) are found first, and each field is read at its
position. A file with any other line break than "\n" (``str.splitlines``
honours nine more) takes neither. Every other file is read line by line
from the decoded text, which gives every record and every error message
and line number; the bulk paths take only files on which they give the
same endpoints or columns. On a 2-core host, at 58.8k nodes and 97k
edges, the bulk paths read the edges in about 10 ms and the nodes in
about 25 ms, against about 75 ms each line by line.

The large artifacts are streamed: :func:`write_decomposition_json` and
:func:`write_hierarchy_json` write to an open text file piece by piece
(one cluster or one map entry at a time), and produce exactly the bytes
of :func:`json_dumps_stable` on the matching object
(:func:`hierarchy_to_json_obj` for a hierarchy). They write ids in node
order, which is their string order, escape each id once with the C
function ``json.dumps`` uses, and hold at most one cluster's text.
Building the object and encoding it with ``indent=2`` instead runs the
pure-Python encoder and holds every piece of the document at once: at
58.8k nodes a hierarchy took 0.55 s that way against 0.14 s streamed, and
its peak memory grew by about 20 MB against none.

:func:`write_sample_tsv` produces the bytes of :func:`sample_to_tsv` from
the sample's arrays without a ``str`` per line: it encodes the ids once,
then assembles each chunk of ``_SAMPLE_CHUNK`` lines as one byte array by
array gathers, and writes it as one ``str``. On a 2-core host, on the
205k picks of a 30k-node planted-blocks graph, this took 83-86 ms
against 187-254 ms for one f-string per line, and the chunk's arrays
peaked at 1.4 MiB whatever the number of picks.
"""

from __future__ import annotations

import json
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from operator import lt
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cores import CoreDecomposition
from .errors import InputError
from .graph import _CHUNK, EdgeSpans, Graph, NodeMeta, _encode, _fixed_keys
from .hierarchy import CLUSTER_KINDS, Cluster, Hierarchy
from .sampling import SampleResult, TokenModel


def json_dumps_stable(obj) -> str:
    """``obj`` as sorted-key, two-space-indented JSON with a trailing newline.

    ``indent`` makes :mod:`json` use its pure-Python encoder, which keeps
    every piece of the document in one list before joining it. This is
    the reference format and the oracle the streaming writers are tested
    against; the pipeline uses it only for small payloads (stats, merge
    report, lab reports).
    """
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Encoded JSON items as an ``indent=2`` list, or object with ``"{}"``, items at ``pad``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}" + f",\n{pad}".join(items) + f"\n{pad[:-2]}{brackets[1]}"


def _read_bytes(path: str | Path, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _decode(raw: bytes, path: str | Path) -> str:
    """``raw`` decoded as UTF-8; bad bytes raise InputError as ``path:line``.

    The line counts the newlines before the first bad byte.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: invalid UTF-8 ({exc.reason})") from None


def read_utf8(path: str | Path, what: str) -> str:
    """Text of a UTF-8 file; unreadable files and bad bytes raise InputError (see ``_decode``)."""
    return _decode(_read_bytes(path, what), path)


def _line_blocks(raw: bytes) -> Iterator[memoryview]:
    """``raw`` cut into consecutive blocks, as views that copy nothing.

    Each block ends at the first line end ``_NODE_BLOCK`` bytes or more
    past its start, or at the end of ``raw``, so a line longer than a
    block makes a block of its own. No multi-byte UTF-8 character holds a
    newline byte, so no cut splits one.
    """
    view = memoryview(raw)
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start + _NODE_BLOCK - 1) + 1 or len(raw)
        yield view[start:end]
        start = end


def _check_utf8(raw: bytes, path: str | Path) -> None:
    """Raise InputError as ``_decode`` does if ``raw`` is not UTF-8, holding no more than one block's text.

    An ASCII ``raw`` passes at once. Any other is decoded one block of
    ``_line_blocks`` at a time. At the first bad block, ``_decode`` decodes
    the whole file for the ``path:line`` message. O(len(raw)).
    """
    if raw.isascii():
        return
    for block in _line_blocks(raw):
        try:
            str(block, "utf-8")
        except UnicodeDecodeError:
            _decode(raw, path)


#: The line breaks ``str.splitlines`` honours besides "\n": six ASCII bytes
#: ("\x0b", "\x0c", "\r", "\x1c"-"\x1e"), and three characters that UTF-8
#: writes in two or three bytes, which only a file that is not ASCII holds.
#: A text without them splits into its lines at "\n".
_ASCII_BREAKS = [11, 12, 13, 28, 29, 30]
_WIDE_BREAKS = [brk.encode("utf-8") for brk in "\x85\u2028\u2029"]

#: Bytes ``str.strip`` removes that are ASCII: "\t", "\n", "\x0b"-"\r", "\x1c"-"\x1f", " ".
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True

#: The other characters ``str.strip`` removes, less the three line breaks
#: of ``_WIDE_BREAKS``, as their UTF-8 bytes read as big-endian ints,
#: ascending: U+00A0 in two bytes; U+1680, U+2000-U+200A, U+202F, U+205F
#: and U+3000 in three. Two-byte keys are below 0x10000, three-byte keys
#: above 0xE00000.
_WIDE_SPACES = np.array(
    [
        int.from_bytes(ch.encode("utf-8"), "big")
        for ch in "\u00a0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u202f\u205f\u3000"
    ],
    dtype=np.uint64,
)

#: The bytes of an edge file by role, a ``bytes.translate`` table: 1 ends
#: a field of a clean file ("\t" and "\n"), 2 is an ASCII line break that
#: a clean file does not hold, 0 is any other byte.
_TSV_ROLE = bytes(1 if byte in (9, 10) else 2 if byte in _ASCII_BREAKS else 0 for byte in range(256))

#: The bytes a node record as :func:`nodes_to_jsonl` writes it may
#: hold: all but the control bytes (the ASCII line breaks among them) and
#: the backslash, which starts every escape; "\n" ends the record.
_NODE_TEXT = bytes(byte for byte in range(256) if byte == 10 or (byte >= 32 and byte != ord("\\")))

#: The fixed text of a clean node record, before the id, after the id and
#: after the label: ``{"id": "…", "label": "…", "tokens": N}``.
_ID_OPEN = np.frombuffer(b'{"id": "', dtype=np.uint8)
_LABEL_OPEN = np.frombuffer(b'", "label": "', dtype=np.uint8)
_TOKENS_OPEN = np.frombuffer(b'", "tokens": ', dtype=np.uint8)

#: The fewest bytes of a block of :func:`_line_blocks`, the unit in which
#: files are decoded and node files parsed; it bounds the transient arrays.
_NODE_BLOCK = 1 << 18


def _clean_tsv_spans(raw: bytes) -> EdgeSpans | None:
    """The spans of every field in order, if each line of ``raw`` is ``src<TAB>dst`` with nothing to strip.

    ``raw`` is valid UTF-8. The layout: the file has lines (the last newline
    optional) and no line break but "\n"; every line has exactly one tab;
    no field is empty or starts or ends with whitespace; no line starts
    with ``#``. Any other file gives None. The layout is checked on the
    bytes with array operations. One table lookup over the bytes finds the
    field ends and the ASCII line breaks; the multi-byte breaks are
    searched for only in a file that is not ASCII. A field whose first or
    last byte is not ASCII has the UTF-8 bytes of its first and last two
    and three bytes compared with ``_WIDE_SPACES``: as ``raw`` is UTF-8,
    a field starts (ends) with one of those characters exactly when its
    first (last) bytes are that character's bytes. These fields are
    checked ``_CHUNK`` at a time. Besides the spans it returns, the check
    holds about two bytes per file byte.
    """
    if not raw or (not raw.isascii() and any(brk in raw for brk in _WIDE_BREAKS)):
        return None
    data = np.frombuffer(raw, dtype=np.uint8)
    roles = np.frombuffer(raw.translate(_TSV_ROLE), dtype=np.uint8)
    if roles.max() > 1:
        return None
    ends = np.flatnonzero(roles)  # every tab and newline
    del roles
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))  # and the end of a last line without one
    # The fields must end at a tab and a newline in turn, the last at the end.
    if len(ends) % 2 or (data[ends[0:-1:2]] != 9).any() or (data[ends[1:-1:2]] != 10).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    if not (starts < ends).all():
        return None
    firsts, lasts = data[starts], data[ends - 1]
    if _ASCII_SPACE[firsts].any() or _ASCII_SPACE[lasts].any() or (firsts[0::2] == ord("#")).any():
        return None
    wide = np.flatnonzero((firsts >= 0x80) | (lasts >= 0x80))
    del firsts, lasts
    for first in range(0, len(wide), _CHUNK):
        part = wide[first:first + _CHUNK]
        field_starts, field_ends = starts[part], ends[part]
        for width in (2, 3):
            fits = field_ends - field_starts >= width
            for at in (field_starts[fits], field_ends[fits] - width):
                keys = _fixed_keys(data, at, width)
                found = np.searchsorted(_WIDE_SPACES, keys)
                np.minimum(found, len(_WIDE_SPACES) - 1, out=found)
                if (_WIDE_SPACES[found] == keys).any():
                    return None
    return EdgeSpans(raw, starts, ends)


def read_edges_tsv(path: str | Path) -> EdgeSpans:
    """Parse an edge list file into its endpoints, as byte spans of the file (see :class:`EdgeSpans`).

    A clean file, whose every line is ``src<TAB>dst`` with nothing to strip
    (see ``_clean_tsv_spans``), is split at once, at every tab and newline,
    and no endpoint becomes a ``str``. Any other file goes to the
    line-by-line reader, which skips blank and ``#`` lines, strips the
    fields, checks the weight column and fails on a malformed line with its
    line number. Bad UTF-8 is reported first, wherever it lies (see
    ``_check_utf8``). Memory: the file's bytes, kept as the spans' buffer,
    plus 16 bytes per endpoint; the line-by-line reader also holds the
    decoded text and one ``str`` per endpoint until it encodes them.
    """
    path = Path(path)
    raw = _read_bytes(path, "edge file")
    _check_utf8(raw, path)
    spans = _clean_tsv_spans(raw)
    if spans is None:
        return _read_edges_by_line(path, _decode(raw, path))
    return spans


def _read_edges_by_line(path: Path, text: str) -> EdgeSpans:
    """The spans of :func:`read_edges_tsv`, one line of ``text`` (read from ``path``) at a time.

    The stripped fields are collected as ``str`` and encoded at the end.
    """
    names: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) not in (2, 3) or not parts[0].strip() or not parts[1].strip():
            raise InputError(f"{path}:{lineno}: expected 'src<TAB>dst[<TAB>weight]'")
        if len(parts) == 3:
            try:
                float(parts[2])
            except ValueError:
                raise InputError(f"{path}:{lineno}: weight {parts[2]!r} is not a number") from None
        names.append(parts[0].strip())
        names.append(parts[1].strip())
    return EdgeSpans.encode(names)


def read_nodes_jsonl(path: str | Path, token_model: TokenModel | None = None) -> tuple[list[str], list[int]]:
    """Parse a node metadata file into its id and token count columns.

    ``text`` fields become estimated token counts; a ``label`` of any JSON
    value is accepted and not kept. A file whose every line is a record
    exactly as :func:`nodes_to_jsonl` writes it, ``{"id": "…", "label":
    "…", "tokens": N}`` with no escape or control character in the strings
    and at most 18 digits in N, and that has no line break but "\n", is
    parsed on its bytes by array operations (see ``_clean_node_columns``).
    Any other file goes to the line-by-line reader, which gives every
    error with its line number; bad UTF-8 is reported first, wherever it
    lies. Memory: the file's bytes and the columns, plus transient arrays
    bounded by a block of about ``_NODE_BLOCK`` bytes; the line-by-line
    reader also holds the decoded text.
    """
    path = Path(path)
    raw = _read_bytes(path, "node file")
    _check_utf8(raw, path)
    columns = _clean_node_columns(raw)
    if columns is None:
        return _read_nodes_by_line(path, _decode(raw, path), token_model or TokenModel())
    return columns


def _clean_node_columns(raw: bytes) -> tuple[list[str], list[int]] | None:
    """The columns of :func:`read_nodes_jsonl`, if every line of ``raw`` is a clean record.

    ``raw`` is valid UTF-8 (see ``_check_utf8``). None if ``raw`` holds a
    byte that no clean record holds (one ``bytes.translate`` over a
    256-byte table, which copies only such bytes) or a multi-byte line
    break (searched for only when ``raw`` is not ASCII), or if a line is
    not a clean record. The lines are parsed one block of ``_line_blocks``
    at a time (see ``_clean_node_block``), so no transient array grows
    with the file.
    """
    if raw.translate(None, _NODE_TEXT) or (not raw.isascii() and any(brk in raw for brk in _WIDE_BREAKS)):
        return None
    ids: list[str] = []
    counts: list[int] = []
    for block in _line_blocks(raw):
        columns = _clean_node_block(np.frombuffer(block, dtype=np.uint8))
        if columns is None:
            return None
        ids += columns[0]
        counts += columns[1]
    return ids, counts


def _clean_node_block(data: np.ndarray) -> tuple[list[str], list[int]] | None:
    """The columns of the whole lines in ``data``, if each is a clean node record; else None.

    ``data`` is valid UTF-8 and holds no byte that ``_NODE_TEXT`` leaves
    out. The structural bytes are found first, then each field is read at
    its position (the idea of Langdale and Lemire, "Parsing gigabytes of
    JSON per second", VLDB J. 28, 2019). The newlines end the lines, and a
    clean line holds exactly ten quotes, so the quotes, taken ten at a
    time, are the lines' quotes in order. The fixed text before the id,
    after the id and after the label is compared as byte windows at the
    line start and at the id's and the label's closing quote; these
    windows also place every other quote of the line. The token digits, 1
    to 18 and no leading zero, are folded into int64 one column at a time.
    The ids' bytes, each with its closing quote, are gathered by one mask,
    decoded at once and split at the quotes. Cost: O(len(data)) array
    work and one ``str`` per line; transient memory about 3 bytes per
    byte of ``data``.
    """
    ends = np.flatnonzero(data == 10)
    if not len(ends) or ends[-1] != len(data) - 1:
        ends = np.append(ends, len(data))  # the file's last line has no newline
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    quotes = np.flatnonzero(data == ord('"'))
    if len(quotes) != 10 * len(ends):
        return None
    quotes = quotes.reshape(-1, 10)
    if (quotes[:, 0] < starts).any() or (quotes[:, 9] >= ends).any():
        return None  # some line holds other than ten quotes
    id_end, label_end = quotes[:, 3].copy(), quotes[:, 7].copy()
    del quotes
    digits = label_end + len(_TOKENS_OPEN)
    widths = ends - 1 - digits
    if (widths < 1).any() or (widths > 18).any() or (id_end <= starts + len(_ID_OPEN)).any():
        return None  # the token count has 1 to 18 digits, the id is not empty
    if not (
        (sliding_window_view(data, len(_ID_OPEN))[starts] == _ID_OPEN).all()
        and (sliding_window_view(data, len(_LABEL_OPEN))[id_end] == _LABEL_OPEN).all()
        and (sliding_window_view(data, len(_TOKENS_OPEN))[label_end] == _TOKENS_OPEN).all()
        and (data[ends - 1] == ord("}")).all()
        and not ((widths > 1) & (data[digits] == ord("0"))).any()
    ):
        return None
    tokens = np.zeros(len(ends), dtype=np.int64)
    for column in range(int(widths.max())):
        more = widths > column
        digit = data[np.minimum(digits + column, ends - 1)] - np.uint8(ord("0"))
        if (digit[more] > 9).any():
            return None
        tokens[more] = tokens[more] * 10 + digit[more]
    # Runs of skipped and kept bytes in turn: each id and its closing quote is kept.
    runs = np.diff(np.column_stack((starts + len(_ID_OPEN), id_end + 1)).ravel(), prepend=0, append=len(data))
    keep = np.zeros(len(runs), dtype=bool)
    keep[1::2] = True
    ids = str(data[np.repeat(keep, runs)], "utf-8").split('"')
    ids.pop()  # the empty text after the last quote
    return ids, tokens.tolist()


def parse_json(text: str, where) -> object:
    """``json.loads(text)``; invalid JSON raises :class:`InputError` naming ``where``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{where}: invalid JSON: nested too deeply") from None
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise InputError(f"{where}: invalid JSON: {getattr(exc, 'msg', exc)}") from None


def _read_nodes_by_line(path: Path, text: str, tm: TokenModel) -> tuple[list[str], list[int]]:
    """The columns of :func:`read_nodes_jsonl`, one line of ``text`` (read from ``path``) at a time.

    Each line is decoded as if by ``json.loads``: the decoder's scanner reads
    the value that starts at the first character, and a line it does not
    consume whole (surrounding whitespace, extra data, a syntax error) goes
    through ``json.loads`` for its result or its error message. Skipping
    ``json.loads``'s whitespace handling makes a clean line about 2.5x cheaper.
    """
    scan = json.JSONDecoder().scan_once
    ids: list[str] = []
    counts: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj, end = scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):
            obj = parse_json(line, f"{path}:{lineno}")
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str) or not obj["id"]:
            raise InputError(f"{path}:{lineno}: node records need a string 'id'")
        tokens = obj.get("tokens")
        if tokens is None:
            text = obj.get("text")
            if text is not None and not isinstance(text, str):
                raise InputError(f"{path}:{lineno}: 'text' must be a string")
            tokens = tm.estimate(text or "")
        elif not isinstance(tokens, int) or isinstance(tokens, bool) or tokens < 0:
            raise InputError(f"{path}:{lineno}: 'tokens' must be a nonnegative integer")
        ids.append(obj["id"])
        counts.append(tokens)
    return ids, counts


def edges_to_tsv(records: list[tuple[str, str]]) -> str:
    return "\n".join(f"{src}\t{dst}" for src, dst in records) + "\n"


def nodes_to_jsonl(records: list[NodeMeta]) -> str:
    fields = ({"id": rec.external_id, "label": rec.label, "tokens": rec.token_count} for rec in records)
    return "\n".join(json.dumps(obj, sort_keys=True) for obj in fields) + "\n"


def hierarchy_to_json_obj(h: Hierarchy, g: Graph) -> dict:
    """JSON-ready view of a hierarchy with external node ids."""
    ext = g.external_ids
    clusters = []
    for cid in sorted(h.clusters):
        c = h.clusters[cid]
        clusters.append(
            {
                "id": c.id,
                "level": c.level,
                "kind": c.kind,
                "parent": c.parent,
                "leaf": h.is_leaf(cid),
                "members": sorted(ext[v] for v in c.members),
                "anchors": sorted(ext[v] for v in c.anchors),
            }
        )
    return {
        "clusters": clusters,
        "attached_singletons": {ext[v]: cid for v, cid in sorted(h.attached_singletons.items())},
        "roots": list(h.roots),
        "max_level": h.max_level,
        "max_cluster_size": h.max_cluster_size,
    }


def write_decomposition_json(out: TextIO, dec: CoreDecomposition, g: Graph) -> None:
    """Write ``{"cores": {external id: core number}, "max_core": …}`` to ``out``.

    The bytes are those of :func:`json_dumps_stable` on that object, written
    one node at a time in node order, which is external-id order (see
    :class:`~corehier.graph.Graph`).
    """
    out.write('{\n  "cores": {')
    sep = "\n    "
    for name, k in zip(g.external_ids, dec.core):
        out.write(f"{sep}{_quote(name)}: {k}")
        sep = ",\n    "
    out.write(f'\n  }},\n  "max_core": {dec.max_core}\n}}\n')


def write_hierarchy_json(out: TextIO, h: Hierarchy, g: Graph) -> None:
    """Write ``json_dumps_stable(hierarchy_to_json_obj(h, g))`` to ``out``, one cluster at a time.

    Names are written in node order, the string order that function sorts
    them in (see :class:`~corehier.graph.Graph`): members in their list
    order, anchors and attached singletons sorted by node id. Cost: one
    quoted name per member or anchor entry and an int sort of the anchors,
    O(1) per cluster besides; an empty list is written as ``[]``, and each
    kind is quoted once.
    """
    ext = g.external_ids
    leaf_ids = h.leaf_ids
    kinds = {kind: _quote(kind) for kind in CLUSTER_KINDS}
    attached = [f"{_quote(ext[v])}: {cid}" for v, cid in sorted(h.attached_singletons.items())]
    out.write(f'{{\n  "attached_singletons": {_json_block(attached, "    ", "{}")},\n  "clusters": [')
    entry = ",\n        "

    def names(nodes) -> str:  # _json_block of the quoted names of nodes, ascending, at a cluster field's depth
        return f"[\n        {entry.join(map(_quote, map(ext.__getitem__, nodes)))}\n      ]" if nodes else "[]"

    sep = "\n    "
    for cid in sorted(h.clusters):
        c = h.clusters[cid]
        members, anchors = names(c.members), names(sorted(c.anchors))
        out.write(
            f'{sep}{{\n      "anchors": {anchors},\n      "id": {c.id},\n'
            f'      "kind": {kinds[c.kind]},\n      "leaf": {"true" if cid in leaf_ids else "false"},\n'
            f'      "level": {c.level},\n      "members": {members},\n'
            f'      "parent": {"null" if c.parent is None else c.parent}\n    }}'
        )
        sep = ",\n    "
    roots = _json_block([str(r) for r in h.roots], "    ")
    out.write(
        ("\n  ]" if h.clusters else "]")
        + f',\n  "max_cluster_size": {h.max_cluster_size},\n  "max_level": {h.max_level},\n'
        f'  "roots": {roots}\n}}\n'
    )


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def hierarchy_from_json_obj(obj: dict, g: Graph) -> Hierarchy:
    """Rebuild a hierarchy over ``g`` from its JSON form.

    Every field that :func:`write_hierarchy_json` writes is required; the
    ``leaf`` flags are the leaf registry, which the childless clusters do
    not give (see :class:`Hierarchy`). Malformed input raises InputError,
    naming the cluster where there is one: a missing field, a container or
    value of the wrong type, a member that is not a node of ``g``, a
    repeated id, a parent that is not a cluster, a parent chain that
    loops, a cluster marked leaf that has children and a ``roots`` entry
    that has a parent. The checks are O(1) per cluster on top of one
    lookup and one comparison per member in an id index built in O(n),
    which maps to the graph's own node ints (``g._ids``), so the member
    lists make no int. A list the writer wrote is strictly ascending and is
    kept as read; only one out of order or with repeats passes through a
    set and a sort.
    """
    lookup = dict(zip(g.external_ids, g._ids)).__getitem__
    try:
        if not isinstance(obj, dict) or not isinstance(obj["clusters"], list) or not obj["clusters"]:
            raise InputError("hierarchy JSON must be an object with a nonempty 'clusters' list")
        clusters: dict[int, Cluster] = {}
        leaf_ids: set[int] = set()
        for entry in obj["clusters"]:
            if not isinstance(entry, dict) or not _is_int(entry["id"]):
                raise InputError("every cluster must be an object with an integer 'id'")
            cid, names, anchor_names = entry["id"], entry["members"], entry["anchors"]
            level, kind, parent, leaf = entry["level"], entry["kind"], entry["parent"], entry["leaf"]
            if cid in clusters:
                raise InputError(f"cluster {cid}: duplicate id")
            if not isinstance(names, list) or not isinstance(anchor_names, list):
                raise InputError(f"cluster {cid}: 'members' and 'anchors' must be lists")
            if not _is_int(level) or kind not in CLUSTER_KINDS or not (parent is None or _is_int(parent)):
                raise InputError(f"cluster {cid}: bad level {level!r}, kind {kind!r} or parent {parent!r}")
            if not isinstance(leaf, bool):
                raise InputError(f"cluster {cid}: 'leaf' must be true or false")
            try:
                members = list(map(lookup, names))
                anchors = frozenset(map(lookup, anchor_names))
            except KeyError as exc:
                raise InputError(f"cluster {cid}: unknown node {exc.args[0]!r}") from None
            except TypeError:
                raise InputError(f"cluster {cid}: node ids must be strings") from None
            if not all(map(lt, members, islice(members, 1, None))):
                members = set(members)  # out of order or repeated: Cluster sorts the set
            clusters[cid] = Cluster(cid, members, level, kind, parent, [], anchors)
            if leaf:
                leaf_ids.add(cid)
        for c in clusters.values():
            if c.parent is not None:
                if c.parent not in clusters:
                    raise InputError(f"cluster {c.id}: unknown parent {c.parent!r}")
                clusters[c.parent].children.append(c.id)
        reached = [cid for cid, c in clusters.items() if c.parent is None]
        for cid in reached:  # grows while iterating: a walk down from the parentless clusters
            reached.extend(clusters[cid].children)
        if len(reached) < len(clusters):
            raise InputError(f"cluster {min(clusters.keys() - set(reached))}: parent chain loops")
        for c in clusters.values():
            c.children.sort()
        for cid in sorted(leaf_ids):
            if clusters[cid].children:
                raise InputError(f"cluster {cid}: marked leaf but has children {clusters[cid].children}")
        roots, max_level = obj["roots"], obj["max_level"]
        max_size, attached_in = obj["max_cluster_size"], obj["attached_singletons"]
        if not (
            isinstance(roots, list) and all(_is_int(r) and r in clusters for r in roots)
            and _is_int(max_level) and _is_int(max_size) and isinstance(attached_in, dict)
            and all(_is_int(cid) and cid in clusters for cid in attached_in.values())
        ):
            raise InputError("bad 'roots', 'max_level', 'max_cluster_size' or 'attached_singletons'")
        for cid in roots:
            if clusters[cid].parent is not None:
                raise InputError(f"cluster {cid}: listed in 'roots' but has parent {clusters[cid].parent}")
        try:
            attached = {lookup(ext): cid for ext, cid in attached_in.items()}
        except KeyError as exc:
            raise InputError(f"attached_singletons: unknown node {exc.args[0]!r}") from None
        return Hierarchy(
            clusters=clusters,
            roots=roots,
            attached_singletons=attached,
            max_level=max_level,
            max_cluster_size=max_size,
            leaf_ids=leaf_ids,
        )
    except KeyError as exc:
        raise InputError(f"hierarchy JSON is missing field {exc}") from None


def sample_to_tsv(result: SampleResult, g: Graph) -> str:
    """Selected edges as ``src<TAB>dst<TAB>community<TAB>cost`` lines, one f-string per line.

    The reference format, and the oracle :func:`write_sample_tsv` is
    tested against.
    """
    ext = g.external_ids
    lines = ["#src\tdst\tcommunity\tcost"]
    for u, w, cid, cost in zip(result.sources, result.targets, result.communities, result.costs):
        lines.append(f"{ext[u]}\t{ext[w]}\t{cid}\t{cost}")
    return "\n".join(lines) + "\n"


#: Picks per chunk of :func:`write_sample_tsv`; each chunk is one ``write``.
_SAMPLE_CHUNK = 4096

#: ``_POWERS[j]`` is 10**(j + 1), the least value of j + 2 decimal digits; 10**19 < 2**64.
_POWERS = 10 ** np.arange(1, 20, dtype=np.uint64)


def _decimal_spans(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, first, lengths)``: the decimal text of each value is ``data[first[i]:first[i] + lengths[i]]``.

    ``column`` is not empty. Nonnegative integer arrays are written digit
    by digit, by vectorised division by 10, right-aligned in rows as wide
    as the widest value. Any other column (negative values, object arrays
    of exact ints) goes through ``str``.
    """
    if column.dtype.kind in "iu" and column.min() >= 0:
        values = column.astype(np.uint64)
        lengths = np.searchsorted(_POWERS, values, side="right") + 1
        width = int(lengths.max())
        digits = np.empty((len(values), width), dtype=np.uint8)
        for place in range(width - 1, -1, -1):
            digits[:, place] = values % 10
            values //= 10
        digits += ord("0")
        return digits.reshape(-1), np.arange(width, width * (len(values) + 1), width) - lengths, lengths
    data, starts, ends = _encode(list(map(str, column.tolist())))
    return np.frombuffer(data, dtype=np.uint8), starts, ends - starts


def _copy_spans(out: np.ndarray, at: np.ndarray, data: np.ndarray, first: np.ndarray, lengths: np.ndarray) -> None:
    """Copy ``data[first[i]:first[i] + lengths[i]]`` to ``out[at[i]:]`` for every i, in one gather."""
    before = np.cumsum(lengths) - lengths
    to = np.repeat(at - before, lengths)
    to += np.arange(len(to))
    out[to] = data[to + np.repeat(first - at, lengths)]


def write_sample_tsv(out: TextIO, result: SampleResult, g: Graph) -> None:
    """Write ``sample_to_tsv(result, g)`` to ``out``, ``_SAMPLE_CHUNK`` lines per ``write``.

    The external ids are encoded once by ``graph._encode``, into one UTF-8
    byte array with offsets. Each chunk of picks is then assembled as
    bytes: every line's length is computed first, both names are gathered
    from the ids' bytes, the community and cost are written as decimal
    digits, and the tabs and newlines are set. The chunk is decoded and
    written as one ``str``, so any text sink works. Cost: O(n + total id
    bytes) to encode the ids, plus O(b) array work for the b bytes
    written. Memory: the ids' bytes and n + 1 int64 offsets, plus a few
    arrays of one int64 per byte of one chunk, whatever the number of
    picks.
    """
    out.write("#src\tdst\tcommunity\tcost\n")
    encoded, starts, ends = _encode(g.external_ids)
    names = np.frombuffer(encoded, dtype=np.uint8)
    columns = result.sources, result.targets, result.communities, result.costs
    for lo in range(0, len(result.sources), _SAMPLE_CHUNK):
        src, dst, cid, cost = (column[lo:lo + _SAMPLE_CHUNK] for column in columns)
        fields = [
            (names, starts[src], ends[src] - starts[src]),
            (names, starts[dst], ends[dst] - starts[dst]),
            _decimal_spans(cid),
            _decimal_spans(cost),
        ]
        widths = sum(lengths for _, _, lengths in fields) + len(fields)
        at = np.cumsum(widths)
        text = np.empty(int(at[-1]), dtype=np.uint8)
        at -= widths
        for (data, first, lengths), sep in zip(fields, b"\t\t\t\n"):
            _copy_spans(text, at, data, first, lengths)
            at += lengths
            text[at] = sep
            at += 1
        out.write(str(text, "utf-8", "surrogatepass"))
