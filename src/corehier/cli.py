"""Command-line front end tying the stages into a reproducible pipeline.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 verification
failure; an output path that cannot be written is a configuration error.
Every artifact is written with sorted keys and stable formatting, so
rerunning a command on the same inputs reproduces the bytes exactly. A
regular output file is written under a temporary name beside it and renamed
into place only once it is complete, so a failed command leaves the
previous file as it was; a device or FIFO given as ``--out`` is written in
place.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from . import fileio
from .cores import core_numbers
from .errors import ConfigError, CoreHierError, InputError, VerificationError
from .fixtures import generate_kg_sparse
from .graph import Graph, largest_connected_component, load_graph, strip_self_loops
from .hierarchy import Hierarchy, build_hierarchy
from .merging import MergeMode, merge_small_clusters
from .modularity import enumerate_degeneracy, verify_sparse_bounds
from .sampling import (
    DEFAULT_EDGE_OVERHEAD,
    SampleResult,
    TokenModel,
    budget_from_edge_fraction,
    default_edge_costs,
    derive_max_cluster_size,
    round_robin_sample,
)
from .stats import community_stats

DEFAULT_TOKEN_LIMIT = 8000
DEFAULT_CHARS_PER_TOKEN = 4.0
DEFAULT_EDGE_FRACTION = 0.8

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INPUT = 3
EXIT_VERIFICATION = 4


@dataclass
class PipelineConfig:
    """Everything the end-to-end run needs; validated on construction.

    A ``token_limit`` of None means ``DEFAULT_TOKEN_LIMIT``; with neither a
    budget nor a fraction, ``edge_fraction`` becomes ``DEFAULT_EDGE_FRACTION``.
    """

    edges_path: Path
    nodes_path: Path | None
    out_dir: Path
    token_limit: int | None = None
    chars_per_token: float = DEFAULT_CHARS_PER_TOKEN
    max_cluster_size: int | None = None
    merge_mode: MergeMode = MergeMode.TWO_HOP_ONLY
    token_budget: int | None = None
    edge_fraction: float | None = None
    edge_overhead: int = DEFAULT_EDGE_OVERHEAD

    def __post_init__(self) -> None:
        _validate_options(self)
        if self.token_budget is None and self.edge_fraction is None:
            self.edge_fraction = DEFAULT_EDGE_FRACTION


def _validate_options(opts) -> None:
    """Reject conflicting options and out-of-range numbers before any input is read.

    A size cap conflicts with a token limit, and a budget with an edge
    fraction. A token limit must be at least 1, and chars per token finite
    and positive. ``opts`` is a :class:`PipelineConfig` or parsed
    arguments; an option it lacks counts as not given.
    """
    for a, b in (("max_cluster_size", "token_limit"), ("token_budget", "edge_fraction")):
        if getattr(opts, a, None) is not None and getattr(opts, b, None) is not None:
            raise ConfigError(f"--{a} and --{b} are mutually exclusive".replace("_", "-"))
    token_limit = getattr(opts, "token_limit", None)
    if token_limit is not None and token_limit < 1:
        raise ConfigError("token limit must be positive")
    if hasattr(opts, "chars_per_token"):
        TokenModel(chars_per_token=opts.chars_per_token)  # raises ConfigError when out of range


def _load(edges_path, nodes_path, chars_per_token=DEFAULT_CHARS_PER_TOKEN) -> Graph:
    tm = TokenModel(chars_per_token=chars_per_token)
    edges = fileio.read_edges_tsv(edges_path)
    nodes = fileio.read_nodes_jsonl(nodes_path, tm) if nodes_path else []
    return load_graph(edges, nodes)


def _ingest(edges_path, nodes_path, chars_per_token=DEFAULT_CHARS_PER_TOKEN) -> Graph:
    """Largest connected component of the graph in the input files."""
    return largest_connected_component(_load(edges_path, nodes_path, chars_per_token))


def _hierarchy(g: Graph, max_cluster_size, token_limit, core=None) -> Hierarchy:
    """Hierarchy capped at ``max_cluster_size``, else at the size ``token_limit`` derives."""
    if max_cluster_size is None:
        if token_limit is None:
            token_limit = DEFAULT_TOKEN_LIMIT
        max_cluster_size = derive_max_cluster_size(token_limit, g)
    return build_hierarchy(g, max_cluster_size, core)


def _stats(h: Hierarchy, level: str, g: Graph, token_limit) -> dict:
    if token_limit is None:
        token_limit = DEFAULT_TOKEN_LIMIT
    return community_stats(h, level, g, token_limit=token_limit).to_json_obj()


def _sample(g: Graph, h: Hierarchy, overhead: int, token_budget, edge_fraction) -> SampleResult:
    """Edge costs, the budget (``token_budget`` or ``edge_fraction``'s) and the sample."""
    if token_budget is None and edge_fraction is None:
        raise ConfigError("one of --token-budget or --edge-fraction is required")
    costs = default_edge_costs(g, overhead)
    if token_budget is None:
        token_budget = budget_from_edge_fraction(g, edge_fraction, costs)
    return round_robin_sample(h, g, costs, token_budget)


def _write_json(out: TextIO, obj) -> None:
    """Writer for small payloads: ``json_dumps_stable(obj)`` in one piece."""
    out.write(fileio.json_dumps_stable(obj))


@contextmanager
def _writing(path):
    """Report an ``OSError`` raised while writing ``path`` as a :class:`ConfigError`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _rename_target(path: Path) -> Path | None:
    """The file to rename a complete output over, or None if ``path`` is written in place.

    A symlink is resolved, so the link stays and the file it names gets the
    bytes. A path that exists but is not a regular file (a device such as
    /dev/null, a FIFO, a /dev/fd/N pipe) must be opened and written in
    place: renaming over it would replace the device or fail.
    """
    try:
        is_file = stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        is_file = True
    return Path(os.path.realpath(path)) if is_file else None


def _write_temp(path: Path, write, *args) -> Path:
    """Run ``write(file, *args)`` into a temporary file beside ``path``; return its name.

    The name carries the process id, so concurrent runs do not share it. The
    temporary file takes the mode of an existing ``path``. If the writer
    fails, the temporary file is removed before re-raising.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            write(f, *args)
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return tmp


def _discard(temps) -> None:
    for tmp in temps:
        tmp.unlink(missing_ok=True)


def _commit(staged: dict[Path, Path]) -> None:
    """Rename each temporary file over its target path; if a rename fails, delete the rest."""
    try:
        for path, tmp in staged.items():
            with _writing(path):
                os.replace(tmp, path)
    except BaseException:
        _discard(staged.values())
        raise


def _emit(out: str | None, write, *args) -> None:
    """Run ``write(file, *args)`` into ``out``, or to stdout without one.

    A regular (or new) ``out`` file is replaced only once it is complete;
    any other ``out`` (see :func:`_rename_target`) is written in place.
    """
    if not out:
        write(sys.stdout, *args)
        return
    with _writing(out):
        target = _rename_target(Path(out))
        if target is None:
            with open(out, "w", encoding="utf-8") as f:
                write(f, *args)
        else:
            _commit({target: _write_temp(target, write, *args)})


def _load_hierarchy(path, g: Graph) -> Hierarchy:
    text = fileio.read_utf8(path, "hierarchy file")
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: invalid JSON: {getattr(exc, 'msg', 'nested too deeply')}") from None
    try:
        return fileio.hierarchy_from_json_obj(obj, g)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_decompose(args) -> int:
    g = _ingest(args.edges, args.nodes)
    _emit(args.out, fileio.write_decomposition_json, core_numbers(g), g)
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    _validate_options(args)
    g = _ingest(args.edges, args.nodes, args.chars_per_token)
    h = _hierarchy(g, args.max_cluster_size, args.token_limit)
    _emit(args.out, fileio.write_hierarchy_json, h, g)
    return EXIT_OK


def cmd_merge(args) -> int:
    g = _ingest(args.edges, args.nodes)
    h = _load_hierarchy(args.hierarchy, g)
    merged, report = merge_small_clusters(g, h, MergeMode.parse(args.mode))
    _emit(args.out, fileio.write_hierarchy_json, merged, g)
    report_out = args.report or (str(Path(args.out).with_suffix(".report.json")) if args.out else None)
    _emit(report_out, _write_json, report.to_json_obj())
    return EXIT_OK


def cmd_sample(args) -> int:
    _validate_options(args)
    g = _ingest(args.edges, args.nodes, args.chars_per_token)
    h = _load_hierarchy(args.hierarchy, g)
    result = _sample(g, h, args.overhead, args.token_budget, args.edge_fraction)
    _emit(args.out, fileio.write_sample_tsv, result, g)
    return EXIT_OK


def cmd_stats(args) -> int:
    _validate_options(args)
    g = _ingest(args.edges, args.nodes, args.chars_per_token)
    h = _load_hierarchy(args.hierarchy, g)
    _emit(args.out, _write_json, _stats(h, args.level.upper(), g, args.token_limit))
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    g = strip_self_loops(_load(args.edges, args.nodes))
    report = enumerate_degeneracy(g, args.epsilon, args.d)
    _emit(args.out, _write_json, report.to_json_obj())
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    g = strip_self_loops(_load(args.edges, args.nodes))
    report = verify_sparse_bounds(g, args.d, seed=args.seed)
    _emit(args.out, _write_json, report.to_json_obj())
    return EXIT_OK if report.all_ok else EXIT_VERIFICATION


@contextmanager
def _cyclic_gc_paused():
    """Pause Python's cyclic garbage collector; restore its state on exit.

    The stages allocate millions of small objects (adjacency lists, cluster
    sets, edge tuples) that form no reference cycles, so reference counting
    frees them all. Each allocation burst still triggers collections that
    traverse every live object; on the ~100k-edge acceptance graph those
    passes took about a third of the pipeline's time. The few cycles made
    meanwhile (argument parsing) are collected once the collector resumes.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_cyclic_gc_paused()
def run_pipeline(cfg: PipelineConfig) -> dict[str, Path]:
    """Run every stage and write its artifact; returns the artifact paths by name.

    Stages run in order: ingest (the input's largest component), decompose,
    hierarchy (deriving the size cap when none is given), merge, stats,
    sample. Any failure is re-raised with the stage name attached. Each
    artifact is streamed to a temporary file in ``out_dir`` as soon as its
    stage ends, so no artifact is held in memory as a whole. Only after the
    last stage succeeds are the temporary files renamed over the artifacts;
    if any stage or write fails, they are deleted and ``out_dir`` keeps its
    earlier contents. An artifact path that exists but is not a regular file
    (or a symlink to one) is a :class:`ConfigError`, raised before any
    rename; only a rename that fails even so, because ``out_dir`` changed
    during the run, can leave some artifacts replaced and others not.
    Outputs are deterministic byte for byte. The cyclic garbage collector is
    paused for the run.
    """
    with _writing(cfg.out_dir):
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    staged: dict[Path, Path] = {}  # file to replace -> its complete temporary file

    def stage(name, fn, *args):
        try:
            return fn(*args)
        except CoreHierError as exc:
            raise type(exc)(f"stage {name!r}: {exc}") from exc

    def write(filename: str, writer, *args) -> None:
        path = cfg.out_dir / filename
        paths[path.stem] = path
        with _writing(path):
            target = _rename_target(path)
            if target is None:
                raise ConfigError(f"cannot write {path}: not a regular file")
            staged[target] = _write_temp(target, writer, *args)

    try:
        g = stage("ingest", _ingest, cfg.edges_path, cfg.nodes_path, cfg.chars_per_token)
        dec = stage("decompose", core_numbers, g)
        write("decomposition.json", fileio.write_decomposition_json, dec, g)
        h = stage("hierarchy", _hierarchy, g, cfg.max_cluster_size, cfg.token_limit, dec.core)
        write("hierarchy.json", fileio.write_hierarchy_json, h, g)
        merged, report = stage("merge", merge_small_clusters, g, h, cfg.merge_mode)
        write("hierarchy_merged.json", fileio.write_hierarchy_json, merged, g)
        write("merge_report.json", _write_json, report.to_json_obj())
        stats = {
            level.lower(): stage("stats", _stats, merged, level, g, cfg.token_limit)
            for level in ("LF", "L1")
        }
        write("stats.json", _write_json, stats)
        result = stage(
            "sample", _sample, g, merged, cfg.edge_overhead, cfg.token_budget, cfg.edge_fraction
        )
        write("sample.tsv", fileio.write_sample_tsv, result, g)
    except BaseException:
        _discard(staged.values())
        raise
    _commit(staged)
    return paths


def cmd_pipeline(args) -> int:
    cfg = PipelineConfig(
        edges_path=Path(args.edges),
        nodes_path=Path(args.nodes) if args.nodes else None,
        out_dir=Path(args.out),
        token_limit=args.token_limit,
        chars_per_token=args.chars_per_token,
        max_cluster_size=args.max_cluster_size,
        merge_mode=MergeMode.parse(args.merge_mode),
        token_budget=args.token_budget,
        edge_fraction=args.edge_fraction,
        edge_overhead=args.overhead,
    )
    paths = run_pipeline(cfg)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    if args.profile != "kg_sparse":
        raise ConfigError(f"unknown fixture profile {args.profile!r}")
    edges, nodes = generate_kg_sparse(args.n, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_edges_tsv(out / "edges.tsv", edges)
    fileio.write_nodes_jsonl(out / "nodes.jsonl", nodes)
    print(f"edges: {out / 'edges.tsv'}")
    print(f"nodes: {out / 'nodes.jsonl'}")
    return EXIT_OK


def _add_io_args(parser, nodes_required=False):
    parser.add_argument("--edges", required=True, help="edge list TSV")
    parser.add_argument("--nodes", required=nodes_required, help="node metadata JSONL")
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corehier",
        description="Deterministic k-core community hierarchies for sparse knowledge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="core numbers of the largest component")
    _add_io_args(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("hierarchy", help="build the community hierarchy")
    _add_io_args(p)
    p.add_argument("--max-cluster-size", type=int, help="explicit size cap")
    p.add_argument("--token-limit", type=int, help="context window used to derive the cap")
    p.add_argument("--chars-per-token", type=float, default=DEFAULT_CHARS_PER_TOKEN)
    p.set_defaults(fn=cmd_hierarchy)

    p = sub.add_parser("merge", help="merge size-2 clusters into neighbors")
    _add_io_args(p)
    p.add_argument("--hierarchy", required=True, help="hierarchy JSON to read")
    p.add_argument("--mode", default="m2hc", help="m2hc (two-hop only) or mrc (plus residual)")
    p.add_argument("--report", help="sidecar report path")
    p.set_defaults(fn=cmd_merge)

    p = sub.add_parser("sample", help="round-robin token-budgeted edge selection")
    _add_io_args(p)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--token-budget", type=int)
    p.add_argument("--edge-fraction", type=float)
    p.add_argument("--overhead", type=int, default=DEFAULT_EDGE_OVERHEAD)
    p.add_argument("--chars-per-token", type=float, default=DEFAULT_CHARS_PER_TOKEN)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("stats", help="community counts and token coverage")
    _add_io_args(p)
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--level", default="lf", choices=["lf", "l1", "LF", "L1"])
    p.add_argument("--token-limit", type=int)
    p.add_argument("--chars-per-token", type=float, default=DEFAULT_CHARS_PER_TOKEN)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("degeneracy", help="exhaustive near-optimal partition count")
    _add_io_args(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, required=True, help="degree cutoff")
    p.set_defaults(fn=cmd_degeneracy)

    p = sub.add_parser("verify-bounds", help="check the low-degree move bounds empirically")
    _add_io_args(p)
    p.add_argument("--d", type=int, required=True, help="degree cutoff")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify_bounds)

    p = sub.add_parser("pipeline", help="run every stage and write all artifacts")
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--max-cluster-size", type=int)
    p.add_argument("--token-limit", type=int)
    p.add_argument("--chars-per-token", type=float, default=DEFAULT_CHARS_PER_TOKEN)
    p.add_argument("--merge-mode", default="m2hc")
    p.add_argument("--token-budget", type=int)
    p.add_argument("--edge-fraction", type=float)
    p.add_argument("--overhead", type=int, default=DEFAULT_EDGE_OVERHEAD)
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("gen-fixture", help="write a seeded sparse test graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", default="kg_sparse")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_gen_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _cyclic_gc_paused():
            return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
