"""Command-line front end tying the stages into a reproducible pipeline.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 verification
failure; an output path that cannot be written is a configuration error.
Every artifact is written with sorted keys and stable formatting, so
rerunning a command on the same inputs reproduces the bytes exactly. Each
command resolves its options into a :class:`PipelineConfig`, and the lab
commands check ``--d``, ``--epsilon`` and ``--seed``, before it reads any
input. A regular output file is written under a temporary name beside
it and renamed into place only once it is complete, so a failed command
leaves the previous file as it was; a device or FIFO given as ``--out`` is
written in place.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TextIO

from . import fileio
from .cores import core_numbers
from .errors import ConfigError, CoreHierError, InputError, VerificationError
from .fixtures import generate_kg_sparse
from .graph import Graph, graph_from_columns, largest_connected_component
from .hierarchy import Hierarchy, build_hierarchy
from .merging import MergeMode, merge_small_clusters
from .modularity import _check_options, enumerate_degeneracy, verify_sparse_bounds
from .sampling import (
    DEFAULT_CHARS_PER_TOKEN,
    DEFAULT_EDGE_OVERHEAD,
    SampleResult,
    TokenModel,
    budget_from_edge_fraction,
    derive_max_cluster_size,
    round_robin_sample,
)
from .stats import community_stats

DEFAULT_TOKEN_LIMIT = 8000
DEFAULT_EDGE_FRACTION = 0.8

EXIT_OK = 0


@dataclass
class PipelineConfig:
    """The resolved options of a command, checked and completed on construction.

    Each command builds one (see :func:`_config`) before it reads any input,
    and this is the only place that rejects a bad option or fills in a
    default. A size cap conflicts with a token limit, and a budget with an
    edge fraction. ``token_limit`` and ``token_budget`` must be at least 1,
    ``max_cluster_size`` at least 2, ``edge_fraction`` in (0, 1],
    ``edge_overhead`` at least 0 and ``chars_per_token`` finite and positive;
    a ``merge_mode`` name becomes a :class:`MergeMode`. ``token_limit``
    defaults to ``DEFAULT_TOKEN_LIMIT`` even beside a size cap, since the
    stats use it too, so a resolved config cannot be constructed again from
    its fields. With neither a budget nor a fraction, ``edge_fraction``
    becomes ``DEFAULT_EDGE_FRACTION``. ``out_dir`` is where
    :func:`run_pipeline` writes; the subcommands leave it None.
    """

    edges_path: Path
    nodes_path: Path | None = None
    out_dir: Path | None = None
    token_limit: int | None = None
    chars_per_token: float = DEFAULT_CHARS_PER_TOKEN
    max_cluster_size: int | None = None
    merge_mode: MergeMode | str = MergeMode.TWO_HOP_ONLY
    token_budget: int | None = None
    edge_fraction: float | None = None
    edge_overhead: int = DEFAULT_EDGE_OVERHEAD

    def __post_init__(self) -> None:
        if self.max_cluster_size is not None and self.token_limit is not None:
            raise ConfigError("--max-cluster-size and --token-limit are mutually exclusive")
        if self.token_budget is not None and self.edge_fraction is not None:
            raise ConfigError("--token-budget and --edge-fraction are mutually exclusive")
        if self.token_limit is None:
            self.token_limit = DEFAULT_TOKEN_LIMIT
        if self.token_budget is None and self.edge_fraction is None:
            self.edge_fraction = DEFAULT_EDGE_FRACTION
        if self.token_limit < 1:
            raise ConfigError("token limit must be positive")
        if self.max_cluster_size is not None and self.max_cluster_size < 2:
            raise ConfigError("max cluster size must be at least 2")
        if self.token_budget is not None and self.token_budget < 1:
            raise ConfigError("budget must be positive")
        if self.edge_fraction is not None and not 0 < self.edge_fraction <= 1:
            raise ConfigError("edge fraction must be in (0, 1]")
        if self.edge_overhead < 0:
            raise ConfigError("edge overhead must be >= 0")
        TokenModel(self.chars_per_token)  # raises ConfigError unless finite and positive
        self.merge_mode = MergeMode.parse(self.merge_mode)


_CONFIG_FIELDS = frozenset(f.name for f in fields(PipelineConfig))


def _config(args, budget_required: bool = False) -> PipelineConfig:
    """The resolved configuration of a subcommand's parsed arguments.

    A stage option appears in ``args`` only when it was given (see
    :data:`_FLAGS`), so every other field keeps its default. With
    ``budget_required``, one of ``--token-budget`` and ``--edge-fraction``
    must be given.
    """
    given = {name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS}
    if budget_required and given.keys().isdisjoint({"token_budget", "edge_fraction"}):
        raise ConfigError("one of --token-budget or --edge-fraction is required")
    return PipelineConfig(**given)


def _load(cfg: PipelineConfig) -> Graph:
    tm = TokenModel(chars_per_token=cfg.chars_per_token)
    edges = fileio.read_edges_tsv(cfg.edges_path)
    nodes = fileio.read_nodes_jsonl(cfg.nodes_path, tm) if cfg.nodes_path else ([], [])
    return graph_from_columns(edges, *nodes)


def _ingest(cfg: PipelineConfig) -> Graph:
    """Largest connected component of the graph in the input files."""
    return largest_connected_component(_load(cfg))


def _hierarchy(g: Graph, cfg: PipelineConfig, core=None) -> Hierarchy:
    """Hierarchy capped at ``cfg.max_cluster_size``, else at the size ``cfg.token_limit`` derives."""
    return build_hierarchy(g, cfg.max_cluster_size or derive_max_cluster_size(cfg.token_limit, g), core)


def _sample(g: Graph, h: Hierarchy, cfg: PipelineConfig) -> SampleResult:
    """The budget (``cfg.token_budget`` or ``cfg.edge_fraction``'s) and the sample, at ``cfg.edge_overhead``."""
    budget = cfg.token_budget or budget_from_edge_fraction(g, cfg.edge_fraction, cfg.edge_overhead)
    return round_robin_sample(h, g, budget, cfg.edge_overhead)


def _write_text(out: TextIO, text: str) -> None:
    out.write(text)


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


@contextmanager
def _outputs(out_dir: Path | None = None):
    """Yield ``put(out, write, *args)``, which runs ``write(file, *args)`` into ``out``, or stdout without one.

    Every regular (or new) ``out`` file is staged beside itself (see
    :func:`_write_temp`), and all of them are renamed into place together
    once the block succeeds; any other ``out`` (see :func:`_rename_target`)
    is written in place as it comes. With ``out_dir``, the directory that
    every ``out`` lies in, it is created first, and an ``out`` that is not
    a regular file is a :class:`ConfigError`. If the block or a rename
    fails, the staged files are deleted and the directories made for
    ``out_dir`` are removed again.
    """
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()] if out_dir else []  # deepest first
    staged: dict[Path, Path] = {}  # file to replace -> its complete temporary file

    def put(out, write, *args) -> None:
        if not out:
            write(sys.stdout, *args)
            return
        with _writing(out):
            target = _rename_target(Path(out))
            if target is not None:
                staged[target] = _write_temp(target, write, *args)
            elif out_dir:
                raise ConfigError(f"cannot write {out}: not a regular file")
            else:
                with open(out, "w", encoding="utf-8") as f:
                    write(f, *args)

    try:
        if out_dir:
            with _writing(out_dir):
                out_dir.mkdir(parents=True, exist_ok=True)
        yield put
        for target, tmp in staged.items():
            with _writing(target):
                os.replace(tmp, target)
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        with suppress(OSError):
            for d in created:
                d.rmdir()
        raise


def _load_hierarchy(path, g: Graph) -> Hierarchy:
    text = fileio.read_utf8(path, "hierarchy file")
    obj = fileio.parse_json(text, path)
    del text  # not needed through the rebuild: 3.6 MiB at 58.8k nodes
    try:
        return fileio.hierarchy_from_json_obj(obj, g)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_decompose(args) -> int:
    g = _ingest(_config(args))
    with _outputs() as put:
        put(args.out, fileio.write_decomposition_json, core_numbers(g), g)
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    cfg = _config(args)
    g = _ingest(cfg)
    with _outputs() as put:
        put(args.out, fileio.write_hierarchy_json, _hierarchy(g, cfg), g)
    return EXIT_OK


def cmd_merge(args) -> int:
    cfg = _config(args)
    g = _ingest(cfg)
    h = _load_hierarchy(args.hierarchy, g)
    merged, report = merge_small_clusters(g, h, cfg.merge_mode)
    report_out = args.report or (str(Path(args.out).with_suffix(".report.json")) if args.out else None)
    with _outputs() as put:
        put(args.out, fileio.write_hierarchy_json, merged, g)
        put(report_out, _write_json, report.to_json_obj())
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _config(args, budget_required=True)
    g = _ingest(cfg)
    h = _load_hierarchy(args.hierarchy, g)
    with _outputs() as put:
        put(args.out, fileio.write_sample_tsv, _sample(g, h, cfg), g)
    return EXIT_OK


def cmd_stats(args) -> int:
    cfg = _config(args)
    g = _ingest(cfg)
    h = _load_hierarchy(args.hierarchy, g)
    stats = community_stats(h, args.level.upper(), g, token_limit=cfg.token_limit)
    with _outputs() as put:
        put(args.out, _write_json, stats.to_json_obj())
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    _check_options(args.d, [args.epsilon])
    g = _load(_config(args))
    report = enumerate_degeneracy(g, args.epsilon, args.d)
    with _outputs() as put:
        put(args.out, _write_json, report.to_json_obj())
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    _check_options(args.d, seed=args.seed)
    g = _load(_config(args))
    report = verify_sparse_bounds(g, args.d, seed=args.seed)
    with _outputs() as put:
        put(args.out, _write_json, report.to_json_obj())
    return EXIT_OK if report.all_ok else VerificationError.exit_code


@contextmanager
def _cyclic_gc_paused():
    """Pause Python's cyclic garbage collector; restore its state on exit.

    The stages allocate millions of small objects (heap keys, cluster
    member lists, host-map entries) that form no reference cycles, so
    reference counting frees them all. Each allocation burst still triggers
    collections that traverse every live object; on the ~100k-edge
    acceptance graph those passes took about a third of the pipeline's
    time. The few cycles made meanwhile (argument parsing) are collected
    once the collector resumes.
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
    earlier contents, or is removed again, with any parents, if the run
    created it. An artifact path that exists but is not a regular file
    (or a symlink to one) is a :class:`ConfigError`, raised before any
    rename; only a rename that fails even so, because ``out_dir`` changed
    during the run, can leave some artifacts replaced and others not.
    Outputs are deterministic byte for byte. The cyclic garbage collector is
    paused for the run.
    """
    names = ("decomposition.json", "hierarchy.json", "hierarchy_merged.json", "merge_report.json",
             "stats.json", "sample.tsv")
    paths = {Path(name).stem: cfg.out_dir / name for name in names}

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CoreHierError as exc:
            raise type(exc)(f"stage {name!r}: {exc}") from exc

    with _outputs(cfg.out_dir) as put:
        g = stage("ingest", _ingest, cfg)
        dec = stage("decompose", core_numbers, g)
        put(paths["decomposition"], fileio.write_decomposition_json, dec, g)
        h = stage("hierarchy", _hierarchy, g, cfg, dec.core)
        put(paths["hierarchy"], fileio.write_hierarchy_json, h, g)
        merged, report = stage("merge", merge_small_clusters, g, h, cfg.merge_mode)
        put(paths["hierarchy_merged"], fileio.write_hierarchy_json, merged, g)
        put(paths["merge_report"], _write_json, report.to_json_obj())
        stats = {
            level.lower(): stage(
                "stats", community_stats, merged, level, g, token_limit=cfg.token_limit
            ).to_json_obj()
            for level in ("LF", "L1")
        }
        put(paths["stats"], _write_json, stats)
        put(paths["sample"], fileio.write_sample_tsv, stage("sample", _sample, g, merged, cfg), g)
    return paths


def cmd_pipeline(args) -> int:
    paths = run_pipeline(_config(args))
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    if args.profile != "kg_sparse":
        raise ConfigError(f"unknown fixture profile {args.profile!r}")
    edges, nodes = generate_kg_sparse(args.n, seed=args.seed)
    out = Path(args.out)
    with _outputs(out) as put:
        put(out / "edges.tsv", _write_text, fileio.edges_to_tsv(edges))
        put(out / "nodes.jsonl", _write_text, fileio.nodes_to_jsonl(nodes))
    print(f"edges: {out / 'edges.tsv'}")
    print(f"nodes: {out / 'nodes.jsonl'}")
    return EXIT_OK


#: Every flag that more than one subcommand takes, declared once. Each
#: subparser leaves an option without a declared default out of the parsed
#: arguments unless it is given, so a stage option's default is the one
#: :class:`PipelineConfig` declares. The ``dest`` of a stage option is its
#: config field.
_FLAGS = {
    "--edges": {"dest": "edges_path", "type": Path, "required": True, "help": "edge list TSV"},
    "--nodes": {"dest": "nodes_path", "type": Path, "help": "node metadata JSONL"},
    "--out": {"default": None, "help": "output path (default: stdout)"},
    "--hierarchy": {"required": True, "help": "hierarchy JSON to read"},
    "--max-cluster-size": {"type": int, "help": "explicit size cap"},
    "--token-limit": {"type": int, "help": "context window used to derive the cap"},
    "--chars-per-token": {"type": float, "help": "characters per token of a node's text"},
    "--merge-mode": {"dest": "merge_mode", "help": "m2hc (two-hop only) or mrc (plus residual)"},
    "--token-budget": {"type": int, "help": "token budget of the sample"},
    "--edge-fraction": {"type": float, "help": "budget: the cost of this share of ranked edges"},
    "--overhead": {"dest": "edge_overhead", "type": int, "help": "token cost of an edge beyond its ends"},
    "--d": {"type": int, "required": True, "help": "degree cutoff"},
    "--seed": {"type": int, "default": 0},
}
_IO = ("--edges", "--nodes", "--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corehier",
        description="Deterministic k-core community hierarchies for sparse knowledge graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, fn, help: str, *flags: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        for flag in flags:
            p.add_argument(flag, metavar=flag[2:].upper().replace("-", "_"), **_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    command("decompose", cmd_decompose, "core numbers of the largest component", *_IO)
    command("hierarchy", cmd_hierarchy, "build the community hierarchy",
            *_IO, "--max-cluster-size", "--token-limit", "--chars-per-token")
    p = command("merge", cmd_merge, "merge size-2 clusters into neighbors", *_IO, "--hierarchy")
    p.add_argument("--mode", **_FLAGS["--merge-mode"])
    p.add_argument("--report", default=None, help="sidecar report path")
    command("sample", cmd_sample, "round-robin token-budgeted edge selection",
            *_IO, "--hierarchy", "--token-budget", "--edge-fraction", "--overhead", "--chars-per-token")
    p = command("stats", cmd_stats, "community counts and token coverage",
                *_IO, "--hierarchy", "--token-limit", "--chars-per-token")
    p.add_argument("--level", default="lf", choices=["lf", "l1", "LF", "L1"])
    p = command("degeneracy", cmd_degeneracy, "exhaustive near-optimal partition count", *_IO, "--d")
    p.add_argument("--epsilon", type=float, required=True)
    command("verify-bounds", cmd_verify_bounds, "check the low-degree move bounds empirically",
            *_IO, "--d", "--seed")
    p = command("pipeline", cmd_pipeline, "run every stage and write all artifacts",
                "--edges", "--nodes", "--max-cluster-size", "--token-limit", "--chars-per-token",
                "--merge-mode", "--token-budget", "--edge-fraction", "--overhead")
    p.add_argument("--out", dest="out_dir", type=Path, required=True, help="output directory")
    p = command("gen-fixture", cmd_gen_fixture, "write a seeded sparse test graph", "--seed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", default="kg_sparse")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _cyclic_gc_paused():
            return args.fn(args)
    except CoreHierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
