"""Command-line front end tying the stages into a reproducible pipeline.

Exit codes: 0 success, 2 configuration error, 3 input error, 4 verification
failure. Every artifact is written with sorted keys and stable formatting,
so rerunning a command on the same inputs reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import gc
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

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
    """Everything the end-to-end run needs; validated on construction."""

    edges_path: Path
    nodes_path: Path | None
    out_dir: Path
    token_limit: int = DEFAULT_TOKEN_LIMIT
    chars_per_token: float = DEFAULT_CHARS_PER_TOKEN
    max_cluster_size: int | None = None
    merge_mode: MergeMode = MergeMode.TWO_HOP_ONLY
    token_budget: int | None = None
    edge_fraction: float | None = None
    edge_overhead: int = DEFAULT_EDGE_OVERHEAD

    def __post_init__(self) -> None:
        if self.token_budget is not None and self.edge_fraction is not None:
            raise ConfigError("give either a token budget or an edge fraction, not both")
        if self.token_budget is None and self.edge_fraction is None:
            self.edge_fraction = DEFAULT_EDGE_FRACTION


def _load(edges_path, nodes_path, chars_per_token=DEFAULT_CHARS_PER_TOKEN) -> Graph:
    tm = TokenModel(chars_per_token=chars_per_token)
    edges = fileio.read_edges_tsv(edges_path)
    nodes = fileio.read_nodes_jsonl(nodes_path, tm) if nodes_path else []
    return load_graph(edges, nodes)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _resolve_max_cluster_size(args, g: Graph) -> int:
    if args.max_cluster_size is not None:
        if args.token_limit is not None:
            raise ConfigError("--max-cluster-size and --token-limit are mutually exclusive")
        return args.max_cluster_size
    return derive_max_cluster_size(args.token_limit or DEFAULT_TOKEN_LIMIT, g)


def _load_hierarchy(path, g: Graph) -> Hierarchy:
    import json

    text = fileio.read_utf8(path, "hierarchy file")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc.msg}") from None
    try:
        return fileio.hierarchy_from_json_obj(obj, g)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def cmd_decompose(args) -> int:
    g = largest_connected_component(_load(args.edges, args.nodes))
    dec = core_numbers(g)
    payload = {
        "max_core": dec.max_core,
        "cores": {g.external_id(v): dec.core[v] for v in range(g.n)},
    }
    _emit(fileio.json_dumps_stable(payload), args.out)
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    g = largest_connected_component(_load(args.edges, args.nodes, args.chars_per_token))
    h = build_hierarchy(g, _resolve_max_cluster_size(args, g))
    _emit(fileio.json_dumps_stable(fileio.hierarchy_to_json_obj(h, g)), args.out)
    return EXIT_OK


def cmd_merge(args) -> int:
    g = largest_connected_component(_load(args.edges, args.nodes))
    h = _load_hierarchy(args.hierarchy, g)
    merged, report = merge_small_clusters(g, h, MergeMode.parse(args.mode))
    _emit(fileio.json_dumps_stable(fileio.hierarchy_to_json_obj(merged, g)), args.out)
    report_path = args.report or (
        str(Path(args.out).with_suffix(".report.json")) if args.out else None
    )
    report_text = fileio.json_dumps_stable(report.to_json_obj())
    if report_path:
        Path(report_path).write_text(report_text, encoding="utf-8")
    elif not args.out:
        sys.stdout.write(report_text)
    return EXIT_OK


def cmd_sample(args) -> int:
    g = largest_connected_component(_load(args.edges, args.nodes, args.chars_per_token))
    h = _load_hierarchy(args.hierarchy, g)
    costs = default_edge_costs(g, args.overhead)
    if args.token_budget is not None and args.edge_fraction is not None:
        raise ConfigError("give either --token-budget or --edge-fraction, not both")
    if args.token_budget is not None:
        budget = args.token_budget
    elif args.edge_fraction is not None:
        budget = budget_from_edge_fraction(g, args.edge_fraction, costs)
    else:
        raise ConfigError("one of --token-budget or --edge-fraction is required")
    result = round_robin_sample(h, g, costs, budget)
    _emit(fileio.sample_to_tsv(result, g), args.out)
    return EXIT_OK


def cmd_stats(args) -> int:
    g = largest_connected_component(_load(args.edges, args.nodes, args.chars_per_token))
    h = _load_hierarchy(args.hierarchy, g)
    stats = community_stats(
        h, args.level.upper(), g, token_limit=args.token_limit or DEFAULT_TOKEN_LIMIT
    )
    _emit(fileio.json_dumps_stable(stats.to_json_obj()), args.out)
    return EXIT_OK


def cmd_degeneracy(args) -> int:
    g = strip_self_loops(_load(args.edges, args.nodes))
    report = enumerate_degeneracy(g, args.epsilon, args.d)
    _emit(fileio.json_dumps_stable(report.to_json_obj()), args.out)
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    g = strip_self_loops(_load(args.edges, args.nodes))
    report = verify_sparse_bounds(g, args.d, seed=args.seed)
    _emit(fileio.json_dumps_stable(report.to_json_obj()), args.out)
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
    """Run every stage and write its artifact; returns the artifact paths.

    Stages run in order: ingest, largest component, core decomposition,
    hierarchy, merge, stats, edge sampling. Any failure is re-raised with
    the stage name attached. Outputs are deterministic byte for byte. The
    cyclic garbage collector is paused for the run.
    """
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}

    def stage(name):
        def wrap(fn):
            try:
                return fn()
            except CoreHierError as exc:
                raise type(exc)(f"stage {name!r}: {exc}") from exc

        return wrap

    g_raw = stage("ingest")(lambda: _load(cfg.edges_path, cfg.nodes_path, cfg.chars_per_token))
    g = stage("lcc")(lambda: largest_connected_component(g_raw))
    del g_raw  # an extracted component has arrays of its own; free the input graph's

    dec = stage("decompose")(lambda: core_numbers(g))
    artifacts["decomposition"] = cfg.out_dir / "decomposition.json"
    artifacts["decomposition"].write_text(
        fileio.json_dumps_stable(
            {"max_core": dec.max_core, "cores": {g.external_id(v): dec.core[v] for v in range(g.n)}}
        ),
        encoding="utf-8",
    )

    if cfg.max_cluster_size is not None:
        max_size = cfg.max_cluster_size
    else:
        max_size = stage("derive-size")(lambda: derive_max_cluster_size(cfg.token_limit, g))
    h = stage("hierarchy")(lambda: build_hierarchy(g, max_size, dec.core))
    artifacts["hierarchy"] = cfg.out_dir / "hierarchy.json"
    artifacts["hierarchy"].write_text(
        fileio.json_dumps_stable(fileio.hierarchy_to_json_obj(h, g)), encoding="utf-8"
    )

    merged, report = stage("merge")(lambda: merge_small_clusters(g, h, cfg.merge_mode))
    artifacts["hierarchy_merged"] = cfg.out_dir / "hierarchy_merged.json"
    artifacts["hierarchy_merged"].write_text(
        fileio.json_dumps_stable(fileio.hierarchy_to_json_obj(merged, g)), encoding="utf-8"
    )
    artifacts["merge_report"] = cfg.out_dir / "merge_report.json"
    artifacts["merge_report"].write_text(
        fileio.json_dumps_stable(report.to_json_obj()), encoding="utf-8"
    )

    def build_stats():
        return {
            "lf": community_stats(merged, "LF", g, token_limit=cfg.token_limit).to_json_obj(),
            "l1": community_stats(merged, "L1", g, token_limit=cfg.token_limit).to_json_obj(),
        }

    artifacts["stats"] = cfg.out_dir / "stats.json"
    artifacts["stats"].write_text(
        fileio.json_dumps_stable(stage("stats")(build_stats)), encoding="utf-8"
    )

    def sample():
        costs = default_edge_costs(g, cfg.edge_overhead)
        if cfg.token_budget is not None:
            budget = cfg.token_budget
        else:
            budget = budget_from_edge_fraction(g, cfg.edge_fraction, costs)
        return round_robin_sample(merged, g, costs, budget)

    artifacts["sample"] = cfg.out_dir / "sample.tsv"
    artifacts["sample"].write_text(
        fileio.sample_to_tsv(stage("sample")(sample), g), encoding="utf-8"
    )
    return artifacts


def cmd_pipeline(args) -> int:
    if args.max_cluster_size is not None and args.token_limit is not None:
        raise ConfigError("--max-cluster-size and --token-limit are mutually exclusive")
    cfg = PipelineConfig(
        edges_path=Path(args.edges),
        nodes_path=Path(args.nodes) if args.nodes else None,
        out_dir=Path(args.out),
        token_limit=args.token_limit or DEFAULT_TOKEN_LIMIT,
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
