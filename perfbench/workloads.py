"""The benchmark's workloads: inputs, the corehier calls of one run, and their checks.

Each workload names the ``corehier`` argument lists one run makes, which
call writes which artifact, and how to check those artifacts against the
independent reference in :mod:`checks` and read the layer counters from
them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs
from inputs import Inputs

LAB_EPSILON = "0.02"
LAB_D = 1

#: Layer counters read from artifacts; a workload that does not run a layer reports 0.
COUNTERS = {
    "graph.n": "count",
    "graph.m": "count",
    "graph.lcc_kept_frac": "ratio",
    "cores.max_core": "count",
    "hierarchy.clusters_root": "count",
    "hierarchy.clusters_core": "count",
    "hierarchy.clusters_residual": "count",
    "hierarchy.clusters_two_hop": "count",
    "hierarchy.levels": "count",
    "hierarchy.leaves": "count",
    "hierarchy.attached_singletons": "count",
    "merging.merged": "count",
    "merging.promoted": "count",
    "merging.deduplicated": "count",
    "merging.merge_ratio": "ratio",
    "sampling.selected": "count",
    "sampling.retired": "count",
    "sampling.unaffordable": "count",
    "sampling.budget_used_frac": "ratio",
    "stats.lf_coverage_pct": "%",
    "modularity.partitions": "count",
    "modularity.partition_bytes_computed": "B",
    "modularity.single_move_checks": "count",
    "modularity.pair_checks": "count",
    "modularity.pair_violations": "count",
}


@dataclass(frozen=True)
class Inspection:
    """Check failures per call index, layer counters, and workload-level quality figures."""

    failures: dict[int, list[str]]
    counters: dict[str, float]
    quality: dict[str, float]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Path, int], Inputs]
    calls: Callable[[Inputs, Path], list[list[str]]]
    artifacts: dict[str, int]  # file name -> index of the call that writes it
    inspect: Callable[[Inputs, Path, list[int]], Inspection]


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _io(inp: Inputs) -> list[str]:
    return ["--edges", str(inp.edges_path), "--nodes", str(inp.nodes_path)]


def _graph_counters(ref: checks.Reference, dec: dict) -> dict[str, float]:
    return {
        "graph.n": ref.g.number_of_nodes(),
        "graph.m": ref.g.number_of_edges(),
        "graph.lcc_kept_frac": ref.g.number_of_nodes() / ref.n_input,
        "cores.max_core": dec["max_core"],
    }


def _hierarchy_counters(hobj: dict) -> dict[str, float]:
    out = {f"hierarchy.clusters_{kind}": 0 for kind in ("root", "core", "residual", "two_hop")}
    for c in hobj["clusters"]:
        out[f"hierarchy.clusters_{c['kind']}"] += 1
    out["hierarchy.levels"] = hobj["max_level"]
    out["hierarchy.leaves"] = len(checks.leaves_of(hobj))
    out["hierarchy.attached_singletons"] = len(hobj["attached_singletons"])
    return out


def _merge_counters(report: dict) -> dict[str, float]:
    merged, promoted = len(report["merged"]), len(report["promoted"])
    return {
        "merging.merged": merged,
        "merging.promoted": promoted,
        "merging.deduplicated": report["deduplicated"],
        "merging.merge_ratio": merged / (merged + promoted) if merged + promoted else 0.0,
    }


def _inspect_pipeline(inp: Inputs, out: Path, codes: list[int]) -> Inspection:
    ref = checks.Reference(inp.edges_path, inp.nodes_path)
    dec = _load(out / "decomposition.json")
    hobj, merged = _load(out / "hierarchy.json"), _load(out / "hierarchy_merged.json")
    report, stats = _load(out / "merge_report.json"), _load(out / "stats.json")
    sample_failures, sampled = checks.check_sample(
        ref, merged, (out / "sample.tsv").read_text(encoding="utf-8"), 0.8
    )
    failures = (
        checks.check_decomposition(ref, dec)
        + checks.check_hierarchy(ref, hobj)
        + checks.check_hierarchy(ref, merged, checks.merged_into(report))
        + checks.check_merge(hobj, merged, report)
        + checks.check_stats(ref, merged, stats["lf"], "lf")
        + checks.check_stats(ref, merged, stats["l1"], "l1")
        + sample_failures
    )
    counters = {
        **_graph_counters(ref, dec),
        **_hierarchy_counters(hobj),
        **_merge_counters(report),
        **{f"sampling.{k}": v for k, v in sampled.items()},
        "stats.lf_coverage_pct": stats["lf"]["coverage_pct_sampled"],
    }
    quality = {
        "lf_coverage_pct": stats["lf"]["coverage_pct_sampled"],
        "budget_used_pct": 100.0 * sampled["budget_used_frac"],
    }
    return Inspection({0: failures}, counters, quality)


def _inspect_staged(inp: Inputs, out: Path, codes: list[int]) -> Inspection:
    ref = checks.Reference(inp.edges_path, inp.nodes_path)
    dec = _load(out / "decomposition.json")
    hobj, merged = _load(out / "hierarchy.json"), _load(out / "hierarchy_merged.json")
    report, stats = _load(out / "merge_report.json"), _load(out / "stats_l1.json")
    sample_failures, sampled = checks.check_sample(
        ref, merged, (out / "sample.tsv").read_text(encoding="utf-8"), 0.5
    )
    failures = {
        0: checks.check_decomposition(ref, dec),
        1: checks.check_hierarchy(ref, hobj),
        2: checks.check_hierarchy(ref, merged, checks.merged_into(report))
        + checks.check_merge(hobj, merged, report),
        3: checks.check_stats(ref, merged, stats, "l1"),
        4: sample_failures,
    }
    counters = {
        **_graph_counters(ref, dec),
        **_hierarchy_counters(hobj),
        **_merge_counters(report),
        **{f"sampling.{k}": v for k, v in sampled.items()},
    }
    return Inspection(failures, counters, {"budget_used_pct": 100.0 * sampled["budget_used_frac"]})


def _inspect_lab(inp: Inputs, out: Path, codes: list[int]) -> Inspection:
    ref = checks.Reference(inp.edges_path, lcc=False)  # the lab runs on the whole graph
    degeneracy, verify = _load(out / "degeneracy.json"), _load(out / "verify.json")
    n = ref.g.number_of_nodes()
    enumerations = 1 + (verify["degeneracy"] is not None) + (verify["statement_count"] is not None)
    partitions = checks.bell(n) * enumerations
    counters = {
        "graph.n": n,
        "graph.m": ref.g.number_of_edges(),
        "modularity.partitions": partitions,
        "modularity.partition_bytes_computed": partitions * n,
        "modularity.single_move_checks": verify["single_move_checks"],
        "modularity.pair_checks": verify["pair_checks"],
        "modularity.pair_violations": verify["pair_violations"],
    }
    found = checks.check_lab(ref, degeneracy, verify, codes[1], LAB_D)
    on_degeneracy = [f for f in found if f.startswith("degeneracy:")]
    failures = {0: on_degeneracy, 1: [f for f in found if f not in on_degeneracy]}
    return Inspection(failures, counters, {"partitions": partitions})


def _pipeline_calls(*extra: str):
    def calls(inp: Inputs, out: Path) -> list[list[str]]:
        return [["pipeline", *_io(inp), "--out", str(out), *extra]]

    return calls


def _staged_calls(inp: Inputs, out: Path) -> list[list[str]]:
    io = _io(inp)
    merged = str(out / "hierarchy_merged.json")
    return [
        ["decompose", *io, "--out", str(out / "decomposition.json")],
        ["hierarchy", *io, "--out", str(out / "hierarchy.json")],
        ["merge", *io, "--hierarchy", str(out / "hierarchy.json"), "--mode", "mrc",
         "--out", merged, "--report", str(out / "merge_report.json")],
        ["stats", *io, "--hierarchy", merged, "--level", "l1", "--out", str(out / "stats_l1.json")],
        ["sample", *io, "--hierarchy", merged, "--edge-fraction", "0.5", "--out", str(out / "sample.tsv")],
    ]


def _lab_calls(inp: Inputs, out: Path) -> list[list[str]]:
    edges = ["--edges", str(inp.edges_path)]
    return [
        ["degeneracy", *edges, "--epsilon", LAB_EPSILON, "--d", str(LAB_D), "--out", str(out / "degeneracy.json")],
        ["verify-bounds", *edges, "--d", str(LAB_D), "--out", str(out / "verify.json")],
    ]


_PIPELINE_ARTIFACTS = {
    name: 0
    for name in (
        "decomposition.json",
        "hierarchy.json",
        "hierarchy_merged.json",
        "merge_report.json",
        "stats.json",
        "sample.tsv",
    )
}

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "kg-pipeline",
            "acceptance-size node-heavy KG (58.8k nodes, 97k edges, 57% degree 1) through the "
            "default pipeline; ingest, hierarchy build and JSON writes dominate",
            inputs.kg_sparse,
            _pipeline_calls(),
            _PIPELINE_ARTIFACTS,
            _inspect_pipeline,
        ),
        Workload(
            "dense-pipeline",
            "edge-heavy planted blocks (30k nodes, ~260k edges, max core ~22) through the pipeline "
            "with mrc merging; edge costs, ranking and sampling dominate, JSON writes are small",
            inputs.planted_blocks,
            _pipeline_calls("--merge-mode", "mrc"),
            _PIPELINE_ARTIFACTS,
            _inspect_pipeline,
        ),
        Workload(
            "staged-cli",
            "the kg-pipeline input through separate subcommands; every step re-ingests the graph "
            "and three read hierarchy JSON back, so the fileio read path is measured",
            inputs.kg_sparse,
            _staged_calls,
            {
                "decomposition.json": 0,
                "hierarchy.json": 1,
                "hierarchy_merged.json": 2,
                "merge_report.json": 2,
                "stats_l1.json": 3,
                "sample.tsv": 4,
            },
            _inspect_staged,
        ),
        Workload(
            "modularity-lab",
            "12-node sparse graphs (Bell(12) = 4.2M partitions) through degeneracy and "
            "verify-bounds; the only workload that runs modularity, pipeline layers stay idle",
            inputs.lab_graph,
            _lab_calls,
            {"degeneracy.json": 0, "verify.json": 1},
            _inspect_lab,
        ),
    )
}
