"""The benchmark's own checks catch planted faults on small seeded inputs.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from corehier.cli import main as corehier_main  # noqa: E402

FRACTION = 0.05  # small enough that some communities are priced out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    inp = inputs.kg_sparse(base / "input", seed=3, n=600, m=1000)
    out = base / "out"
    argv = ["pipeline", "--edges", str(inp.edges_path), "--nodes", str(inp.nodes_path)]
    assert corehier_main([*argv, "--out", str(out), "--edge-fraction", str(FRACTION)]) == 0
    return inp, out, checks.Reference(inp.edges_path, inp.nodes_path)


@pytest.fixture(scope="module", params=[0, 1], ids=["pair-violations", "no-violations"])
def lab(request, tmp_path_factory):
    base = tmp_path_factory.mktemp("lab")
    inp = inputs.lab_graph(base / "input", seed=request.param, n=8, m=9)
    edges = ["--edges", str(inp.edges_path), "--d", "1"]
    corehier_main(["degeneracy", *edges, "--epsilon", "0.02", "--out", str(base / "degeneracy.json")])
    code = corehier_main(["verify-bounds", *edges, "--out", str(base / "verify.json")])
    ref = checks.Reference(inp.edges_path, lcc=False)
    return ref, _load(base / "degeneracy.json"), _load(base / "verify.json"), code


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_clean_artifacts_pass(pipeline):
    inp, out, ref = pipeline
    dec, hobj = _load(out / "decomposition.json"), _load(out / "hierarchy.json")
    merged, report = _load(out / "hierarchy_merged.json"), _load(out / "merge_report.json")
    assert checks.check_decomposition(ref, dec) == []
    assert checks.check_hierarchy(ref, hobj) == []
    assert checks.check_hierarchy(ref, merged, checks.merged_into(report)) == []
    assert checks.check_merge(hobj, merged, report) == []
    stats = _load(out / "stats.json")
    assert checks.check_stats(ref, merged, stats["lf"], "lf") == []
    assert checks.check_stats(ref, merged, stats["l1"], "l1") == []
    failures, counters = checks.check_sample(ref, merged, (out / "sample.tsv").read_text(), FRACTION)
    assert failures == []
    assert counters["unaffordable"] > 0


def test_corrupted_core_number_is_caught(pipeline):
    _, out, ref = pipeline
    dec = _load(out / "decomposition.json")
    node = sorted(dec["cores"])[0]
    dec["cores"][node] += 1
    failures = checks.check_decomposition(ref, dec)
    assert any(f"core number of {node}" in f for f in failures)


def test_dropped_leaf_member_is_caught(pipeline):
    _, out, ref = pipeline
    hobj = _load(out / "hierarchy.json")
    in_leaves = [v for c in checks.leaves_of(hobj) for v in c["members"]]
    leaf = next(c for c in checks.leaves_of(hobj) if any(in_leaves.count(v) == 1 for v in c["members"]))
    dropped = next(v for v in leaf["members"] if in_leaves.count(v) == 1)
    leaf["members"].remove(dropped)
    failures = checks.check_hierarchy(ref, hobj)
    assert any("in no leaf" in f for f in failures)


def test_sampled_edge_over_budget_is_caught(pipeline):
    _, out, ref = pipeline
    merged = _load(out / "hierarchy_merged.json")
    text = (out / "sample.tsv").read_text()
    picked = {tuple(sorted(line.split("\t")[:2])) for line in text.splitlines()[1:]}
    deg = dict(ref.g.degree)
    # The next edge by rank of a priced-out community is the one that did not fit.
    for cid, edges in checks.owned_edges(ref, merged).items():
        left = sorted(edges - picked, key=lambda e: (-(deg[e[0]] + deg[e[1]]), e))
        if left:
            u, w = left[0]
            break
    planted = text + f"{u}\t{w}\t{cid}\t{ref.token(u) + ref.token(w) + checks.EDGE_OVERHEAD}\n"
    failures, _ = checks.check_sample(ref, merged, planted, FRACTION)
    assert any("exceeds the budget" in f for f in failures)


def test_flipped_artifact_byte_is_caught(pipeline, tmp_path):
    _, out, _ = pipeline
    names = list(workloads.WORKLOADS["kg-pipeline"].artifacts)
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    assert checks.differing(checks.artifact_hashes(out, names), checks.artifact_hashes(copy, names)) == []
    data = bytearray((copy / "hierarchy.json").read_bytes())
    data[len(data) // 2] ^= 0x01
    (copy / "hierarchy.json").write_bytes(bytes(data))
    assert checks.differing(
        checks.artifact_hashes(out, names), checks.artifact_hashes(copy, names)
    ) == ["hierarchy.json"]


def test_verify_bounds_verdict(lab):
    ref, degeneracy, verify, code = lab
    assert code == (4 if verify["pair_violations"] else 0)
    assert checks.check_lab(ref, degeneracy, verify, code, d=1) == []
    wrong = 4 - code
    assert any(f"exited {wrong}" in f for f in checks.check_lab(ref, degeneracy, verify, wrong, d=1))
    broken = dict(verify, single_move_violations=1)
    assert any("single-move" in f for f in checks.check_lab(ref, degeneracy, broken, code, d=1))


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_crashed_run_counts_every_call_as_failed(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["kg-pipeline"]
    inp = inputs.Inputs(tmp_path / "edges.tsv", tmp_path / "nodes.jsonl", 0)
    monkeypatch.setattr(run, "_child", lambda *args: None)  # as after a crash or a timeout
    crashed = run._one_run(wl, inp, tmp_path, 0, traced=False)
    assert not crashed.completed
    assert crashed.failed == set(range(len(wl.calls(inp, tmp_path))))


def test_speed_samples_leave_self_times():
    # cli.pipeline spans 0..2 s; build_hierarchy spans 0.5..1.5 s and holds a 0.25 s sample.
    spans = [["cli.pipeline", -1, 0.0, 2.0, 0.0], ["hierarchy.build_hierarchy", 0, 0.5, 1.5, 0.25]]
    assert run.tracing.self_times(spans) == {
        "cli.pipeline": (1, 1.0),
        "hierarchy.build_hierarchy": (1, 0.75),
    }
