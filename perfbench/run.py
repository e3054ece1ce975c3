"""corehier benchmark: end-to-end metrics per workload, or a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kg-pipeline --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 12 --trace 1 \
        --baseline perfbench/baseline.json

The benchmark writes the workload's seeded inputs under
``.perfbench_work/``, then repeats runs for ``--seconds``. Each run is one
fresh process that imports corehier from ``src/`` and makes the workload's
``corehier.cli.main`` calls in order. Nothing else runs meanwhile. Then
every run's artifacts are compared by sha256, and the first run's are
checked against an independent networkx reference. The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (calls and the ones that failed), and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The exit code is 1 when a check fails and 2 when the
corehier source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
from workloads import COUNTERS, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES_PER_RUN = 3  # import-only processes after each run, so set-up samples span the window
RUN_TIMEOUT_S = 120
# The median time of child.kernel right after the import on the host the
# baseline was measured on. setup_s is the measured set-up time scaled by this
# over the kernel time measured in the same processes, so it reads as seconds
# on that host and host-wide speed drift between invocations cancels.
REFERENCE_KERNEL_S = 0.0037
SUBCOMMANDS = ("pipeline", "decompose", "hierarchy", "merge", "stats", "sample", "degeneracy", "verify-bounds")

# End-to-end metrics of the result line. Raw wall time is too noisy to gate
# on a shared host (see README.md), so the gated time is wall_norm.
END_TO_END = {
    "wall_norm": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Printed in the report only: raw times, and figures that some workloads lack.
EXTRA_END_TO_END = {
    "wall_s": "s",
    "setup_wall_s": "s",
    "edges_per_s": "1/s",
    "partitions_per_s": "1/s",
    "ops_failed_frac": "ratio",
    "lf_coverage_pct": "%",
    "budget_used_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for module, functions in tracing.TRACED.items():
        for fn in functions:
            units[f"{module}.{fn}.calls"] = "count"
            units[f"{module}.{fn}.self_s"] = "s"
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.calls"] = "count"
        units[f"cli.{sub}.self_s"] = "s"
        units[f"cli.{sub}.exit_code"] = "code"
    units["fileio.bytes_read"] = "B"
    units["fileio.bytes_written"] = "B"
    units.update(COUNTERS)
    units["trace.wall_s"] = "s"
    units["trace.self_s_sum"] = "s"
    units["trace_overhead_pct"] = "%"
    return units


@dataclass
class Run:
    """One run process. A run whose process crashed or timed out has no timings, and every call failed."""

    traced: bool
    completed: bool
    codes: list[int]
    hashes: dict[str, str]
    setup_s: float = 0.0
    setup_kernel_s: float = 0.0
    wall_s: float = 0.0
    wall_norm: float = 0.0
    sampled_s: float = 0.0  # speed samples taken inside the calls
    rss_mb: float = 0.0
    spans: list[list] = field(default_factory=list)
    span_cost_s: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    failed: set[int] = field(default_factory=set)


def _child(work: Path, tag: str, calls: list[list[str]], traced: bool) -> tuple[float, dict] | None:
    """Run child.py once; returns (setup seconds, the child's result), or None if it failed."""
    spec, result, err = work / f"{tag}.spec.json", work / f"{tag}.result.json", work / f"{tag}.stderr"
    spec.write_text(json.dumps({"calls": calls, "trace": traced}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(err, "wb") as err_fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec), str(result)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=err_fh,
            start_new_session=True,  # one process group: child.py and its fork
        )
        try:
            proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"[{tag}] killed after {RUN_TIMEOUT_S} s", file=sys.stderr)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result.exists():
        tail = err.read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"[{tag}] benchmark process exited {proc.returncode}:\n{tail}", file=sys.stderr)
        return None
    out = json.loads(result.read_text(encoding="utf-8"))
    stderr_text = err.read_text(encoding="utf-8", errors="replace").strip()
    if stderr_text:
        print(f"[{tag}] stderr: {stderr_text[-2000:]}", file=sys.stderr)
    return out["import_done"] - spawned, out


def _normalised(durations: list[float], samples: list[float]) -> float:
    """Time inside the calls, less the speed samples taken in it, in mean-sample units."""
    in_calls = samples[:-1]  # the last sample is taken after the calls
    return (sum(durations) - sum(in_calls)) / statistics.mean(samples)


def _input_bytes(calls: list[list[str]]) -> int:
    total = 0
    for argv in calls:
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--edges", "--nodes", "--hierarchy") and Path(value).exists():
                total += Path(value).stat().st_size
    return total


def _one_run(wl: Workload, inputs, work: Path, index: int, traced: bool) -> Run:
    out = work / f"run{index}"
    out.mkdir()
    calls = wl.calls(inputs, out)
    child = _child(work, f"run{index}", calls, traced)
    hashes = checks.artifact_hashes(out, wl.artifacts)
    if child is None:
        run = Run(traced=traced, completed=False, codes=[], hashes=hashes)
    else:
        setup, res = child
        run = Run(
            traced=traced,
            completed=True,
            codes=res["exit_codes"],
            hashes=hashes,
            setup_s=setup,
            setup_kernel_s=res["import_kernel_s"],
            wall_s=sum(res["durations"]),
            wall_norm=_normalised(res["durations"], res["samples"]),
            sampled_s=sum(res["samples"][:-1]),
            rss_mb=res["maxrss_kb"] / 1024.0,
            spans=res["spans"],
            span_cost_s=res["span_cost_s"],
            bytes_read=_input_bytes(calls),
            bytes_written=sum((out / name).stat().st_size for name in hashes),
        )
    for i, argv in enumerate(calls):
        code = run.codes[i] if i < len(run.codes) else None
        if not (code == 0 or (argv[0] == "verify-bounds" and code == 4)):
            run.failed.add(i)
            print(f"[run{index}] call {i} ({argv[0]}) exited {code}", file=sys.stderr)
    if index > 0:
        shutil.rmtree(out)  # the first run's artifacts are the ones checked
    return run


def _check(wl: Workload, inputs, work: Path, runs: list[Run]):
    """Determinism and content checks; marks failed calls on each run."""
    first = runs[0]
    for i, run in enumerate(runs[1:], start=1):
        for name in checks.differing(first.hashes, run.hashes):
            run.failed.add(wl.artifacts[name])
            print(f"[run{i}] {name} differs from run0's bytes", file=sys.stderr)
    if first.failed:
        return None
    try:
        inspection = wl.inspect(inputs, work / "run0", first.codes)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        print(f"artifacts could not be read: {exc!r}", file=sys.stderr)
        for run in runs:
            run.failed.update(wl.artifacts.values())
        return None
    for call, messages in inspection.failures.items():
        for msg in messages:
            print(f"check failed (call {call}): {msg}", file=sys.stderr)
        if messages:
            producers = [name for name, c in wl.artifacts.items() if c == call]
            for run in runs:
                if all(run.hashes.get(n) == first.hashes.get(n) for n in producers):
                    run.failed.add(call)
    return inspection


def measure(wl: Workload, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Inputs, timed runs, checks and metrics of one workload."""
    inputs = wl.make_inputs(work / "input", seed)
    _child(work, "warm-up", [], False)  # the first import compiles the bytecode cache
    setup: list[tuple[float, float]] = []  # (set-up seconds, kernel seconds right after the import)
    runs: list[Run] = []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        for mode in ([False, True] if traced else [False]):
            runs.append(_one_run(wl, inputs, work, len(runs), mode))
            for _ in range(PROBES_PER_RUN):
                probe = _child(work, f"probe{len(setup)}", [], False)
                if probe is not None:
                    setup.append((probe[0], probe[1]["import_kernel_s"]))
    checked = _check(wl, inputs, work, runs)
    n_calls = len(wl.calls(inputs, work))
    attempted = n_calls * len(runs)
    failed = sum(len(run.failed) for run in runs)

    setup += [(r.setup_s, r.setup_kernel_s) for r in runs if r.completed]
    plain = [r for r in runs if not r.traced]
    timed = [r for r in plain if r.completed]  # a crashed run counts only as failed calls
    wall = _median(r.wall_s for r in timed)
    metrics = {
        "wall_norm": _median(r.wall_norm for r in timed),
        "setup_s": _scaled_setup(setup),
        "peak_rss_mb": _median(r.rss_mb for r in timed),
        "wall_s": wall,
        "setup_wall_s": _median(t for t, _ in setup),
        "edges_per_s": _median(inputs.edge_records / r.wall_s for r in timed),
        "ops_failed_frac": failed / attempted,
    }
    counters = {name: 0 for name in COUNTERS}
    if checked is not None:
        counters.update(checked.counters)
        metrics.update(checked.quality)
    if "partitions" in metrics:
        metrics["partitions_per_s"] = metrics.pop("partitions") / wall if wall else 0.0
    layers = _per_layer(runs, counters) if traced else {}
    return {
        "workload": wl.name,
        "seed": seed,
        "runs": len(plain),
        "traced_runs": len(runs) - len(plain),
        "setup_samples": len(setup),
        "correct": failed == 0 and checked is not None,
        "attempted": attempted,
        "failed": failed,
        "edge_records": inputs.edge_records,
        "metrics": metrics,
        "per_layer": layers,
    }


def _scaled_setup(setup: list[tuple[float, float]]) -> float:
    """Median set-up time at the reference speed: times REFERENCE_KERNEL_S over the median kernel time."""
    if not setup:
        return 0.0
    return statistics.median(t for t, _ in setup) * REFERENCE_KERNEL_S / statistics.median(k for _, k in setup)


def _median(values) -> float:
    """Median, or 0.0 when every run crashed (the result is then marked incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per_layer(runs: list[Run], counters: dict) -> dict:
    traced = [r for r in runs if r.traced and r.completed]
    per_run = [tracing.self_times(r.spans) for r in traced]
    out = {}
    for name, unit in per_layer_units().items():
        if name.endswith((".calls", ".self_s")):
            span, kind = name.rsplit(".", 1)
            values = [times.get(span, (0, 0.0))[0 if kind == "calls" else 1] for times in per_run]
            out[name] = _median(values)
    for sub in SUBCOMMANDS:
        codes = [code for name, code in _cli_codes(traced[0]) if name == sub] if traced else []
        out[f"cli.{sub}.exit_code"] = codes[-1] if codes else 0
    out["fileio.bytes_read"] = runs[0].bytes_read
    out["fileio.bytes_written"] = runs[0].bytes_written
    out.update(counters)
    # The speed samples are benchmark work, left out of the wall time as they are of the self times.
    out["trace.wall_s"] = _median(r.wall_s - r.sampled_s for r in traced)
    out["trace.self_s_sum"] = _median(sum(s for _, s in times.values()) for times in per_run)
    # The tracer's cost: spans recorded times the measured cost of one span, over
    # the traced time without it. Comparing traced with untraced runs cannot
    # resolve it: the tracer adds well under 1%, the run-to-run noise is larger.
    overheads = [len(r.spans) * r.span_cost_s for r in traced]
    out["trace_overhead_pct"] = _median(
        100.0 * cost / (r.wall_s - r.sampled_s - cost) for r, cost in zip(traced, overheads)
    )
    return out


def _cli_codes(run: Run) -> list[tuple[str, int]]:
    names = [s[0][len("cli."):] for s in run.spans if s[1] == -1]
    return list(zip(names, run.codes))


def _print_report(result: dict) -> None:
    wl = result["workload"]
    print(
        f"{wl}: seed {result['seed']}, {result['runs']} untraced runs, {result['traced_runs']} traced, "
        f"{result['setup_samples']} set-up samples, {result['edge_records']} input edge records, "
        f"{result['failed']}/{result['attempted']} calls failed"
    )
    units = {**END_TO_END, **EXTRA_END_TO_END}
    for name, value in result["metrics"].items():
        print(f"  {wl}  {name:<18} {value:.6g} {units[name]}")
    layer_units = per_layer_units()
    for name, value in result["per_layer"].items():
        print(f"  {wl}  {name:<48} {value:.6g} {layer_units[name]}")


def _result_line(results: list[dict], traced: bool) -> dict:
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        if traced:
            units = per_layer_units()
            chosen = res["per_layer"]
        else:
            units = END_TO_END
            chosen = {k: res["metrics"][k] for k in END_TO_END}
        for name, value in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _host() -> dict:
    import numpy

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev.stdout.strip() or "unknown",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--baseline", help="write the results and host info to this file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corehier" / "__init__.py").is_file():
        print(f"perfbench: no corehier source at {ROOT / 'src' / 'corehier'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # With --workload all, --trace 1 adds the traced breakdown to the untraced measurement.
    modes = [False, True] if args.workload == "all" and args.trace else [bool(args.trace)]
    work_root = ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    results = {mode: [] for mode in modes}
    try:
        for name in names:
            for mode in modes:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                res = measure(WORKLOADS[name], args.seed, args.seconds, mode, work)
                results[mode].append(res)
                _print_report(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another benchmark process still uses it

    if args.baseline:
        doc = {
            "host": _host(),
            "seed": args.seed,
            "seconds": args.seconds,
            "results": results.get(False, []),
            "per_layer": {r["workload"]: r["per_layer"] for r in results.get(True, [])},
        }
        Path(args.baseline).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    line = _result_line(results[modes[-1]], modes[-1])
    print(json.dumps(line))
    return 0 if all(r["correct"] for rs in results.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
