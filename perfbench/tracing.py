"""Spans around corehier's public functions, recorded from outside the package.

:func:`install` wraps each function in :data:`TRACED` and rebinds every
module-level name in the loaded ``corehier`` modules that refers to it, for
example ``corehier.cli.build_hierarchy``, ``corehier.hierarchy.core_numbers``
and ``corehier.modularity.move_delta``. Callers look those names up at call
time, so the spans nest the way the real call path nests. Spans stay in
memory until the run ends.

The benchmark's speed sampler (``child.kernel``) runs inside the traced
calls. :meth:`Tracer.exclude` charges each sample to the innermost open
span, and :func:`self_times` takes it out of that span's self time, so the
self times hold only corehier's work.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

TRACED = {
    "fileio": [
        "read_edges_tsv",
        "read_nodes_jsonl",
        "json_dumps_stable",
        "hierarchy_to_json_obj",
        "hierarchy_from_json_obj",
        "sample_to_tsv",
    ],
    "graph": ["load_graph", "largest_connected_component", "is_connected"],
    "cores": ["core_numbers"],
    "hierarchy": ["build_hierarchy", "split_component"],
    "merging": ["merge_small_clusters"],
    "sampling": [
        "default_edge_costs",
        "budget_from_edge_fraction",
        "community_edge_ranking",
        "round_robin_sample",
    ],
    "stats": ["community_stats"],
    "modularity": [
        "enumerate_degeneracy",
        "all_partition_assignments",
        "verify_sparse_bounds",
        "move_delta",
        "sensitivity",
    ],
}


class Tracer:
    """Records spans as ``[name, parent index, start, end, excluded seconds]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None, 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of benchmark work to the innermost open span, if any."""
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`TRACED` wherever a corehier module names it."""
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "corehier"]
    for module_name, functions in TRACED.items():
        home = sys.modules[f"corehier.{module_name}"]
        for fn_name in functions:
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds), self being duration minus child spans and excluded time."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for (name, _, start, end, excluded), inner in zip(spans, child_time):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - inner - excluded)
    return out


def span_cost(n: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to a plain call: best of ``repeats`` timings of ``n`` calls each."""

    def noop() -> None:
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop)
    plain = traced = float("inf")
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(n):
            noop()
        mid = time.perf_counter()
        for _ in range(n):
            wrapped()
        end = time.perf_counter()
        plain, traced = min(plain, mid - start), min(traced, end - mid)
    return (traced - plain) / n
