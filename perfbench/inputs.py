"""Seeded input generators for the benchmark workloads.

The benchmark owns its generators instead of calling ``corehier.fixtures``:
a change to the program's fixture code must not change what the benchmark
measures. Every generator pins the size of its output (node and edge
counts), so different seeds vary the graph's wiring but not the amount of
work, and run-to-run spread stays small.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOKEN_RANGE = (10, 121)  # uniform token counts per node, upper end exclusive
PENDANT_FRAC = 0.575  # kg_sparse: share of nodes hung off the core with degree 1
BLOCKS = 500  # planted_blocks: number of blocks
BLOCK_SIZE = 60  # planted_blocks: nodes per block
DENSITY = (0.08, 0.45)  # planted_blocks: block densities, spread evenly over this range
LINKS = 25000  # planted_blocks: distinct edges between different blocks


@dataclass(frozen=True)
class Inputs:
    edges_path: Path
    nodes_path: Path | None
    edge_records: int


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


def _unique_pairs(rng, n_lo: int, n_hi: int, count: int, exclude: np.ndarray, valid=None) -> np.ndarray:
    """``count`` distinct undirected keys lo * n_hi + hi, drawn uniformly, none in ``exclude``."""
    picked = np.empty(0, dtype=np.int64)
    while len(picked) < count:
        batch = rng.integers(n_lo, n_hi, size=(2 * (count - len(picked)) + 64, 2))
        a, b = batch[:, 0], batch[:, 1]
        keep = a != b if valid is None else (a != b) & valid(a, b)
        lo, hi = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        keys = np.concatenate([picked, lo * n_hi + hi])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
        picked = keys[~np.isin(keys, exclude)]
    return picked[:count]


def _write(out_dir: Path, names: list[str], src, dst, tokens) -> Inputs:
    out_dir.mkdir(parents=True, exist_ok=True)
    order = np.lexsort((dst, src))
    edges_path = out_dir / "edges.tsv"
    edges_path.write_text(
        "".join(f"{names[a]}\t{names[b]}\n" for a, b in zip(src[order].tolist(), dst[order].tolist())),
        encoding="utf-8",
    )
    nodes_path = None
    if tokens is not None:
        nodes_path = out_dir / "nodes.jsonl"
        nodes_path.write_text(
            "".join(
                json.dumps({"id": nm, "label": f"entity {i}", "tokens": int(t)}, sort_keys=True) + "\n"
                for i, (nm, t) in enumerate(zip(names, tokens.tolist()))
            ),
            encoding="utf-8",
        )
    return Inputs(edges_path, nodes_path, len(order))


def kg_sparse(out_dir: Path, seed: int, n: int = 58800, m: int = 97485) -> Inputs:
    """LLM-extracted knowledge-graph shape: a sparse core plus many degree-1 nodes.

    Same construction as the ``kg_sparse`` fixture profile (a shuffled cycle
    over the core nodes, random chords, every pendant node hung off a random
    core node) with its size targets pinned: ``n`` nodes, exactly ``m``
    edges, and ``PENDANT_FRAC`` of the nodes pendant. The defaults match
    the acceptance fixture, 58.8k nodes and 97,485 edges.
    """
    rng = _rng(1, seed)
    n_pendant = int(round(PENDANT_FRAC * n))
    n_core = n - n_pendant
    cycle = rng.permutation(n_core)
    a, b = cycle, np.roll(cycle, -1)
    cycle_keys = np.minimum(a, b) * n_core + np.maximum(a, b)
    chords = _unique_pairs(rng, 0, n_core, m - n_pendant - n_core, cycle_keys)
    keys = np.concatenate([cycle_keys, chords])
    hosts = rng.integers(0, n_core, size=n_pendant)
    src = np.concatenate([keys // n_core, hosts])
    dst = np.concatenate([keys % n_core, np.arange(n_core, n)])
    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]
    return _write(out_dir, names, src, dst, rng.integers(*TOKEN_RANGE, size=n))


def planted_blocks(out_dir: Path, seed: int) -> Inputs:
    """Dense communities: ``BLOCKS`` random blocks joined by sparse links.

    Block densities are spread evenly over ``DENSITY`` and assigned to
    blocks in seeded order, so every seed has the same density mix and
    nearly the same edge count (~260k); the densest blocks give a maximum
    core in the low twenties. ``LINKS`` distinct edges join random nodes
    of different blocks.
    """
    rng = _rng(2, seed)
    n = BLOCKS * BLOCK_SIZE
    p = rng.permutation(np.linspace(DENSITY[0], DENSITY[1], BLOCKS))
    iu, ju = np.triu_indices(BLOCK_SIZE, 1)
    hit = rng.random((BLOCKS, len(iu))) < p[:, None]
    block_of, pair = np.nonzero(hit)
    offset = block_of * BLOCK_SIZE
    intra_src, intra_dst = offset + iu[pair], offset + ju[pair]
    cross = _unique_pairs(
        rng, 0, n, LINKS, np.empty(0, dtype=np.int64), valid=lambda x, y: x // BLOCK_SIZE != y // BLOCK_SIZE
    )
    src = np.concatenate([intra_src, cross // n])
    dst = np.concatenate([intra_dst, cross % n])
    names = [f"d{i:05d}" for i in range(n)]
    return _write(out_dir, names, src, dst, rng.integers(*TOKEN_RANGE, size=n))


def lab_graph(out_dir: Path, seed: int, n: int = 12, m: int = 14) -> Inputs:
    """Small connected sparse graph for the exhaustive modularity lab.

    A random recursive tree over a shuffled labelling plus ``m - n + 1``
    random chords. ``n`` = 12 is the enumeration limit (Bell(12) =
    4,213,597 partitions).
    """
    rng = _rng(3, seed)
    order = rng.permutation(n)
    parents = [int(order[rng.integers(0, i)]) for i in range(1, n)]
    tree_keys = np.array([min(p, int(c)) * n + max(p, int(c)) for p, c in zip(parents, order[1:])])
    chords = _unique_pairs(rng, 0, n, m - (n - 1), tree_keys)
    keys = np.concatenate([tree_keys, chords])
    names = [f"v{i:02d}" for i in range(n)]
    return _write(out_dir, names, keys // n, keys % n, None)
