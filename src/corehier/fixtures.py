"""Deterministic fixture graphs: a worked 16-node example and a sparse generator."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import NodeMeta

#: Edges of the worked example used across tests and demos. Sixteen nodes
#: a..p arranged so that the decomposition has three levels: the 2-core is
#: exactly f..p, the 3-core is the clique m..p, nodes a..e fall out at level
#: 2 (component a-b, the pair c-d sharing neighbor g, and the lone e), and
#: level 3 leaves behind residual components f-h, i-j and k-l.
THREE_LEVEL_EDGES = [
    ("a", "b"),
    ("a", "f"),
    ("c", "g"),
    ("d", "g"),
    ("e", "f"),
    ("f", "g"),
    ("f", "h"),
    ("f", "m"),
    ("g", "h"),
    ("i", "j"),
    ("i", "m"),
    ("j", "n"),
    ("k", "l"),
    ("k", "o"),
    ("l", "p"),
    ("m", "n"),
    ("m", "o"),
    ("m", "p"),
    ("n", "o"),
    ("n", "p"),
    ("o", "p"),
]


def three_level_example() -> tuple[list[tuple[str, str]], list[NodeMeta]]:
    """Edge and node records for the 16-node three-level example graph."""
    names = [chr(ord("a") + i) for i in range(16)]
    nodes = [NodeMeta(external_id=nm, label=f"node {nm}", token_count=10 + 2 * i) for i, nm in enumerate(names)]
    return list(THREE_LEVEL_EDGES), nodes


def generate_kg_sparse(n: int, seed: int = 0) -> tuple[list[tuple[str, str]], list[NodeMeta]]:
    """Connected sparse graph shaped like an extracted knowledge graph.

    Roughly 55-60% of nodes end up with degree exactly 1 and the average
    degree lands between about 3.1 and 3.9, inside the envelope real
    extraction pipelines produce. Construction: the non-peripheral nodes
    form a shuffled cycle (so each keeps degree >= 2) plus random chords,
    and every peripheral node hangs off one random cycle node. Token counts
    are drawn uniformly from [10, 120]. Fully reproducible per seed (PCG64).
    ``n`` must be below 2**31, the most nodes a graph's int32 CSR indices
    can number.
    """
    if n < 10:
        raise ConfigError("kg_sparse profile needs at least 10 nodes")
    if n >= 2**31:
        raise ConfigError("kg_sparse profile needs fewer than 2**31 nodes")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.default_rng(seed)
    deg1_target = rng.uniform(0.55, 0.60)
    kbar_target = rng.uniform(3.1, 3.9)

    # At small n the sampled targets may not fit (the non-peripheral part is
    # too small to hold the needed chords); relax toward the tolerated edges
    # of the profile before giving up.
    n_peripheral = int(round(deg1_target * n))
    while True:
        n_core = n - n_peripheral
        m_total = int(round(kbar_target * n / 2.0))
        max_core_edges = n_core * (n_core - 1) // 2
        m_core = min(m_total - n_peripheral, max_core_edges)
        achieved_kbar = 2.0 * (m_core + n_peripheral) / n
        if n_core >= 3 and m_core >= n_core and achieved_kbar >= 2.88:
            break
        n_peripheral -= 1
        if n_peripheral < int(0.50 * n):
            raise ConfigError(f"kg_sparse profile unachievable for n={n}")

    core_ids = list(rng.permutation(n_core))
    edges: set[tuple[int, int]] = set()
    for idx, a in enumerate(core_ids):
        b = core_ids[(idx + 1) % n_core]
        edges.add((min(a, b), max(a, b)))
    needed = m_core - len(edges)
    while needed > 0:
        batch = rng.integers(0, n_core, size=(max(64, 2 * needed), 2))
        for a, b in batch:
            if needed == 0:
                break
            if a == b:
                continue
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key in edges:
                continue
            edges.add(key)
            needed -= 1

    hosts = rng.integers(0, n_core, size=n_peripheral)
    for offset, host in enumerate(hosts):
        edges.add((int(host), n_core + offset))

    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]
    tokens = rng.integers(10, 121, size=n)
    nodes = [
        NodeMeta(external_id=names[i], label=f"entity {i}", token_count=int(tokens[i]))
        for i in range(n)
    ]
    edge_records = [(names[a], names[b]) for a, b in sorted(edges)]
    return edge_records, nodes
