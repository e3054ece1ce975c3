"""Community counts, coverage, and level selection for retrieval.

Two coverage measures are reported side by side because they answer
different questions. Node coverage is the share of corpus tokens whose node
appears in any selected community; after singleton attachment the leaf level
covers every node, so it reads 100% there. Sampled coverage restricts the
numerator to content actually admitted downstream, either the endpoints of a
selected edge sample or, absent one, per-community token mass capped at the
context window. Both count each node once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import ConfigError, InputError
from .graph import Graph
from .hierarchy import Cluster, Hierarchy
from .sampling import SampleResult

LEVEL_LEAF = "LF"
LEVEL_ABOVE_LEAF = "L1"


def select_level(h: Hierarchy, tag: str) -> list[Cluster]:
    """Clusters at a retrieval granularity, ordered by cluster id.

    ``LF`` selects the registered leaves (``h.leaf_ids``); ``L1`` selects
    the distinct parents of those (the root included when it directly
    parents a leaf).
    """
    if tag.upper() == LEVEL_LEAF:
        return h.leaves()
    if tag.upper() == LEVEL_ABOVE_LEAF:
        parents = {c.parent for c in h.leaves() if c.parent is not None}
        return [h.clusters[cid] for cid in sorted(parents)]
    raise ConfigError(f"unknown level tag {tag!r}; expected LF or L1")


@dataclass(frozen=True)
class CommunityStats:
    """Counts and token coverage for one selected cluster set."""

    level_tag: str
    num_communities: int
    coverage_pct: float  # node-token coverage of the selection
    coverage_pct_sampled: float | None  # admitted-content coverage, when computable
    size_histogram: dict[int, int]

    def to_json_obj(self) -> dict:
        return {
            "level_tag": self.level_tag,
            "num_communities": self.num_communities,
            "coverage_pct_nodes": self.coverage_pct,
            "coverage_pct_sampled": self.coverage_pct_sampled,
            "histogram": {str(k): v for k, v in sorted(self.size_histogram.items())},
        }


def community_stats(
    h: Hierarchy,
    tag: str,
    g: Graph,
    sample: SampleResult | None = None,
    token_limit: int | None = None,
) -> CommunityStats:
    """Community count, size histogram, and both coverage measures.

    With ``sample`` given, sampled coverage counts tokens of nodes incident
    to a selected edge. Otherwise, with ``token_limit`` given, each selected
    community contributes member tokens (id order, nodes counted once
    globally) until the limit cuts it off. With neither, sampled coverage is
    None.

    Each percentage is the int quotient ``100 * part / total``, which is
    correctly rounded for token counts of any size.

    Cost: O(n + L log L + M) for the L selected clusters with M members in
    all, plus O(n + k) for a sample of k picks or O(M) with a token limit.
    Memory: the nodes covered, the sample's endpoints and the nodes
    counted against the limit are flagged in arrays of n bytes; sets of
    node ints took about 36 bytes per node each, and set kg-pipeline's
    peak RSS.
    """
    tokens = g.tokens
    total = sum(tokens)
    if total == 0:
        raise InputError("coverage undefined: every node has zero tokens")
    selected = select_level(h, tag)

    histogram: dict[int, int] = {}
    covered = bytearray(g.n)
    for cluster in selected:
        size = len(cluster.members)
        histogram[size] = histogram.get(size, 0) + 1
        for v in cluster.members:
            covered[v] = 1
    coverage = 100 * sum(compress(tokens, covered)) / total

    sampled: float | None = None
    if sample is not None:
        touched = np.zeros(g.n, dtype=bool)
        touched[sample.sources] = True
        touched[sample.targets] = True
        sampled = 100 * sum(compress(tokens, touched.tobytes())) / total
    elif token_limit is not None:
        if token_limit < 1:
            raise ConfigError("token limit must be positive")
        counted = bytearray(g.n)
        admitted = 0
        for cluster in selected:
            room = token_limit
            for v in cluster.members:
                if counted[v]:
                    continue
                cost = tokens[v]
                if cost > room:
                    break
                counted[v] = 1
                admitted += cost
                room -= cost
        sampled = 100 * admitted / total

    return CommunityStats(
        level_tag=tag,
        num_communities=len(selected),
        coverage_pct=coverage,
        coverage_pct_sampled=sampled,
        size_histogram=histogram,
    )
