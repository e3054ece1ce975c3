"""Deterministic k-core community hierarchies for sparse knowledge graphs.

The package replaces stochastic modularity clustering in a GraphRAG-style
indexing pipeline with core decomposition: a residual-aware hierarchy of
size-bounded communities, merging passes for tiny clusters, token-budgeted
edge sampling, and an empirical lab quantifying why modularity optimization
is degenerate on sparse graphs in the first place.
"""

from .cores import CoreDecomposition, core_numbers
from .errors import ConfigError, CoreHierError, InputError, VerificationError
from .fixtures import generate_kg_sparse, three_level_example
from .graph import Graph, NodeMeta, is_connected, largest_connected_component, load_graph
from .hierarchy import Cluster, Hierarchy, build_hierarchy, split_component
from .merging import MergeMode, MergeReport, merge_small_clusters
from .modularity import (
    NEW_COMMUNITY,
    DegeneracyReport,
    ModularityBreakdown,
    Partition,
    SparseBoundsReport,
    all_partition_assignments,
    degeneracy_thresholds,
    enumerate_degeneracy,
    modularity,
    move_delta,
    pair_perturbation_bound,
    sensitivity,
    single_move_bound,
    verify_sparse_bounds,
)
from .sampling import (
    SampleResult,
    TokenModel,
    budget_from_edge_fraction,
    default_edge_costs,
    derive_max_cluster_size,
    round_robin_sample,
)
from .stats import CommunityStats, community_stats, select_level

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CoreHierError",
    "InputError",
    "VerificationError",
    "Graph",
    "NodeMeta",
    "load_graph",
    "largest_connected_component",
    "is_connected",
    "CoreDecomposition",
    "core_numbers",
    "Cluster",
    "Hierarchy",
    "build_hierarchy",
    "split_component",
    "MergeMode",
    "MergeReport",
    "merge_small_clusters",
    "TokenModel",
    "SampleResult",
    "derive_max_cluster_size",
    "default_edge_costs",
    "budget_from_edge_fraction",
    "round_robin_sample",
    "Partition",
    "ModularityBreakdown",
    "DegeneracyReport",
    "SparseBoundsReport",
    "NEW_COMMUNITY",
    "modularity",
    "move_delta",
    "sensitivity",
    "all_partition_assignments",
    "enumerate_degeneracy",
    "degeneracy_thresholds",
    "verify_sparse_bounds",
    "single_move_bound",
    "pair_perturbation_bound",
    "CommunityStats",
    "select_level",
    "community_stats",
    "generate_kg_sparse",
    "three_level_example",
]
