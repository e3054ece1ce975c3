"""Effect of the small-cluster merging passes on a realistic sparse graph.

Extraction-style graphs are dominated by degree-1 nodes, so the hierarchy
produces many two-node clusters. The merging passes fold those into
neighboring leaves: the basic pass takes only two-hop pairs, the extended
pass also takes residual pairs. A merge changes the hierarchy it is
given, so each pass here merges its own copy.
"""

from collections import Counter
from copy import deepcopy

from corehier import (
    MergeMode,
    build_hierarchy,
    derive_max_cluster_size,
    generate_kg_sparse,
    largest_connected_component,
    load_graph,
    merge_small_clusters,
)

edges, nodes = generate_kg_sparse(2000, seed=11)
g = largest_connected_component(load_graph(edges, nodes))
max_size = derive_max_cluster_size(8000, g)
h = build_hierarchy(g, max_size)


def describe(tag, hierarchy):
    sizes = Counter(len(c.members) for c in hierarchy.leaves())
    tiny = sizes.get(2, 0)
    print(
        f"{tag:12s} clusters={len(hierarchy.clusters):4d} leaves={len(hierarchy.leaf_ids):4d}"
        f" size-2 leaves={tiny:4d} largest leaf={max(sizes):3d}"
    )


def covered(hierarchy):
    return set().union(*(leaf.members for leaf in hierarchy.leaves()))


describe("unmerged", h)

merged_2h, report_2h = merge_small_clusters(g, deepcopy(h), MergeMode.TWO_HOP_ONLY)
describe("two-hop only", merged_2h)
print(f"  merged {len(report_2h.merged)} pairs, promoted {len(report_2h.promoted)}")

merged_ext, report_ext = merge_small_clusters(g, deepcopy(h), MergeMode.RESIDUAL_AND_TWO_HOP)
describe("extended", merged_ext)
print(f"  merged {len(report_ext.merged)} pairs, promoted {len(report_ext.promoted)}")

print()
print("Counts only ever shrink, and the union of leaf members is unchanged:")
print(f"  coverage before: {len(covered(h))} nodes")
print(f"  coverage after:  {len(covered(merged_ext))} nodes")
print()
print("Hosts absorb pairs in place, so a few leaves grow past the size cap;")
print("that is the point: two-node clusters are too small to summarize well.")
