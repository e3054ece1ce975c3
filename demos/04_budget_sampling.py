"""Round-robin token-budgeted edge selection across leaf communities.

Each leaf community ranks its internal edges by combined endpoint degree;
selection then cycles through communities from the densest level down,
taking one affordable edge per visit. Tightening the budget trims every
community fairly instead of starving the ones visited last.
"""

from corehier import (
    MergeMode,
    budget_from_edge_fraction,
    build_hierarchy,
    community_stats,
    default_edge_costs,
    derive_max_cluster_size,
    generate_kg_sparse,
    largest_connected_component,
    load_graph,
    merge_small_clusters,
    round_robin_sample,
)

edges, nodes = generate_kg_sparse(2000, seed=4)
g = largest_connected_component(load_graph(edges, nodes))
h = build_hierarchy(g, derive_max_cluster_size(8000, g))
merged, _ = merge_small_clusters(g, h, MergeMode.TWO_HOP_ONLY)

total_cost = sum(default_edge_costs(g, g.edges()))  # tokens(u) + tokens(v) + flat overhead
print(f"graph: {g.n} nodes, {g.m} edges, full edge-token cost {total_cost}")
print(f"leaf communities: {len(merged.leaf_ids)}")
print()

for fraction in (0.8, 0.7, 0.6, 0.4, 0.3, 0.2):
    budget = budget_from_edge_fraction(g, fraction)
    result = round_robin_sample(merged, g, budget)
    stats = community_stats(merged, "LF", g, sample=result)
    print(
        f"edge budget {int(fraction * 100):3d}%: token budget {budget:7d}, "
        f"selected {len(result.sources):5d} edges costing {result.total_tokens:7d} "
        f"({len(set(result.communities))} communities represented, "
        f"endpoint token coverage {stats.coverage_pct_sampled:.1f}%)"
    )

print()
print("Budgets are scaled against the whole graph while selection only draws")
print("community-internal edges, so generous budgets are non-binding; once")
print("the budget bites, every community is trimmed evenly rather than the")
print("last-visited ones being starved.")
print()
print("Budget safety is unconditional (total cost never exceeds the budget),")
print("and within a community the picks are always a prefix of its ranking,")
print("so the most prominent relations survive every tightening step.")
