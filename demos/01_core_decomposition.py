"""Core decomposition on a small worked example.

Loads the 16-node example graph, runs the preprocessing every later stage
expects (largest component), and prints the nested shell structure that the
peeling uncovers: shell k holds the nodes of core number exactly k.
"""

from corehier import core_numbers, largest_connected_component, load_graph, three_level_example

edges, nodes = three_level_example()
g = largest_connected_component(load_graph(edges, nodes))

print(f"graph: {g.n} nodes, {g.m} edges, average degree {g.avg_degree:.2f}")

dec = core_numbers(g)
print(f"maximum core: {dec.max_core}")
for k in sorted(set(dec.core)):
    names = ", ".join(g.external_ids[v] for v in range(g.n) if dec.core[v] == k)
    print(f"  shell {k}: {names}")

# The defining property: inside the k-core every node keeps at least k
# neighbors, no matter how the rest of the graph looks.
for k in range(1, dec.max_core + 1):
    members = {v for v in range(g.n) if dec.core[v] >= k}
    min_internal = min(sum(1 for w in g.indices[g.indptr[v]:g.indptr[v + 1]] if w in members) for v in members)
    print(f"  {k}-core has {len(members)} nodes, minimum internal degree {min_internal}")

print()
print("Shells nest: every (k+1)-core sits inside the k-core, so the graph")
print("peels like an onion from periphery (degree-1 fringe) to dense center.")
