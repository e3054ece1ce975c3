"""Walk through the residual-aware hierarchy on the worked example.

At each core level the builder separates nodes that survive at the next
density tier (core side) from those that fall out (residual side). Residual
components become leaves; lone nodes pool into two-hop groups or wait for a
final attachment. The output below matches the structure a hand trace gives.
"""

from corehier import build_hierarchy, largest_connected_component, load_graph, three_level_example

edges, nodes = three_level_example()
g = largest_connected_component(load_graph(edges, nodes))
h = build_hierarchy(g, max_cluster_size=16)


def label(cluster):
    names = "".join(sorted(g.external_ids[v] for v in cluster.members))
    leaf = " (leaf)" if h.is_leaf(cluster.id) else ""
    return f"[{cluster.id}] level {cluster.level} {cluster.kind:8s} {{{names}}}{leaf}"


def walk(cid, depth=0):
    print("  " * depth + label(h.clusters[cid]))
    for child in h.clusters[cid].children:
        walk(child, depth + 1)


for root in h.roots:
    walk(root)

print()
print("attached singletons:", {g.external_ids[v]: cid for v, cid in h.attached_singletons.items()})
print()
print("Reading the tree: the 2-core {f..p} refines the root; a-b fell out as a")
print("connected residual pair, c and d share a neighbor so they pool into a")
print("two-hop group, and e waited as a global singleton until the end, when")
print("it joined the leaf holding its only neighbor f.")
print()
print("Rebuilding is deterministic: no seeds, no tie-break randomness, so the")
print("same input always yields byte-identical cluster JSON.")
