"""Independent checks of corehier's artifacts, and counters read from them.

Nothing here imports corehier. The reference view of an input is rebuilt
with networkx from the same TSV/JSONL files the program reads, and every
rule is re-derived from the documented behaviour: core numbers, hierarchy
invariants, the edge-fraction budget, the round-robin ownership rule, the
coverage measure and the modularity lab's closed-form thresholds. Each
check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import networkx as nx

TOKEN_LIMIT = 8000  # corehier's default context window
EDGE_OVERHEAD = 8  # corehier's default flat per-edge token cost
TOLERANCE = 1e-9
MAX_REPORTED = 3  # failure messages kept per check


def bell(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def artifact_hashes(out_dir: Path, names) -> dict[str, str]:
    """sha256 of each named artifact that exists in ``out_dir``."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in names
        if (out_dir / name).exists()
    }


def differing(first: dict[str, str], other: dict[str, str]) -> list[str]:
    """Artifacts whose bytes differ between two runs of the same input, or exist in one only."""
    return sorted(name for name in first.keys() | other.keys() if first.get(name) != other.get(name))


class Reference:
    """networkx view of one input: its graph and token counts.

    ``g`` is the largest connected component (ties go to the component
    holding the smallest id), or with ``lcc=False`` the whole graph;
    ``n_input`` counts every input node.
    """

    def __init__(self, edges_path: Path, nodes_path: Path | None = None, lcc: bool = True):
        edges = []
        for line in Path(edges_path).read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                src, dst = line.split("\t")[:2]
                edges.append((src.strip(), dst.strip()))
        self.edge_records = len(edges)
        self.tokens: dict[str, int] = {}
        if nodes_path is not None:
            for line in Path(nodes_path).read_text(encoding="utf-8").splitlines():
                if line.strip():
                    obj = json.loads(line)
                    self.tokens[obj["id"]] = obj.get("tokens", 0)
        g = nx.Graph()
        g.add_nodes_from(self.tokens)
        g.add_edges_from(edges)
        g.remove_edges_from(list(nx.selfloop_edges(g)))
        self.n_input = len(g)
        if lcc:
            keep = min(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
            g.remove_nodes_from([v for v in g if v not in keep])
        self.g = g
        self.total_tokens = sum(self.token(v) for v in g)

    def token(self, v: str) -> int:
        return self.tokens.get(v, 0)

    def max_cluster_size(self) -> int:
        """The size cap corehier derives from its default token limit."""
        return max(2, TOKEN_LIMIT * len(self.g) // self.total_tokens)

    def budget(self, fraction: float) -> int:
        """Cost of the top ``fraction`` of LCC edges ranked by endpoint degree sum."""
        deg = dict(self.g.degree)
        edges = [(u, w) if u < w else (w, u) for u, w in self.g.edges()]
        edges.sort(key=lambda e: (-(deg[e[0]] + deg[e[1]]), e[0], e[1]))
        count = int(fraction * len(edges) + 1e-9)
        tokens = self.tokens
        return sum(tokens[u] + tokens[w] + EDGE_OVERHEAD for u, w in edges[:count])


def check_decomposition(ref: Reference, obj: dict) -> list[str]:
    """Core numbers must equal networkx's on the LCC."""
    cores = obj.get("cores", {})
    if set(cores) != set(ref.g):
        return [f"decomposition covers {len(cores)} nodes, the LCC has {ref.g.number_of_nodes()}"]
    expected = nx.core_number(ref.g)
    bad = [v for v in sorted(expected) if cores[v] != expected[v]]
    out = [f"core number of {v} is {cores[v]}, networkx says {expected[v]}" for v in bad[:MAX_REPORTED]]
    if obj.get("max_core") != max(expected.values()):
        out.append(f"max_core {obj.get('max_core')} != {max(expected.values())}")
    return out


def _children(clusters: dict[int, dict]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {cid: [] for cid in clusters}
    for cid, c in clusters.items():
        if c["parent"] in out:
            out[c["parent"]].append(cid)
    return out


def leaves_of(hobj: dict) -> list[dict]:
    return [c for c in hobj["clusters"] if c["leaf"]]


def check_hierarchy(
    ref: Reference, hobj: dict, merged_into: dict[int, int] | None = None
) -> list[str]:
    """Structural invariants of a hierarchy JSON over the LCC.

    Every LCC node lies in a leaf, parent references exist and form no
    cycle, leaves have no children, and each cluster's own members (minus
    attached singletons and shared anchors) stay within the size cap. In a
    merged hierarchy ``merged_into`` maps host id to the number of size-2
    clusters folded into it, each of which may add two members.
    """
    out: list[str] = []
    cap = ref.max_cluster_size()
    if hobj.get("max_cluster_size") != cap:
        out.append(f"max_cluster_size {hobj.get('max_cluster_size')} != recomputed {cap}")
    clusters = {c["id"]: c for c in hobj["clusters"]}
    if len(clusters) != len(hobj["clusters"]):
        out.append("duplicate cluster ids")
    for cid, c in clusters.items():
        steps, cur = 0, c["parent"]
        while cur is not None and steps <= len(clusters):
            if cur not in clusters:
                out.append(f"cluster {cid} has unknown ancestor {cur}")
                break
            cur, steps = clusters[cur]["parent"], steps + 1
        if steps > len(clusters):
            out.append(f"cluster {cid} has a parent cycle")
    for cid in hobj.get("roots", []):
        if cid not in clusters or clusters[cid]["parent"] is not None:
            out.append(f"root {cid} is missing or has a parent")
    children = _children(clusters)
    attached: dict[int, set[str]] = {}
    for v, cid in hobj.get("attached_singletons", {}).items():
        attached.setdefault(cid, set()).add(v)
    nodes = set(ref.g)
    covered: set[str] = set()
    for cid, c in clusters.items():
        members = set(c["members"])
        if not members <= nodes:
            out.append(f"cluster {cid} holds nodes outside the LCC")
        own = members - attached.get(cid, set()) - set(c.get("anchors", []))
        allowed = cap + 2 * (merged_into or {}).get(cid, 0)
        if len(own) > allowed:
            out.append(f"cluster {cid} has {len(own)} own members, cap {allowed}")
        if c["leaf"]:
            covered |= members
            if children[cid]:
                out.append(f"leaf {cid} has children")
    missing = nodes - covered
    if missing:
        out.append(f"{len(missing)} LCC nodes are in no leaf, e.g. {sorted(missing)[0]}")
    return out[: MAX_REPORTED * 4]


def check_merge(hobj: dict, merged: dict, report: dict) -> list[str]:
    """The merge report must describe the difference between the two hierarchies."""
    out: list[str] = []
    before = {c["id"] for c in hobj["clusters"]}
    after = {c["id"] for c in merged["clusters"]}
    if not after <= before:
        out.append("merging invented cluster ids")
    gone = {small for small, _ in report["merged"]}
    if before - after != gone:
        out.append("removed clusters differ from the merged list in the report")
    if any(host not in after for _, host in report["merged"]):
        out.append("a merge host is missing from the merged hierarchy")
    if report["clusters_before"] != len(before) or report["clusters_after"] != len(after):
        out.append("report cluster counts do not match the hierarchies")
    return out


def merged_into(report: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for _, host in report["merged"]:
        out[host] = out.get(host, 0) + 1
    return out


def owned_edges(ref: Reference, hobj: dict) -> dict[int, set[tuple[str, str]]]:
    """Internal edges of each leaf; an edge inside several leaves belongs to the first visited.

    Leaves are visited by level descending, then id ascending.
    """
    claimed: set[tuple[str, str]] = set()
    out: dict[int, set[tuple[str, str]]] = {}
    for leaf in sorted(leaves_of(hobj), key=lambda c: (-c["level"], c["id"])):
        members = set(leaf["members"])
        mine = {(u, w) for u in members for w in members.intersection(ref.g.adj[u]) if u < w} - claimed
        claimed |= mine
        out[leaf["id"]] = mine
    return out


def check_sample(ref: Reference, hobj: dict, text: str, fraction: float) -> tuple[list[str], dict]:
    """Every sampled edge is an owned edge of its community, priced right, within budget.

    Returns the failures and the sampling counters read from the artifact.
    """
    out: list[str] = []
    owned = owned_edges(ref, hobj)
    picked: dict[int, int] = {}
    seen: set[tuple[str, str]] = set()
    total = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        src, dst, community, cost = line.split("\t")
        edge = (src, dst) if src < dst else (dst, src)
        cid, cost = int(community), int(cost)
        if edge in seen:
            out.append(f"sample line {lineno}: edge {src}-{dst} selected twice")
        seen.add(edge)
        if edge not in owned.get(cid, ()):
            out.append(f"sample line {lineno}: {src}-{dst} is not an edge owned by leaf {cid}")
        expected = ref.token(src) + ref.token(dst) + EDGE_OVERHEAD
        if cost != expected:
            out.append(f"sample line {lineno}: cost {cost} != {expected}")
        picked[cid] = picked.get(cid, 0) + 1
        total += cost
    budget = ref.budget(fraction)
    if total > budget:
        out.append(f"sampled cost {total} exceeds the budget {budget}")
    counters = {
        "selected": len(seen),
        "retired": len(owned),
        "unaffordable": sum(1 for cid, edges in owned.items() if picked.get(cid, 0) < len(edges)),
        "budget_used_frac": total / budget if budget else 0.0,
    }
    return out[: MAX_REPORTED * 4], counters


def sampled_coverage(ref: Reference, clusters: list[dict], token_limit: int = TOKEN_LIMIT) -> float:
    """Share of LCC tokens admitted when each cluster, in id order, fills one context window."""
    counted: set[str] = set()
    admitted = 0
    for c in sorted(clusters, key=lambda c: c["id"]):
        room = token_limit
        for v in sorted(c["members"]):
            if v in counted:
                continue
            if ref.token(v) > room:
                break
            counted.add(v)
            admitted += ref.token(v)
            room -= ref.token(v)
    return 100.0 * admitted / ref.total_tokens


def level_clusters(hobj: dict, tag: str) -> list[dict]:
    """LF: the leaves. L1: the distinct parents of the leaves."""
    leaves = leaves_of(hobj)
    if tag == "lf":
        return leaves
    by_id = {c["id"]: c for c in hobj["clusters"]}
    return [by_id[p] for p in sorted({c["parent"] for c in leaves if c["parent"] is not None})]


def check_stats(ref: Reference, hobj: dict, stats: dict, tag: str) -> list[str]:
    clusters = level_clusters(hobj, tag)
    out = []
    if stats["num_communities"] != len(clusters):
        out.append(f"{tag} communities {stats['num_communities']} != {len(clusters)}")
    expected = sampled_coverage(ref, clusters)
    if not math.isclose(stats["coverage_pct_sampled"], expected, rel_tol=TOLERANCE):
        out.append(f"{tag} sampled coverage {stats['coverage_pct_sampled']} != {expected}")
    return out


def check_lab(ref: Reference, degeneracy: dict, verify: dict, verify_exit: int, d: int) -> list[str]:
    """Closed-form quantities of the lab reports, and the expected verify-bounds verdict.

    ``verify-bounds`` exits 4 by design when the pair constant is violated;
    that is the expected verdict only while the single-move bound and the
    degeneracy lower bound both hold. Each message starts with the name of
    the report it concerns, ``degeneracy:`` or ``verify-bounds:``.
    """
    g = ref.g
    n, m = g.number_of_nodes(), g.number_of_edges()
    kbar = 2.0 * m / n
    n_le_d = sum(1 for _, k in g.degree if k <= d)
    statement = d * (2.0 + kbar) / (2.0 * m)
    proof = d * (2.0 + kbar) / ((d + 1) * kbar) + d * d / ((d + 1) ** 2 * kbar * kbar)
    greedy_q = nx.community.modularity(g, nx.community.greedy_modularity_communities(g))
    out = []
    for name, report in (("degeneracy", degeneracy), ("verify-bounds", verify["degeneracy"])):
        if report is None:
            out.append(f"{name}: no degeneracy report")
            continue
        if report["n_le_d"] != n_le_d or report["lower_bound"] != 2 ** (n_le_d // (d + 1)):
            out.append(f"{name}: low-degree count or lower bound is wrong")
        if not (
            math.isclose(report["statement_threshold"], statement, rel_tol=TOLERANCE)
            and math.isclose(report["proof_threshold"], proof, rel_tol=TOLERANCE)
        ):
            out.append(f"{name}: thresholds differ from the closed forms")
        if report["q_star"] < greedy_q - TOLERANCE:
            out.append(f"{name}: Q* {report['q_star']} is below a greedy partition's {greedy_q}")
        if not 1 <= report["degenerate_count"] <= bell(n):
            out.append(f"{name}: degenerate count {report['degenerate_count']} out of range")
    if verify["single_move_violations"] != 0 or verify["single_move_max_ratio"] > 1 + TOLERANCE:
        out.append("verify-bounds: the single-move bound is violated")
    holds = verify["degeneracy"] is not None and (
        verify["degeneracy"]["degenerate_count"] >= verify["degeneracy"]["lower_bound"]
    )
    if verify["degeneracy_bound_holds"] is not True or not holds:
        out.append("verify-bounds: the degeneracy lower bound does not hold")
    expected_exit = 4 if verify["pair_violations"] > 0 else 0
    if verify_exit != expected_exit:
        out.append(f"verify-bounds exited {verify_exit}, expected {expected_exit}")
    return out
