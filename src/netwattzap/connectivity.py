"""Grid-to-grid connectivity graph and all-pairs max-flow machinery.

Nodes are grids; an edge's capacity is the count of IP links whose two
endpoints map to the two grids (same-grid links are excluded). Max flow
uses Edmonds-Karp on the undirected graph; all-pairs values come from a
Gomory-Hu tree built with Gusfield's method over the whole graph, one
max-flow call per non-root node, processed in sorted node order so
outputs are deterministic. A cut between two components has value 0
and zero-weight tree edges are dropped, so disconnected inputs produce
a forest; cross-component pairs have flow 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import AllNodesFailed, UnknownNode


@dataclass(frozen=True)
class WasgGraph:
    """Undirected graph with positive integer capacities, no self-loops."""

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for (u, v), capacity in self.edges.items():
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u > v:
                raise ValueError(f"edge key ({u!r}, {v!r}) not in sorted order")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if not isinstance(capacity, int) or capacity <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) capacity {capacity!r} not a positive integer")

    def adjacency(self) -> dict[str, dict[str, int]]:
        adj: dict[str, dict[str, int]] = {n: {} for n in sorted(self.nodes)}
        for (u, v), capacity in sorted(self.edges.items()):
            adj[u][v] = capacity
            adj[v][u] = capacity
        return adj

    def average_degree(self) -> float:
        return 2 * len(self.edges) / len(self.nodes) if self.nodes else 0.0


def build_graph(pair_counts: Mapping[tuple[str, str], int]) -> WasgGraph:
    """Build the grid graph from unordered pair counts.

    Same-grid entries and zero counts are dropped; the nodes are the
    endpoints of the remaining edges.
    """
    edges: dict[tuple[str, str], int] = {}
    node_set: set[str] = set()
    for (a, b), count in pair_counts.items():
        if a == b or count <= 0:
            continue
        key = (a, b) if a <= b else (b, a)
        edges[key] = edges.get(key, 0) + int(count)
        node_set.update(key)
    return WasgGraph(nodes=frozenset(node_set), edges=edges)


def _bfs_augmenting_path(residual, s: str, t: str) -> dict[str, str]:
    """BFS parent map from s over positive residual capacity.

    When t is not among its keys, the keys are every node s reaches.
    """
    parent: dict[str, str] = {s: s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        if u == t:
            break
        for v, capacity in residual[u].items():
            if capacity > 0 and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def min_cut(g: WasgGraph, s: str, t: str) -> tuple[int, frozenset[str]]:
    """Value of the minimum s-t cut and the s-side node set.

    Raises:
        UnknownNode: s or t not in the graph.
        ValueError: s == t.
    """
    if s not in g.nodes:
        raise UnknownNode(f"no node {s!r}")
    if t not in g.nodes:
        raise UnknownNode(f"no node {t!r}")
    if s == t:
        raise ValueError("source and sink must differ")
    residual = g.adjacency()
    flow = 0
    while True:
        parent = _bfs_augmenting_path(residual, s, t)
        if t not in parent:
            return flow, frozenset(parent)
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            c = residual[u][v]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0) + bottleneck
            v = u
        flow += bottleneck


def max_flow(g: WasgGraph, s: str, t: str) -> int:
    """Maximum s-t flow; 0 when s and t lie in different components."""
    return min_cut(g, s, t)[0]


@dataclass(frozen=True)
class GomoryHuTree:
    """Weighted tree (forest, for disconnected inputs) encoding all-pairs min cuts.

    The minimum edge capacity on the tree path between two nodes equals
    their max flow in the source graph; nodes in different trees have
    flow 0.
    """

    nodes: frozenset[str]
    edges: tuple[tuple[str, str, int], ...]

    def _adjacency(self) -> dict[str, list[tuple[str, int]]]:
        adj: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj

    def all_pairs(self) -> Iterator[tuple[str, str, int]]:
        """All unordered pairs (u, v, flow), u < v, in sorted order."""
        ordered = sorted(self.nodes)
        adj = self._adjacency()
        for i, s in enumerate(ordered):
            # One BFS per source carries the running path minimum.
            best: dict[str, int] = {s: 0}
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for v, w in adj[u]:
                    if v not in best:
                        best[v] = w if u == s else min(best[u], w)
                        queue.append(v)
            for t in ordered[i + 1 :]:
                yield s, t, best.get(t, 0)


def gomory_hu(g: WasgGraph) -> GomoryHuTree:
    """Gusfield's construction over all nodes: |V|-1 max-flow calls.

    The smallest node is the root. A cut between components has value
    0 and its tree edge is dropped; within a component every cut is at
    least 1, because capacities are positive integers.
    """
    ordered = sorted(g.nodes)
    parent = {n: ordered[0] for n in ordered}
    weight: dict[str, int] = {}
    for s in ordered[1:]:
        t = parent[s]
        value, source_side = min_cut(g, s, t)
        weight[s] = value
        for other in source_side:
            if other != s and parent[other] == t:
                parent[other] = s
        grand = parent[t]
        if grand != t and grand in source_side:
            # The cut also separates t from its parent: s takes over
            # t's tree edge and t hangs off s instead.
            parent[s] = grand
            parent[t] = s
            weight[s] = weight[t]
            weight[t] = value
    edges: list[tuple[str, str, int]] = []
    for n, w in weight.items():
        if w:
            u, v = sorted((n, parent[n]))
            edges.append((u, v, w))
    return GomoryHuTree(nodes=g.nodes, edges=tuple(sorted(edges)))


def subgraph(g: WasgGraph, keep: Iterable[str]) -> WasgGraph:
    """Induced subgraph on the kept nodes."""
    kept = frozenset(keep) & g.nodes
    edges = {key: c for key, c in g.edges.items() if key[0] in kept and key[1] in kept}
    return WasgGraph(nodes=kept, edges=edges)


@dataclass(frozen=True)
class PairReduction:
    u: str
    v: str
    flow_before: int
    flow_after: int
    reduction: float


@dataclass
class FlowReductionReport:
    """Mean max-flow reduction over surviving pairs after node failures."""

    failed: tuple[str, ...]
    mean_reduction: float
    pairs: tuple[PairReduction, ...]

    def to_dict(self) -> dict:
        return {
            "failed": list(self.failed),
            "mean_reduction": self.mean_reduction,
            "pairs": [
                {
                    "u": p.u,
                    "v": p.v,
                    "flow_before": p.flow_before,
                    "flow_after": p.flow_after,
                    "reduction": p.reduction,
                }
                for p in self.pairs
            ],
        }


def flow_reduction(g: WasgGraph, failed: Iterable[str]) -> FlowReductionReport:
    """Remove failed nodes and report per-pair and mean max-flow reduction.

    Pairs whose before-failure flow is 0 are excluded from the mean, as
    are pairs touching a failed node; with no qualifying pair the mean
    is 0.0 over an empty table. Reductions are clamped to [0, 1].

    Raises:
        AllNodesFailed: when no graph node survives.
    """
    failed_set = frozenset(failed) & g.nodes
    surviving = sorted(g.nodes - failed_set)
    if not surviving:
        raise AllNodesFailed("failure scenario removes every connectivity-graph node")

    before_tree = gomory_hu(g)
    after_flows = {(u, v): flow for u, v, flow in gomory_hu(subgraph(g, surviving)).all_pairs()}

    pairs: list[PairReduction] = []
    total = 0.0
    for u, v, before in before_tree.all_pairs():
        if before == 0 or u in failed_set or v in failed_set:
            continue
        after = after_flows[(u, v)]
        reduction = min(1.0, max(0.0, (before - after) / before))
        pairs.append(PairReduction(u=u, v=v, flow_before=before, flow_after=after, reduction=reduction))
        total += reduction
    mean = total / len(pairs) if pairs else 0.0
    return FlowReductionReport(failed=tuple(sorted(failed_set)), mean_reduction=mean, pairs=tuple(pairs))
