"""Grid-to-grid connectivity graph and all-pairs max-flow machinery.

Nodes are grids; an edge's capacity is the count of IP links whose two
endpoints map to the two grids (same-grid links are excluded). Max flow
is Dinic's algorithm on an integer-indexed residual network. All-pairs
values come from a Gomory-Hu tree, built once per graph by Gusfield's
method: one cut per non-root node, in sorted node order so outputs are
deterministic. A cut between two components has value 0 and zero-weight
tree edges are dropped, so disconnected inputs produce a forest;
cross-component pairs have flow 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import AllNodesFailed, UnknownNode
from .geo import _ordered_sum


@dataclass(frozen=True)
class WasgGraph:
    """Undirected graph with positive integer capacities, no self-loops."""

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        # Read-only copies, so the tree cached on first use cannot go stale.
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", MappingProxyType(dict(self.edges)))
        for (u, v), capacity in self.edges.items():
            if u == v:
                raise ValueError(f"self-loop on {u!r}")
            if u > v:
                raise ValueError(f"edge key ({u!r}, {v!r}) not in sorted order")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown node")
            if not isinstance(capacity, int) or capacity <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) capacity {capacity!r} not a positive integer")

    def __reduce__(self):  # a mappingproxy does not pickle; the tree is rebuilt on use
        return WasgGraph, (self.nodes, dict(self.edges))

    @cached_property
    def gomory_hu_tree(self) -> GomoryHuTree:
        """``gomory_hu(self)``, built on first use and kept."""
        return gomory_hu(self)

    def average_degree(self) -> float:
        return 2 * len(self.edges) / len(self.nodes) if self.nodes else 0.0


def build_graph(pair_counts: Mapping[tuple[str, str], int]) -> WasgGraph:
    """Build the grid graph from unordered pair counts.

    Same-grid entries and zero counts are dropped; the nodes are the
    endpoints of the remaining edges. A count that is a bool, fractional,
    non-finite or negative raises ValueError naming its pair.
    """
    edges: dict[tuple[str, str], int] = {}
    for (a, b), count in pair_counts.items():
        # int() alone would take True as 1, cut 2.7 to 2 and drop a NaN count's edge unseen.
        if isinstance(count, bool) or not isinstance(count, Real) or not 0 <= count < math.inf or count % 1:
            raise ValueError(f"pair {(a, b)!r}: count {count!r} is not a non-negative integer")
        if a != b and count > 0:
            key = (a, b) if a <= b else (b, a)
            edges[key] = edges.get(key, 0) + int(count)
    return WasgGraph(nodes=frozenset(n for key in edges for n in key), edges=edges)


class _ResidualNetwork:
    """Node indices 0..n-1 in name order; an undirected edge is the arc pair e, e ^ 1."""

    def __init__(self, g: WasgGraph):
        self.names = sorted(g.nodes)
        index = {name: i for i, name in enumerate(self.names)}
        self.adj: list[list[int]] = [[] for _ in self.names]
        self.head: list[int] = []  # arc -> node it enters
        self.cap: list[int] = []  # arc -> capacity
        for (u, v), capacity in sorted(g.edges.items()):
            self.adj[index[u]].append(len(self.head))
            self.adj[index[v]].append(len(self.head) + 1)
            self.head += (index[v], index[u])
            self.cap += (capacity, capacity)

    def cut(self, s: int, t: int) -> tuple[int, list[int]]:
        """Dinic's max flow from s to t on a copy of the capacities: (value, s side)."""
        adj, head, cap = self.adj, self.head, self.cap[:]
        flow = 0
        while True:
            level = [-1] * len(adj)
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in adj[u]:
                    if cap[e] and level[head[e]] < 0:
                        level[head[e]] = level[u] + 1
                        queue.append(head[e])
                if level[t] >= 0:
                    break
            else:  # t unreachable: every maximum flow leaves s reaching this same set
                return flow, queue
            # Blocking flow with current-arc pointers; retreat from dead ends.
            pointer = [0] * len(adj)
            path: list[int] = []
            u = s
            while True:
                arcs, i, want = adj[u], pointer[u], level[u] + 1
                while i < len(arcs) and not (cap[arcs[i]] and level[head[arcs[i]]] == want):
                    i += 1
                pointer[u] = i
                if i == len(arcs):
                    if not path:
                        break
                    u = head[path.pop() ^ 1]
                    pointer[u] += 1
                    continue
                path.append(arcs[i])
                u = head[arcs[i]]
                if u == t:
                    push = min(cap[e] for e in path)
                    for e in path:
                        cap[e] -= push
                        cap[e ^ 1] += push
                    flow += push
                    del path[next(k for k, e in enumerate(path) if not cap[e]) :]
                    u = head[path[-1]] if path else s


def min_cut(g: WasgGraph, s: str, t: str) -> tuple[int, frozenset[str]]:
    """Value of the minimum s-t cut and the s-side node set.

    Raises:
        UnknownNode: s or t not in the graph.
        ValueError: s == t.
    """
    for node in (s, t):
        if node not in g.nodes:
            raise UnknownNode(f"no node {node!r}")
    if s == t:
        raise ValueError("source and sink must differ")
    net = _ResidualNetwork(g)
    value, source_side = net.cut(net.names.index(s), net.names.index(t))
    return value, frozenset(net.names[i] for i in source_side)


def max_flow(g: WasgGraph, s: str, t: str) -> int:
    """Maximum s-t flow; 0 when s and t lie in different components."""
    return min_cut(g, s, t)[0]


@dataclass(frozen=True)
class GomoryHuTree:
    """Weighted tree (forest, for disconnected inputs) encoding all-pairs min cuts.

    The minimum edge capacity on the tree path between two nodes equals their
    max flow in the source graph; nodes in different trees have flow 0.
    """

    nodes: frozenset[str]
    edges: tuple[tuple[str, str, int], ...]

    def all_pairs(self) -> Iterator[tuple[str, str, int]]:
        """All unordered pairs (u, v, flow), u < v, in sorted order."""
        adj: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nodes}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        ordered = sorted(self.nodes)
        for i, s in enumerate(ordered):
            # One search per source carries the running path minimum.
            best: dict[str, int] = {s: 0}
            queue = [s]
            for u in queue:
                for v, w in adj[u]:
                    if v not in best:
                        best[v] = w if u == s else min(best[u], w)
                        queue.append(v)
            for t in ordered[i + 1 :]:
                yield s, t, best.get(t, 0)


def gomory_hu(g: WasgGraph) -> GomoryHuTree:
    """Gusfield's construction over all nodes: |V|-1 cuts on one residual network.

    The smallest node is the root. A cut between components has value
    0 and its tree edge is dropped; within a component every cut is at
    least 1, because capacities are positive integers.
    """
    net = _ResidualNetwork(g)
    names = net.names
    parent, weight = [0] * len(names), [0] * len(names)
    for s in range(1, len(names)):
        t = parent[s]
        value, source_side = net.cut(s, t)
        weight[s] = value
        for other in source_side:
            if other != s and parent[other] == t:
                parent[other] = s
        grand = parent[t]
        if grand != t and grand in source_side:
            # The cut also separates t from its parent: s takes t's place.
            parent[s] = grand
            parent[t] = s
            weight[s] = weight[t]
            weight[t] = value
    edges = ((names[min(n, p)], names[max(n, p)], w) for n, (p, w) in enumerate(zip(parent, weight)) if w)
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
            "pairs": [dict(vars(p)) for p in self.pairs],  # fields in declaration order
        }


def flow_reduction(g: WasgGraph, failed: Iterable[str]) -> FlowReductionReport:
    """Remove failed nodes and report per-pair and mean max-flow reduction.

    Pairs whose before-failure flow is 0 are excluded from the mean, as
    are pairs touching a failed node; with no qualifying pair the mean
    is 0.0 over an empty table. Reductions are clamped to [0, 1]. A
    graph with no node (no inter-grid link) gives that empty report,
    with no failed node.

    Raises:
        AllNodesFailed: when the graph has nodes and none survives.
    """
    failed_set = frozenset(failed) & g.nodes
    surviving = sorted(g.nodes - failed_set)
    if g.nodes and not surviving:
        raise AllNodesFailed("failure scenario removes every connectivity-graph node")
    after_flows = {(u, v): flow for u, v, flow in gomory_hu(subgraph(g, surviving)).all_pairs()}
    pairs: list[PairReduction] = []
    for u, v, before in g.gomory_hu_tree.all_pairs():
        if before == 0 or u in failed_set or v in failed_set:
            continue
        after = after_flows[(u, v)]
        reduction = min(1.0, max(0.0, (before - after) / before))
        pairs.append(PairReduction(u=u, v=v, flow_before=before, flow_after=after, reduction=reduction))
    mean = _ordered_sum(p.reduction for p in pairs) / len(pairs) if pairs else 0.0
    return FlowReductionReport(failed=tuple(sorted(failed_set)), mean_reduction=mean, pairs=tuple(pairs))
