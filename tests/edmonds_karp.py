"""Slow reference max flow: Edmonds-Karp on name-keyed dicts, and Gusfield's pass over it.

This is the max-flow code ``netwattzap.connectivity`` used before its
integer-indexed Dinic core; the differential tests hold the fast code to
it cut for cut and tree edge for tree edge.
"""

from __future__ import annotations

from collections import deque

from netwattzap.connectivity import GomoryHuTree, WasgGraph


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
    """Value of the minimum s-t cut and the s side, by shortest augmenting paths."""
    residual: dict[str, dict[str, int]] = {n: {} for n in sorted(g.nodes)}
    for (u, v), capacity in sorted(g.edges.items()):
        residual[u][v] = capacity
        residual[v][u] = capacity
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


def gomory_hu(g: WasgGraph) -> GomoryHuTree:
    """Gusfield's construction with one Edmonds-Karp cut per non-root node."""
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
