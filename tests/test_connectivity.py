"""Max flow, Gomory-Hu trees, and flow reduction against brute-force oracles."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwattzap.connectivity import (
    WasgGraph,
    build_graph,
    flow_reduction,
    gomory_hu,
    max_flow,
    min_cut,
    subgraph,
)
from netwattzap.errors import AllNodesFailed, UnknownNode


def graph_from_edges(edges) -> WasgGraph:
    normalized = {}
    nodes = set()
    for u, v, c in edges:
        key = tuple(sorted((u, v)))
        normalized[key] = normalized.get(key, 0) + c
        nodes.update(key)
    return WasgGraph(nodes=frozenset(nodes), edges=normalized)


def exhaustive_min_cut(g: WasgGraph, s: str, t: str) -> int:
    """Enumerate all s/t partitions of the other nodes; cut = crossing capacity."""
    others = sorted(g.nodes - {s, t})
    best = None
    for mask in range(2 ** len(others)):
        s_side = {s} | {others[i] for i in range(len(others)) if mask >> i & 1}
        cut = sum(
            capacity
            for (u, v), capacity in g.edges.items()
            if (u in s_side) != (v in s_side)
        )
        best = cut if best is None else min(best, cut)
    return best


def tree_flows(g: WasgGraph) -> dict[tuple[str, str], int]:
    return {(s, t): f for s, t, f in gomory_hu(g).all_pairs()}


def random_graph(rng: random.Random, n: int, connected: bool = False, max_cap: int = 20) -> WasgGraph:
    names = [f"n{i:02d}" for i in range(n)]
    edges = {}
    if connected:
        shuffled = names[:]
        rng.shuffle(shuffled)
        for i in range(1, n):
            a = shuffled[rng.randrange(i)]
            b = shuffled[i]
            edges[tuple(sorted((a, b)))] = rng.randint(1, max_cap)
    for a, b in itertools.combinations(names, 2):
        key = tuple(sorted((a, b)))
        if key not in edges and rng.random() < 0.35:
            edges[key] = rng.randint(1, max_cap)
    return WasgGraph(nodes=frozenset(names), edges=edges)


class TestBuildGraph:
    def test_drops_same_grid_pairs(self):
        g = build_graph({("A", "B"): 3, ("A", "A"): 5})
        assert g.nodes == {"A", "B"}
        assert g.edges == {("A", "B"): 3}

    def test_empty(self):
        g = build_graph({})
        assert not g.nodes and not g.edges

    def test_average_degree(self):
        g = graph_from_edges([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
        assert g.average_degree() == 2.0

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            WasgGraph(nodes=frozenset({"A"}), edges={("A", "A"): 1})
        with pytest.raises(ValueError):
            WasgGraph(nodes=frozenset({"A", "B"}), edges={("B", "A"): 1})
        with pytest.raises(ValueError):
            WasgGraph(nodes=frozenset({"A", "B"}), edges={("A", "B"): 0})


class TestMaxFlow:
    def test_path_bottleneck(self):
        g = graph_from_edges([("A", "B", 3), ("B", "C", 2)])
        assert max_flow(g, "A", "C") == 2

    def test_disconnected_pair_is_zero(self):
        g = graph_from_edges([("A", "B", 3), ("C", "D", 1)])
        assert max_flow(g, "A", "D") == 0

    def test_unknown_node(self):
        g = graph_from_edges([("A", "B", 3)])
        with pytest.raises(UnknownNode):
            max_flow(g, "A", "Z")
        with pytest.raises(ValueError):
            max_flow(g, "A", "A")

    def test_symmetry(self):
        rng = random.Random(12)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 8))
            nodes = sorted(g.nodes)
            s, t = rng.sample(nodes, 2)
            assert max_flow(g, s, t) == max_flow(g, t, s)

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(99)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 9))
            nodes = sorted(g.nodes)
            for _ in range(3):
                s, t = rng.sample(nodes, 2)
                assert max_flow(g, s, t) == exhaustive_min_cut(g, s, t)

    def test_min_cut_partition_is_consistent(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(rng, rng.randint(3, 8), connected=True)
            nodes = sorted(g.nodes)
            s, t = rng.sample(nodes, 2)
            value, side = min_cut(g, s, t)
            assert s in side and t not in side
            crossing = sum(
                c for (u, v), c in g.edges.items() if (u in side) != (v in side)
            )
            assert crossing == value


class TestGomoryHu:
    def test_triangle_all_ones(self):
        g = graph_from_edges([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
        assert tree_flows(g) == {("A", "B"): 2, ("A", "C"): 2, ("B", "C"): 2}

    def test_star_bottleneck(self):
        g = graph_from_edges([("C", "L1", 5), ("C", "L2", 3)])
        assert tree_flows(g)[("L1", "L2")] == 3

    def test_edge_count_per_component(self):
        g = graph_from_edges([("A", "B", 1), ("C", "D", 2), ("D", "E", 2)])
        tree = gomory_hu(g)
        # Forest: (2-1) + (3-1) edges.
        assert len(tree.edges) == 3

    def test_matches_pairwise_max_flow(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 12), connected=rng.random() < 0.7)
            assert tree_flows(g) == {
                (s, t): max_flow(g, s, t) for s, t in itertools.combinations(sorted(g.nodes), 2)
            }

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=9),
        edges=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 6)), max_size=20
        ),
    )
    def test_matches_networkx_per_component(self, n, edges):
        nx = pytest.importorskip("networkx")
        names = [f"n{i}" for i in range(n)]
        caps: dict[tuple[str, str], int] = {}
        for a, b, c in edges:
            if a < b < n:
                caps[(names[a], names[b])] = caps.get((names[a], names[b]), 0) + c
        g = WasgGraph(nodes=frozenset(names), edges=caps)
        reference = nx.Graph()
        reference.add_nodes_from(names)
        reference.add_edges_from((u, v, {"capacity": c}) for (u, v), c in caps.items())
        want = dict.fromkeys(itertools.combinations(names, 2), 0)
        for comp in nx.connected_components(reference):
            if len(comp) < 2:
                continue
            tree = nx.gomory_hu_tree(reference.subgraph(comp))
            for s, t in itertools.combinations(sorted(comp), 2):
                path = nx.shortest_path(tree, s, t)
                want[(s, t)] = min(tree[u][v]["weight"] for u, v in zip(path, path[1:]))
        assert tree_flows(g) == want

    def test_deterministic(self):
        rng = random.Random(55)
        g = random_graph(rng, 10, connected=True)
        assert gomory_hu(g) == gomory_hu(g)


class TestFlowReduction:
    def test_path_middle_failure(self):
        g = graph_from_edges([("A", "B", 3), ("B", "C", 2)])
        report = flow_reduction(g, {"B"})
        assert report.mean_reduction == 1.0
        assert len(report.pairs) == 1
        assert report.pairs[0].flow_before == 2
        assert report.pairs[0].flow_after == 0

    def test_isolated_failure_means_zero(self):
        g = WasgGraph(nodes=frozenset("ABCX"), edges={("A", "B"): 3, ("B", "C"): 2})
        report = flow_reduction(g, {"X"})
        assert report.mean_reduction == 0.0
        assert all(p.reduction == 0.0 for p in report.pairs)

    def test_all_nodes_failed(self):
        g = graph_from_edges([("A", "B", 1)])
        with pytest.raises(AllNodesFailed):
            flow_reduction(g, {"A", "B"})

    def test_monotone_never_negative(self):
        rng = random.Random(77)
        for _ in range(20):
            g = random_graph(rng, rng.randint(4, 10), connected=True)
            failed = set(rng.sample(sorted(g.nodes), rng.randint(1, 2)))
            report = flow_reduction(g, failed)
            for p in report.pairs:
                assert p.flow_after <= p.flow_before
                assert 0.0 <= p.reduction <= 1.0

    def test_matches_brute_force_recomputation(self):
        rng = random.Random(13)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 10), connected=rng.random() < 0.7)
            failed = set(rng.sample(sorted(g.nodes), rng.randint(1, 2)))
            if failed == g.nodes:
                continue
            report = flow_reduction(g, failed)
            after_graph = subgraph(g, g.nodes - failed)
            surviving = sorted(g.nodes - failed)
            expected = {}
            for s, t in itertools.combinations(surviving, 2):
                before = max_flow(g, s, t)
                if before == 0:
                    continue
                after = max_flow(after_graph, s, t)
                expected[(s, t)] = (before, after)
            got = {(p.u, p.v): (p.flow_before, p.flow_after) for p in report.pairs}
            assert got == expected
            if expected:
                mean = sum((b - a) / b for b, a in expected.values()) / len(expected)
                assert report.mean_reduction == pytest.approx(mean)

    def test_report_serialization(self):
        g = graph_from_edges([("A", "B", 3), ("B", "C", 2)])
        doc = flow_reduction(g, {"B"}).to_dict()
        assert doc["failed"] == ["B"]
        assert doc["pairs"][0]["u"] == "A"


class TestConstructionBudget:
    @staticmethod
    def min_cut_calls(monkeypatch, g) -> int:
        import netwattzap.connectivity as conn_mod

        calls = []
        real_min_cut = conn_mod.min_cut

        def counting_min_cut(graph, s, t):
            calls.append((s, t))
            return real_min_cut(graph, s, t)

        monkeypatch.setattr(conn_mod, "min_cut", counting_min_cut)
        conn_mod.gomory_hu(g)
        return len(calls)

    def test_one_max_flow_call_per_non_root_node(self, monkeypatch):
        g = random_graph(random.Random(71), 11, connected=True)
        assert self.min_cut_calls(monkeypatch, g) == len(g.nodes) - 1

    def test_disconnected_graph_takes_one_call_per_non_root_node(self, monkeypatch):
        g = WasgGraph(
            nodes=frozenset({"A", "B", "C", "D", "E", "X"}),
            edges={("A", "B"): 1, ("C", "D"): 2, ("D", "E"): 2},
        )
        assert self.min_cut_calls(monkeypatch, g) == len(g.nodes) - 1
