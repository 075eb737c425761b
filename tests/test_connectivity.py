"""Max flow, Gomory-Hu trees, and flow reduction against brute-force oracles.

The Dinic cuts are also held to ``edmonds_karp``, the slow reference
max flow, cut for cut and tree edge for tree edge.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import pickle
import random
import sys
from pathlib import Path

import numpy as np
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

import edmonds_karp


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


@st.composite
def graphs(draw, max_nodes: int = 9) -> WasgGraph:
    """Small graphs with isolated nodes, several components and capacities up to 2**40."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    names = [f"n{i:02d}" for i in range(n)]
    index = st.integers(0, max_nodes)
    capacity = st.integers(1, 6) | st.integers(1, 2**40)
    caps: dict[tuple[str, str], int] = {}
    for a, b, c in draw(st.lists(st.tuples(index, index, capacity), max_size=20)):
        if a < b < n:
            caps[(names[a], names[b])] = caps.get((names[a], names[b]), 0) + c
    return WasgGraph(nodes=frozenset(names), edges=caps)


class TestBuildGraph:
    def test_drops_same_grid_pairs(self):
        g = build_graph({("A", "B"): 3, ("A", "A"): 5})
        assert g.nodes == {"A", "B"}
        assert g.edges == {("A", "B"): 3}

    @pytest.mark.parametrize(
        "count",
        [True, 2.7, math.nan, math.inf, -1, np.float64(0.5)],
        ids=["bool", "fractional", "nan", "inf", "negative", "numpy-fractional"],
    )
    def test_refuses_counts_that_are_not_non_negative_integers(self, count):
        with pytest.raises(ValueError, match=r"pair \('a', 'b'\): count .* is not a non-negative integer"):
            build_graph({("a", "b"): count, ("a", "c"): 1})

    def test_refuses_a_bad_count_on_a_same_grid_entry(self):
        with pytest.raises(ValueError, match=r"pair \('a', 'a'\)"):
            build_graph({("a", "a"): 0.5})

    def test_takes_python_and_numpy_integers_and_drops_zero_counts(self):
        g = build_graph({("b", "a"): np.int64(2), ("a", "c"): 3, ("b", "c"): np.uint8(0), ("c", "d"): 0})
        assert g.edges == {("a", "b"): 2, ("a", "c"): 3}
        assert all(type(c) is int for c in g.edges.values())

    def test_empty(self):
        g = build_graph({})
        assert not g.nodes and not g.edges

    def test_average_degree(self):
        g = graph_from_edges([("A", "B", 1), ("B", "C", 1), ("A", "C", 1)])
        assert g.average_degree() == 2.0

    @pytest.mark.parametrize(
        "nodes, edges, message",
        [
            ({"A"}, {("A", "A"): 1}, "self-loop on 'A'"),
            ({"A", "B"}, {("B", "A"): 1}, "edge key ('B', 'A') not in sorted order"),
            ({"A"}, {("A", "B"): 1}, "edge ('A', 'B') references unknown node"),
            ({"A", "B"}, {("A", "B"): 0}, "edge ('A', 'B') capacity 0 not a positive integer"),
        ],
        ids=["self_loop", "unsorted", "unknown_node", "capacity"],
    )
    def test_invalid_edge_is_refused(self, nodes, edges, message):
        with pytest.raises(ValueError) as err:
            WasgGraph(nodes=frozenset(nodes), edges=edges)
        assert str(err.value) == message


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
    @given(g=graphs(max_nodes=11))
    def test_matches_networkx_per_component(self, g):
        nx = pytest.importorskip("networkx")
        reference = nx.Graph()
        reference.add_nodes_from(g.nodes)
        reference.add_edges_from((u, v, {"capacity": c}) for (u, v), c in g.edges.items())
        want = dict.fromkeys(itertools.combinations(sorted(g.nodes), 2), 0)
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

    @pytest.mark.parametrize("failed", [set(), {"A"}])
    def test_graph_without_nodes_gives_empty_report(self, failed):
        # No inter-grid link: nothing to fail, so the empty report, not AllNodesFailed.
        report = flow_reduction(build_graph({("A", "A"): 2}), failed)
        assert report.to_dict() == {"failed": [], "mean_reduction": 0.0, "pairs": []}

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

    def test_mean_sums_left_to_right(self):
        # K5 with capacity 9 plus a hub W at capacity 4 to each node: every
        # pair's flow falls from 40 to 36 when W fails, a reduction of 0.1.
        # Ten pairs of 0.1 sum to 0.9999999999999999 left to right, and to
        # 1.0 compensated (Python 3.12's sum(), math.fsum).
        core = "ABCDE"
        edges = [(u, v, 9) for u, v in itertools.combinations(core, 2)] + [(u, "W", 4) for u in core]
        report = flow_reduction(graph_from_edges(edges), {"W"})
        assert [p.reduction for p in report.pairs] == [0.1] * 10
        assert report.mean_reduction == 0.9999999999999999 / 10 != 0.1

    def test_report_serialization(self):
        g = graph_from_edges([("A", "B", 3), ("B", "C", 2)])
        doc = flow_reduction(g, {"B"}).to_dict()
        assert doc["failed"] == ["B"]
        assert doc["pairs"][0]["u"] == "A"


class TestConstructionBudget:
    @staticmethod
    def min_cut_calls(monkeypatch, g) -> int:
        """Cuts ``gomory_hu`` makes on its residual network."""
        import netwattzap.connectivity as conn_mod

        calls = []
        real_cut = conn_mod._ResidualNetwork.cut

        def counting_cut(net, s, t):
            calls.append((s, t))
            return real_cut(net, s, t)

        monkeypatch.setattr(conn_mod._ResidualNetwork, "cut", counting_cut)
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


class TestDinicAgainstEdmondsKarp:
    @settings(max_examples=150, deadline=None)
    @given(g=graphs())
    def test_min_cut_value_and_source_side_for_every_ordered_pair(self, g):
        for s, t in itertools.permutations(sorted(g.nodes), 2):
            assert min_cut(g, s, t) == edmonds_karp.min_cut(g, s, t)

    @settings(max_examples=150, deadline=None)
    @given(g=graphs(max_nodes=11))
    def test_gomory_hu_edges_match_gusfield(self, g):
        assert gomory_hu(g).edges == edmonds_karp.gomory_hu(g).edges

    @settings(max_examples=100, deadline=None)
    @given(g=graphs(), data=st.data())
    def test_flow_reduction_report_matches(self, g, data):
        import netwattzap.connectivity as conn_mod

        failed = data.draw(st.sets(st.sampled_from(sorted(g.nodes))), label="failed") if g.nodes else set()
        if failed == g.nodes:
            return
        fast = flow_reduction(g, failed).to_dict()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conn_mod, "gomory_hu", edmonds_karp.gomory_hu)
            slow = flow_reduction(WasgGraph(nodes=g.nodes, edges=dict(g.edges)), failed).to_dict()
        assert fast == slow


def sweep_inputs(out: Path):
    """The benchmark's seed-1 resilience sweep: its grid graph and 60 resolved failure sets."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    from netwattzap.failure import resolve_scenario, scenario_from_dict
    from netwattzap.grid_model import load_registry

    gen.gen_resilience_sweep(1, out)
    pairs = json.loads((out / "pairs.json").read_text(encoding="utf-8"))
    registry = load_registry(out / "wasg.geojson")
    scenarios = json.loads((out / "scenarios.json").read_text(encoding="utf-8"))
    return (
        {(a, b): c for a, b, c in pairs},
        [resolve_scenario(scenario_from_dict(doc), registry) for doc in scenarios],
    )


class TestCachedTree:
    def test_sweep_on_one_graph_matches_a_fresh_graph_per_scenario(self, tmp_path):
        pair_counts, failure_sets = sweep_inputs(tmp_path)
        assert len(failure_sets) == 60
        shared = build_graph(pair_counts)
        for failed in failure_sets:
            cached = json.dumps(flow_reduction(shared, failed).to_dict())
            fresh = json.dumps(flow_reduction(build_graph(pair_counts), failed).to_dict())
            assert cached == fresh

    def test_distinct_graphs_never_share_a_tree(self):
        caps = {("A", "B"): 3, ("B", "C"): 2}
        first = graph_from_edges([("A", "B", 3), ("B", "C", 2)])
        twin = WasgGraph(nodes=frozenset("ABC"), edges=caps)
        other = WasgGraph(nodes=frozenset("ABC"), edges={("A", "B"): 1, ("B", "C"): 2})
        assert first == twin
        assert first.gomory_hu_tree is not twin.gomory_hu_tree
        assert first.gomory_hu_tree == twin.gomory_hu_tree
        assert other.gomory_hu_tree == gomory_hu(other) != first.gomory_hu_tree
        assert flow_reduction(first, {"C"}).pairs[0].flow_before == 3
        assert flow_reduction(other, {"C"}).pairs[0].flow_before == 1

    def test_edges_are_a_read_only_copy(self):
        caps = {("A", "B"): 3, ("B", "C"): 2}
        nodes = {"A", "B", "C"}
        g = WasgGraph(nodes=nodes, edges=caps)
        tree = g.gomory_hu_tree
        with pytest.raises(TypeError):
            g.edges[("A", "B")] = 1
        caps[("A", "B")] = 1
        caps[("A", "C")] = 9
        nodes.add("D")
        assert g.edges == {("A", "B"): 3, ("B", "C"): 2}
        assert g.nodes == {"A", "B", "C"}
        assert g.gomory_hu_tree is tree
        assert tree == gomory_hu(g)
        assert flow_reduction(g, {"B"}).pairs[0].flow_before == 2

    def test_graph_pickles_and_copies(self):
        g = graph_from_edges([("A", "B", 3), ("B", "C", 2)])
        g.gomory_hu_tree
        for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            assert clone == g
            assert "gomory_hu_tree" not in vars(clone)
            assert clone.gomory_hu_tree == g.gomory_hu_tree
