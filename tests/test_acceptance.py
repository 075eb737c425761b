"""Acceptance suite: one test per criterion, one pass/fail line each.

Every oracle here is implemented locally and independently of the code
path it checks: exhaustive min-cut enumeration, pairwise max-flow
recomputation, exhaustive subset enumeration, ray casting, and raw
recounts. Criterion 10 needs the real (user-supplied) datasets and is
skipped unless NETWATTZAP_DATASET_DIR is set; the README documents the
reproduction recipe.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from pathlib import Path

import pytest

from netwattzap.cli import main as cli_main
from netwattzap.connectivity import WasgGraph, flow_reduction, gomory_hu, max_flow, subgraph
from netwattzap.errors import UnsatisfiableStructure
from netwattzap.failure import FailureScenario, resolve_scenario, unavailability
from netwattzap.geo import EARTH_RADIUS_KM, GeoPoint, haversine_km, point_in_region
from netwattzap.grid_model import WasgRegion, aggregate_stats
from netwattzap.ingest import CleaningReport, ParsedTopology
from netwattzap.overlap import distribution_report, resolve_components, tally_topology
from netwattzap.placement import (
    Candidate,
    DemandPoint,
    LocationRule,
    PlacementProblem,
    SelectCount,
    latency_matrix,
    solve_problem,
)

from conftest import (
    build_cli_workspace,
    build_components,
    build_registry,
    build_stats,
    build_topology,
    link_rows,
    node_geo,
)


def _criterion(num: int, name: str, budget_s: float, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s, budget {budget_s}s"


# ------------------------------------------------------------ graph helpers


def random_graph(rng: random.Random, n: int, connected: bool, max_cap: int = 25) -> WasgGraph:
    names = [f"n{i:02d}" for i in range(n)]
    edges: dict[tuple[str, str], int] = {}
    if connected:
        shuffled = names[:]
        rng.shuffle(shuffled)
        for i in range(1, n):
            key = tuple(sorted((shuffled[rng.randrange(i)], shuffled[i])))
            edges[key] = rng.randint(1, max_cap)
    for a, b in itertools.combinations(names, 2):
        key = (a, b)
        if key not in edges and rng.random() < 0.3:
            edges[key] = rng.randint(1, max_cap)
    return WasgGraph(nodes=frozenset(names), edges=edges)


def exhaustive_min_cut(g: WasgGraph, s: str, t: str) -> int:
    others = sorted(g.nodes - {s, t})
    edge_items = list(g.edges.items())
    best = None
    for mask in range(2 ** len(others)):
        s_side = {s}
        for i in range(len(others)):
            if mask >> i & 1:
                s_side.add(others[i])
        cut = 0
        for (u, v), capacity in edge_items:
            if (u in s_side) != (v in s_side):
                cut += capacity
        if best is None or cut < best:
            best = cut
    return best


def test_criterion_01_gomory_hu_all_pairs():
    def run():
        rng = random.Random(101)
        for _ in range(200):
            g = random_graph(rng, rng.randint(4, 15), connected=True)
            flows = {(s, t): f for s, t, f in gomory_hu(g).all_pairs()}
            for s, t in itertools.combinations(sorted(g.nodes), 2):
                assert flows[(s, t)] == max_flow(g, s, t)

    _criterion(1, "Gomory-Hu tree equals direct max-flow on all pairs", 60.0, run)


def test_criterion_02_max_flow_vs_enumeration():
    def run():
        rng = random.Random(202)
        for _ in range(100):
            g = random_graph(rng, rng.randint(3, 10), connected=rng.random() < 0.8)
            nodes = sorted(g.nodes)
            for _ in range(3):
                s, t = rng.sample(nodes, 2)
                assert max_flow(g, s, t) == exhaustive_min_cut(g, s, t)

    _criterion(2, "Edmonds-Karp equals exhaustive s/t cut enumeration", 60.0, run)


def test_criterion_03_flow_reduction_vs_brute_force():
    def run():
        rng = random.Random(303)
        for _ in range(50):
            g = random_graph(rng, rng.randint(4, 12), connected=rng.random() < 0.8)
            failed = set(rng.sample(sorted(g.nodes), rng.randint(1, 2)))
            report = flow_reduction(g, failed)
            after_graph = subgraph(g, g.nodes - failed)
            surviving = sorted(g.nodes - failed)
            expected_pairs = {}
            for s, t in itertools.combinations(surviving, 2):
                before = max_flow(g, s, t)
                if before == 0:
                    continue
                after = max_flow(after_graph, s, t)
                expected_pairs[(s, t)] = (before, after, (before - after) / before)
            got = {(p.u, p.v): (p.flow_before, p.flow_after, p.reduction) for p in report.pairs}
            assert got == expected_pairs
            if expected_pairs:
                mean = sum(r for _, _, r in expected_pairs.values()) / len(expected_pairs)
                assert abs(report.mean_reduction - mean) < 1e-12

    _criterion(3, "Flow reduction equals per-pair recomputation", 120.0, run)


# ------------------------------------------------------ placement oracle


def _zone_key(c: Candidate) -> str | tuple[None, str]:
    # A tuple, as no zone name (a str) can equal it.
    return c.zone if c.zone is not None else (None, c.id)


def _oracle_best(problem: PlacementProblem):
    order = sorted(problem.candidates, key=lambda c: c.id)
    index = {c.id: i for i, c in enumerate(order)}
    lat = latency_matrix(problem)
    dist = [[haversine_km(a.geo, b.geo) for b in order] for a in order]
    bounds = dict(problem.latency_bounds or {})
    nearest = problem.objective == "min_weighted_nearest"
    maximize = problem.objective == "max_pairwise_distance_sum"
    pairwise = problem.objective in ("min_pairwise_distance_sum", "max_pairwise_distance_sum")
    n = problem.select_count.n
    sizes = [n] if problem.select_count.mode == "exactly" else range(n + 1)

    def feasible(picked):
        zones = {}
        for c in picked:
            z = _zone_key(c)
            zones[z] = zones.get(z, 0) + 1
            if zones[z] > problem.zone_cap:
                return False
        for rule in problem.location_rules:
            if sum(1 for c in picked if rule.matches(c)) < rule.min_count:
                return False
        if nearest:
            if problem.demands and not picked:
                return False
            for j, d in enumerate(problem.demands):
                if d.id in bounds and not any(
                    lat[j][index[c.id]] <= bounds[d.id] for c in picked
                ):
                    return False
        elif bounds:
            for j, d in enumerate(problem.demands):
                if d.id in bounds and any(lat[j][index[c.id]] > bounds[d.id] for c in picked):
                    return False
        return True

    def value(picked):
        if problem.objective == "min_cost":
            total = 0.0
            for c in picked:
                total += c.cost
            return total
        if pairwise:
            total = 0.0
            for a in range(len(picked)):
                for b in range(a + 1, len(picked)):
                    total += dist[index[picked[a].id]][index[picked[b].id]]
            return total
        if problem.objective == "min_weighted_sum_all":
            total = 0.0
            for c in picked:
                inner = 0.0
                for j, d in enumerate(problem.demands):
                    inner += d.weight * lat[j][index[c.id]]
                total += inner
            return total
        total = 0.0
        for j, d in enumerate(problem.demands):
            best = None
            for c in picked:
                l = lat[j][index[c.id]]
                if d.id in bounds and l > bounds[d.id]:
                    continue
                if best is None or l < best:
                    best = l
            if best is None:
                return None
            total += d.weight * best
        return total

    best_key = None
    best_ids = None
    for size in sizes:
        for picked in itertools.combinations(order, size):
            if not feasible(picked):
                continue
            v = value(picked)
            if v is None:
                continue
            key = -v if maximize else v
            ids = tuple(c.id for c in picked)
            if best_key is None or key < best_key or (key == best_key and ids < best_ids):
                best_key = key
                best_ids = ids
    if best_key is None:
        return None
    return (-best_key if maximize else best_key), best_ids


def _random_placement(rng: random.Random, objective: str) -> PlacementProblem:
    m = rng.randint(6, 20)
    zones = [f"Z{i}" for i in range(rng.randint(2, 5))]
    candidates = tuple(
        Candidate(
            id=f"c{i:02d}",
            geo=GeoPoint(rng.uniform(-60, 60), rng.uniform(-150, 150)),
            zone=rng.choice(zones + [None]),
            cost=round(rng.uniform(1, 40), 3),
            country=rng.choice(["US", "DE", None]),
        )
        for i in range(m)
    )
    demands = tuple(
        DemandPoint(
            id=f"d{j}",
            geo=GeoPoint(rng.uniform(-60, 60), rng.uniform(-150, 150)),
            weight=rng.randint(1, 9),
        )
        for j in range(rng.randint(1, 3))
    )
    n = rng.randint(2 if "pairwise" in objective else 1, 4)
    rules = ()
    if rng.random() < 0.35:
        rules = (
            LocationRule(
                kind="hemisphere", value=rng.choice(["northern", "southern"]), min_count=1
            ),
        )
    latency_bounds = None
    if rng.random() < 0.3 and "pairwise" not in objective:
        latency_bounds = {demands[0].id: rng.uniform(15.0, 80.0)}
    try:
        return PlacementProblem(
            candidates=candidates,
            demands=demands,
            objective=objective,
            select_count=SelectCount(mode=rng.choice(["exactly", "at_most"]), n=n),
            zone_cap=rng.choice([1, 1, 2]),
            location_rules=rules,
            latency_bounds=latency_bounds,
        )
    except ValueError:
        return _random_placement(rng, objective)


def test_criterion_04_placement_exactness():
    objectives = (
        "min_weighted_sum_all",
        "min_weighted_nearest",
        "min_cost",
        "min_pairwise_distance_sum",
        "max_pairwise_distance_sum",
    )

    def run():
        rng = random.Random(404)
        infeasible = 0
        for i in range(300):
            problem = _random_placement(rng, objectives[i % len(objectives)])
            oracle = _oracle_best(problem)
            try:
                solution = solve_problem(problem, time_limit=120.0)
            except UnsatisfiableStructure:
                assert oracle is None
                infeasible += 1
                continue
            if oracle is None:
                assert solution.proof == "infeasible"
                infeasible += 1
                continue
            assert solution.proof == "optimal"
            assert solution.objective_value == oracle[0]
            assert solution.chosen == oracle[1]
        # The generator must exercise both outcomes.
        assert 0 < infeasible < 150

    _criterion(4, "Placement optimum equals exhaustive enumeration", 120.0, run)


def test_criterion_05_three_candidate_fixture():
    def run():
        problem = PlacementProblem(
            candidates=(
                Candidate(id="c1", geo=GeoPoint(10.0, 10.0), zone="Z1"),
                Candidate(id="c2", geo=GeoPoint(20.0, 20.0), zone="Z1"),
                Candidate(id="c3", geo=GeoPoint(30.0, 30.0), zone="Z2"),
            ),
            demands=(DemandPoint(id="d1", geo=GeoPoint(0.0, 0.0), weight=1.0),),
            objective="min_weighted_sum_all",
            select_count=SelectCount(mode="exactly", n=2),
            zone_cap=1,
            latency_override={"d1": {"c1": 10.0, "c2": 20.0, "c3": 30.0}},
        )
        oracle = _oracle_best(problem)
        assert oracle == (40.0, ("c1", "c3"))
        solution = solve_problem(problem)
        assert solution.chosen == ("c1", "c3")
        assert solution.objective_value == 40.0
        assert solution.proof == "optimal"

    _criterion(5, "Two-zone three-candidate fixture picks {c1, c3} at 40", 1.0, run)


# ------------------------------------------------------------- geometry


def _pnpoly(x, y, ring):
    verts = ring[:-1]
    inside = False
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi < y <= yj or yj < y <= yi) and x < xi + (y - yi) / (yj - yi) * (xj - xi):
            inside = not inside
        j = i
    return inside


def test_criterion_06_geometry():
    def run():
        rng = random.Random(606)
        checked = 0
        for trial in range(100):
            cx, cy = rng.uniform(-140, 140), rng.uniform(-55, 55)
            angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(rng.randint(5, 11)))
            radius = rng.uniform(2.0, 9.0)
            ring = tuple(
                (cx + rng.uniform(0.3, 1.0) * radius * math.cos(t),
                 cy + rng.uniform(0.3, 1.0) * radius * math.sin(t))
                for t in angles
            )
            ring = ring + (ring[0],)
            region = WasgRegion(
                id=f"G{trial}", name="g", abbrev=f"G{trial}", members=frozenset(),
                boundary=((ring,),), population=0, internet_users=0, area_km2=1.0,
            )
            for _ in range(100):
                p = GeoPoint(
                    lat=max(-90.0, min(90.0, cy + rng.uniform(-11, 11))),
                    lon=max(-180.0, min(180.0, cx + rng.uniform(-11, 11))),
                )
                expected = False
                for poly in region.boundary:
                    hit = False
                    for r in poly:
                        if _pnpoly(p.lon, p.lat, r):
                            hit = not hit
                    expected = expected or hit
                assert point_in_region(p, region) == expected
                checked += 1
        assert checked == 10_000

        nyc, london = GeoPoint(40.7128, -74.0060), GeoPoint(51.5074, -0.1278)
        phi1, phi2 = math.radians(nyc.lat), math.radians(london.lat)
        dlam = math.radians(london.lon - nyc.lon)
        oracle = EARTH_RADIUS_KM * math.acos(
            max(-1.0, min(1.0, math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)))
        )
        assert abs(haversine_km(nyc, london) - oracle) <= 0.005 * oracle

        antipodal = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        assert abs(antipodal - math.pi * EARTH_RADIUS_KM) <= 1e-6 * math.pi * EARTH_RADIUS_KM

    _criterion(6, "Point-in-polygon, NYC-London, and antipodal distance", 60.0, run)


# ------------------------------------------------------------- counting


def _brute_zone(point: GeoPoint, registry):
    hits = [r for r in registry if r.boundary and point_in_region(point, r)]
    if not hits:
        return None
    return min(hits, key=lambda r: (r.area_km2, r.id)).id


def test_criterion_07_counting_invariants():
    def run():
        registry = build_registry()
        components = build_components()
        nodes, links = build_topology()
        stats = build_stats()
        assert len(registry) == 10
        assert len(components) == 500
        assert len(links) == 2000

        resolved = resolve_components(components, registry)
        topo = ParsedTopology(nodes=nodes, links=link_rows(nodes["id"], links), report=CleaningReport())
        tally = tally_topology(topo, registry)
        agg = aggregate_stats(registry, stats)
        report = distribution_report(resolved, registry, stats=agg, tally=tally)

        assert sum(report.link_categories.values()) == 2000

        expected_categories = {"both_mapped": 0, "one_mapped": 0, "none_mapped": 0}
        expected_pairs = {}
        expected_one_end = {}
        node_points = node_geo(nodes)
        node_zone = {n: (_brute_zone(p, registry) if p else None) for n, p in node_points.items()}
        for _, a, b in links.tolist():
            za, zb = node_zone[a], node_zone[b]
            mapped = (za is not None) + (zb is not None)
            if mapped == 2:
                expected_categories["both_mapped"] += 1
                key = tuple(sorted((za, zb)))
                expected_pairs[key] = expected_pairs.get(key, 0) + 1
            elif mapped == 1:
                expected_categories["one_mapped"] += 1
                z = za or zb
                expected_one_end[z] = expected_one_end.get(z, 0) + 1
            else:
                expected_categories["none_mapped"] += 1
        assert report.link_categories == expected_categories
        assert report.pair_counts == expected_pairs
        assert report.one_end_counts == expected_one_end

        # Geolocated topology nodes count as routers beside the router components.
        kinds = ("ixp", "dns_root", "router", "datacenter", "demand_point")
        located = [(c.kind, c.geo) for c in components] + [("router", p) for p in node_points.values() if p]
        for wasg_id in registry.ids:
            for kind in kinds:
                expected = sum(1 for k, p in located if k == kind and _brute_zone(p, registry) == wasg_id)
                assert report.per_wasg[wasg_id][kind] == expected
        for kind in kinds:
            expected = sum(1 for k, p in located if k == kind and _brute_zone(p, registry) is None)
            assert report.uncovered[kind] == expected
            zoned = sum(report.per_wasg[w][kind] for w in registry.ids)
            assert zoned + report.uncovered[kind] == sum(1 for k, _ in located if k == kind)

    _criterion(7, "Synthetic-fixture counts equal brute-force recounts", 10.0, run)


def test_criterion_08_failure_monotonicity():
    def run():
        registry = build_registry()
        components = resolve_components(build_components(), registry)
        agg = aggregate_stats(registry, build_stats())
        rng = random.Random(808)
        ids = list(registry.ids)
        for _ in range(50):
            small = set(rng.sample(ids, rng.randint(1, 5)))
            big = small | set(rng.sample(ids, rng.randint(1, 5)))
            r_small = unavailability(
                FailureScenario(name="s", mode="regional", failed=frozenset(small)),
                registry, components=components, stats=agg,
            )
            r_big = unavailability(
                FailureScenario(name="b", mode="regional", failed=frozenset(big)),
                registry, components=components, stats=agg,
            )
            for metric, fraction in r_small.fractions.items():
                assert r_big.fractions[metric] >= fraction - 1e-12
        for _ in range(50):
            t1 = rng.uniform(1.0, 89.0)
            t2 = rng.uniform(t1, 89.0)
            wide = resolve_scenario(
                FailureScenario(name="w", mode="latitude_band", threshold_deg=t1), registry
            )
            narrow = resolve_scenario(
                FailureScenario(name="n", mode="latitude_band", threshold_deg=t2), registry
            )
            assert narrow <= wide

    _criterion(8, "Failure superset and latitude-threshold monotonicity", 30.0, run)


def test_criterion_09_cli_determinism(tmp_path):
    def run():
        root = tmp_path / "ws"
        root.mkdir()
        build_cli_workspace(root)
        commands = {
            "validate": ["validate", "--wasg", str(root / "wasg.geojson"), "--stats", str(root / "stats.csv")],
            "overlap": [
                "overlap", "--wasg", str(root / "wasg.geojson"),
                "--components", f"ixp={root / 'ixps.csv'}",
                "--nodes", str(root / "topo.nodes"), "--geo", str(root / "topo.geo"),
                "--links", str(root / "topo.links"),
            ],
            "failure": [
                "failure", "--wasg", str(root / "wasg.geojson"),
                "--scenario", str(root / "scenario_band.json"),
                "--components", f"ixp={root / 'ixps.csv'}", "--stats", str(root / "stats.csv"),
            ],
            "connectivity": [
                "connectivity", "--wasg", str(root / "wasg.geojson"),
                "--nodes", str(root / "topo.nodes"), "--geo", str(root / "topo.geo"),
                "--links", str(root / "topo.links"),
                "--scenario", str(root / "scenario_regional.json"),
            ],
            "place": ["place", "--problem", str(root / "problem.json")],
        }
        for name, argv in commands.items():
            outputs = []
            for attempt in (1, 2):
                out = tmp_path / f"{name}_{attempt}.out"
                code = cli_main(argv + ["--out", str(out)])
                assert code in (0, 1), f"{name} exited {code}"
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{name} output differs across runs"

    _criterion(9, "Every CLI command is byte-deterministic", 60.0, run)


DATASET_ENV = "NETWATTZAP_DATASET_DIR"


@pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason="real datasets not supplied; see the README reproduction recipe",
)
def test_criterion_10_dataset_reproduction():
    """Reproduction recipe over the real (user-supplied) datasets.

    Expects in $NETWATTZAP_DATASET_DIR: wasg.geojson, itdk.nodes,
    itdk.geo, itdk.links, aws_regions.csv (kind=datacenter).
    """

    def run():
        from netwattzap.grid_model import load_registry
        from netwattzap.ingest import parse_components, parse_topology
        from netwattzap.overlap import az_collapse

        base = Path(os.environ[DATASET_ENV])
        registry = load_registry(base / "wasg.geojson")
        topo = parse_topology(base / "itdk.nodes", base / "itdk.geo", base / "itdk.links")
        categorized = tally_topology(topo, registry)

        # Table of link categories: 10.69 M / 19.71 M / 1.3 M.
        assert round(categorized.counts["both_mapped"] / 1e6, 2) == 10.69
        assert round(categorized.counts["one_mapped"] / 1e6, 2) == 19.71
        assert round(categorized.counts["none_mapped"] / 1e6, 1) == 1.3

        # Top both-mapped pair: (NA-E, EU) at 1661 K.
        na_e = registry.by_abbrev("NA-E").id
        eu = registry.by_abbrev("EU").id
        cross = {k: v for k, v in categorized.pairs.items() if k[0] != k[1]}
        top_pair, top_count = max(cross.items(), key=lambda item: item[1])
        assert set(top_pair) == {na_e, eu}
        assert round(top_count / 1e3) == 1661

        # AWS regions collapse to 19 grid-disjoint zones.
        aws = parse_components(base / "aws_regions.csv", kind="datacenter")
        dcs = resolve_components(aws.components, registry)
        assert az_collapse(dcs).zone_count == 19

        # Solar-storm thresholds: 20 grids at 40 degrees, 10 at 50.
        at_40 = resolve_scenario(
            FailureScenario(name="ss40", mode="latitude_band", threshold_deg=40.0), registry
        )
        at_50 = resolve_scenario(
            FailureScenario(name="ss50", mode="latitude_band", threshold_deg=50.0), registry
        )
        assert len(at_40) == 20
        assert len(at_50) == 10

    _criterion(10, "Real-dataset reproduction figures", 3600.0, run)
