"""Zone resolution, link categorization, and distribution reports.

The synthetic-fixture checks recount everything by brute force straight
from the raw inputs, bypassing the module's own counting.
"""

from __future__ import annotations

import itertools
import logging
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwattzap.errors import UnknownNode, UnknownWasg
from netwattzap.failure import FailureScenario, unavailability
from netwattzap.geo import GeoPoint, RegionEdges, band_overlap, point_in_region
from netwattzap.grid_model import (
    AggregateResult,
    StatTotals,
    WasgRegion,
    WasgRegistry,
    aggregate_stats,
    load_registry,
    registry_to_geojson,
)
from netwattzap import geo, overlap
from netwattzap.ingest import NODE_DTYPE, CleaningReport, InfraComponent, ParsedTopology, parse_topology
from netwattzap.overlap import (
    PolygonOverlapSample,
    RegionIndex,
    TopologyTally,
    az_collapse,
    distribution_report,
    resolve_components,
    sample_polygon_overlap,
    smallest_k,
    tally_topology,
)

from conftest import build_registry, link_rows, node_geo, square_region


def brute_force_zone(point: GeoPoint | None, registry) -> str | None:
    """Independent recount: scan every region, smallest area wins; None without a point."""
    hits = [r for r in registry if point is not None and r.boundary and point_in_region(point, r)]
    if not hits:
        return None
    return min(hits, key=lambda r: (r.area_km2, r.id)).id


def resolve_points(points, registry) -> list[str | None]:
    """``RegionIndex.resolve`` of GeoPoints, as zone ids."""
    index = RegionIndex(registry)
    codes = index.resolve(np.array([p.lon for p in points]), np.array([p.lat for p in points]))
    return [index.zone_ids[k] if k >= 0 else None for k in codes.tolist()]


def topology(nodes, links) -> ParsedTopology:
    """A topology of ``NODE_DTYPE`` nodes and ``(k, 3)`` links of link id, a and b."""
    return ParsedTopology(nodes=nodes, links=link_rows(nodes["id"], links), report=CleaningReport())


class TestResolveComponents:
    def test_inside_square(self, synthetic_registry):
        comps = [InfraComponent(id="a", kind="ixp", geo=GeoPoint(9.0, -146.0))]
        resolved = resolve_components(comps, synthetic_registry)
        assert resolved[0].zone == "W00"

    def test_open_ocean(self, synthetic_registry):
        comps = [InfraComponent(id="a", kind="ixp", geo=GeoPoint(-40.0, -100.0))]
        assert resolve_components(comps, synthetic_registry)[0].zone is None

    def test_ambiguity_resolves_to_smallest_area(self):
        big = square_region("BIG", "BG", 0.0, 0.0, 10.0)
        small = square_region("SML", "SM", 2.0, 2.0, 3.0)
        registry = WasgRegistry([big, small])
        comps = [InfraComponent(id="a", kind="ixp", geo=GeoPoint(3.0, 3.0))]
        assert resolve_components(comps, registry)[0].zone == "SML"

    def test_one_aggregated_ambiguity_warning(self, caplog):
        big = square_region("BIG", "BG", 0.0, 0.0, 10.0)
        small = square_region("SML", "SM", 2.0, 2.0, 3.0)
        registry = WasgRegistry([big, small])
        comps = [
            InfraComponent(id=f"c{i}", kind="ixp", geo=GeoPoint(3.0 + i * 0.1, 3.0)) for i in range(20)
        ] + [InfraComponent(id="far", kind="ixp", geo=GeoPoint(8.0, 8.0))]
        with caplog.at_level(logging.WARNING, logger="netwattzap.overlap"):
            resolved = resolve_components(comps, registry)
        assert [c.zone for c in resolved] == ["SML"] * 20 + ["BIG"]
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert message.startswith("20 point(s) inside several regions")
        assert "SML/BIG" in message

    def test_disjoint_registry_logs_nothing(self, synthetic_registry, synthetic_components, caplog):
        with caplog.at_level(logging.WARNING, logger="netwattzap.overlap"):
            resolve_components(synthetic_components, synthetic_registry)
        assert caplog.records == []

    def test_order_independence(self, synthetic_registry, synthetic_components):
        resolved = resolve_components(synthetic_components, synthetic_registry)
        shuffled = synthetic_components[:]
        random.Random(1).shuffle(shuffled)
        re_resolved = {c.id: c.zone for c in resolve_components(shuffled, synthetic_registry)}
        assert {c.id: c.zone for c in resolved} == re_resolved

    def test_matches_brute_force(self, synthetic_registry, synthetic_components):
        resolved = resolve_components(synthetic_components, synthetic_registry)
        for comp in resolved:
            assert comp.zone == brute_force_zone(comp.geo, synthetic_registry)


def recount_links(links, node_zones):
    """Per-link reference: each link's mapped endpoint zones, counted one link at a time."""
    counts = {"both_mapped": 0, "one_mapped": 0, "none_mapped": 0}
    pairs: dict[tuple[str, str], int] = {}
    one_end: dict[str, int] = {}
    for _, a, b in links.tolist():
        mapped = [z for z in (node_zones[a], node_zones[b]) if z is not None]
        counts[("none_mapped", "one_mapped", "both_mapped")[len(mapped)]] += 1
        if len(mapped) == 2:
            key = tuple(sorted(mapped))
            pairs[key] = pairs.get(key, 0) + 1
        elif len(mapped) == 1:
            one_end[mapped[0]] = one_end.get(mapped[0], 0) + 1
    return counts, pairs, one_end


def recount_unavailable_links(links, node_zones, failed):
    """Per-link reference for the links metric: (unavailable, total, zoned_total)."""
    unavailable = zoned = 0
    for _, a, b in links.tolist():
        mapped = [z for z in (node_zones[a], node_zones[b]) if z is not None]
        zoned += bool(mapped)
        unavailable += any(z in failed for z in mapped)
    return unavailable, len(links), zoned


def categorize(links, node_zones, zone_ids=None):
    """The link tally of ``(k, 3)`` links with each node's zone given by a dict of node id to zone id or None.

    ``zone_ids`` is the sorted registry the codes point into; by default, the zones the nodes name.
    """
    if zone_ids is None:
        zone_ids = sorted({zone for zone in node_zones.values() if zone is not None})
    node_ids = np.array(sorted(node_zones), dtype=np.int64)
    codes = [-1 if node_zones[n] is None else zone_ids.index(node_zones[n]) for n in node_ids.tolist()]
    return overlap._tally_links(link_rows(node_ids, links), np.array(codes, dtype=np.int64), zone_ids)


def tally_of(zone_pairs):
    """Tally of one link per (zone_a, zone_b), each between two fresh nodes."""
    node_zones = {}
    links = []
    for i, (za, zb) in enumerate(zone_pairs, start=1):
        node_zones[2 * i], node_zones[2 * i + 1] = za, zb
        links.append((i, 2 * i, 2 * i + 1))
    return categorize(np.array(links, dtype=np.int64), node_zones)


TALLY_ZONES = ("G0", "G1", "G2", "G3")


class TestCategorizeLinks:
    def test_categories(self, synthetic_registry, synthetic_topology):
        nodes, links = synthetic_topology
        zones = {n: brute_force_zone(p, synthetic_registry) for n, p in node_geo(nodes).items()}
        result = tally_topology(topology(nodes, links), synthetic_registry)
        assert sum(result.counts.values()) == len(links)
        assert (result.counts, result.pairs, result.one_end) == recount_links(links, zones)
        # Plain ints: json cannot write numpy integers.
        values = [*result.counts.values(), *result.pairs.values(), *result.one_end.values(), *result.routers.values()]
        assert all(type(v) is int for v in [*values, result.routers_unzoned])

    def test_unknown_node(self, synthetic_registry, synthetic_topology):
        # A hand-built topology whose links name rows past its ten nodes.
        nodes, links = synthetic_topology
        rows = link_rows(nodes["id"], links)
        # The first such row in link order, a before b.
        link, row = next((i, r) for i, ends in enumerate(rows.tolist()) for r in ends if r >= 10)
        with pytest.raises(UnknownNode, match=rf"^link {link} names node row {row}, outside the 10 nodes$"):
            tally_topology(ParsedTopology(nodes=nodes[:10], links=rows, report=CleaningReport()), synthetic_registry)

    def test_empty_node_zones(self, synthetic_registry):
        # Row len(nodes), here 0.
        topo = ParsedTopology(nodes=np.empty(0, dtype=NODE_DTYPE), links=np.array([[0, 0]]), report=CleaningReport())
        with pytest.raises(UnknownNode, match=r"^link 0 names node row 0, outside the 0 nodes$"):
            tally_topology(topo, synthetic_registry)

    def test_negative_row(self, synthetic_registry):
        # Row -1 would index the last node if it were not refused.
        nodes = np.array([(1, 9.0, -146.0), (2, 9.0, -106.0)], dtype=NODE_DTYPE)
        topo = ParsedTopology(nodes=nodes, links=np.array([[0, 1], [1, -1]]), report=CleaningReport())
        with pytest.raises(UnknownNode, match=r"^link 1 names node row -1, outside the 2 nodes$"):
            tally_topology(topo, synthetic_registry)

    def test_zero_links(self, synthetic_registry):
        topo = parse_topology(["node N1: 1.2.3.4", "node N2: 2.3.4.5"], None, ["link L1: N1 N1"])
        assert topo.links.shape == (0, 2)
        tally = tally_topology(topo, synthetic_registry)
        assert tally.counts == {"both_mapped": 0, "one_mapped": 0, "none_mapped": 0}
        assert (tally.pairs, tally.one_end) == ({}, {})
        scenario = FailureScenario(name="t", mode="regional", failed=frozenset({"W00"}))
        assert "links" not in unavailability(scenario, synthetic_registry, tally=tally).details

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_tally_matches_per_link_recount(self, data):
        # Registries of no zone, one zone and four: the count matrix is 1x1, 2x2 or 5x5.
        zones = TALLY_ZONES[: data.draw(st.sampled_from((0, 1, 4)))]
        # Sparse ids up to the int64 limit, in no particular order.
        nodes = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=10, unique=True))
        node_zones = {n: data.draw(st.sampled_from((None,) + zones)) for n in nodes}
        ends = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)).filter(lambda e: e[0] != e[1])
        drawn = data.draw(st.lists(ends, max_size=30))
        links = np.array([(i, a, b) for i, (a, b) in enumerate(drawn)], dtype=np.int64).reshape(-1, 3)
        tally = categorize(links, node_zones, list(zones))
        counts, pairs, one_end = recount_links(links, node_zones)
        assert (tally.counts, tally.one_end) == (counts, one_end)
        # Pairs in sorted order, as the reports list them.
        assert list(tally.pairs.items()) == sorted(pairs.items())

        registry = WasgRegistry(
            [square_region(z, f"A{i}", -150.0 + 20.0 * i, 5.0) for i, z in enumerate(TALLY_ZONES)]
        )
        failed = data.draw(st.frozensets(st.sampled_from(TALLY_ZONES), min_size=1))
        scenario = FailureScenario(name="t", mode="regional", failed=failed)
        details = unavailability(scenario, registry, tally=tally).details
        if not len(links):
            assert "links" not in details
        else:
            d = details["links"]
            expected = recount_unavailable_links(links, node_zones, failed)
            assert (d.unavailable, d.total, d.zoned_total) == expected


    def test_tally_peak_memory_within_twice_the_links(self):
        # About 2x10^5 random links among 10^3 nodes in 43 zones; the tally's
        # temporaries may not outgrow the links array itself.
        rng = np.random.default_rng(0)
        zone_ids = [f"Z{i:02d}" for i in range(43)]
        codes = rng.integers(-1, len(zone_ids), 1000)
        links = rng.integers(0, len(codes), (200_000, 2))
        tracemalloc.start()
        try:
            tally = overlap._tally_links(links, codes, zone_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tally.counts.values()) == len(links)
        assert peak <= 2 * links.nbytes, f"peak {peak} B for a {links.nbytes} B links array"


class TestPairCounts:
    def test_unordered_and_same_zone(self):
        result = tally_of([("A", "B"), ("B", "A"), ("A", "B"), ("A", "A"), ("A", None), (None, "B")])
        assert result.pairs == {("A", "B"): 3, ("A", "A"): 1}
        assert result.one_end == {"A": 1, "B": 1}
        assert result.counts == {"both_mapped": 4, "one_mapped": 2, "none_mapped": 0}

    def test_permutation_invariant(self):
        zone_pairs = [("A", "B"), ("C", "A"), ("B", None), ("C", "C"), (None, None)] * 10
        shuffled = zone_pairs[:]
        random.Random(4).shuffle(shuffled)
        assert tally_of(zone_pairs) == tally_of(shuffled)


class TestAzCollapse:
    def _dc(self, cid, zone):
        return InfraComponent(id=cid, kind="datacenter", geo=GeoPoint(0, 0), zone=zone)

    def test_all_same_grid(self):
        result = az_collapse([self._dc("d1", "A"), self._dc("d2", "A"), self._dc("d3", "A")])
        assert result.zone_count == 1
        assert result.groups == {"A": ["d1", "d2", "d3"]}

    def test_two_grids(self):
        result = az_collapse([self._dc("d1", "A"), self._dc("d2", "A"), self._dc("d3", "B")])
        assert result.zone_count == 2

    def test_unzoned_are_singletons(self):
        result = az_collapse([self._dc("d1", "A"), self._dc("d2", None), self._dc("d3", None)])
        assert result.zone_count == 3
        assert result.unzoned == ["d2", "d3"]


class TestDistributionReport:
    def test_component_zone_missing_from_registry(self):
        registry = WasgRegistry([square_region("ONLY", "O", 0.0, 0.0, 10.0)])
        components = [InfraComponent(id="c1", kind="ixp", geo=GeoPoint(5.0, 5.0), zone="NOPE")]
        with pytest.raises(UnknownWasg, match="'NOPE'"):
            distribution_report(components, registry)

    @pytest.mark.parametrize("field", ["routers", "pairs", "one_end"])
    def test_tally_zone_missing_from_registry(self, field):
        registry = WasgRegistry([square_region("ONLY", "O", 0.0, 0.0, 10.0)])
        named = {"routers": {"NOPE": 2}, "pairs": {("NOPE", "ONLY"): 1}, "one_end": {"NOPE": 1}}
        tally = TopologyTally(counts={"both_mapped": 1, "one_mapped": 1, "none_mapped": 0}, pairs={}, one_end={})
        setattr(tally, field, named[field])
        with pytest.raises(UnknownWasg, match=r"^no region with id 'NOPE'$"):
            distribution_report([], registry, tally=tally)

    def test_cumulative_fractions(self):
        registry = WasgRegistry(
            [square_region(f"R{i}", f"R{i}", lon0=20.0 * i, lat0=0.0, size=5.0) for i in range(4)]
        )
        comps = []
        serial = 0
        for i, count in enumerate([4, 3, 2, 1]):
            for _ in range(count):
                serial += 1
                comps.append(
                    InfraComponent(id=f"c{serial}", kind="ixp", geo=GeoPoint(2.0, 20.0 * i + 2.0))
                )
        report = distribution_report(resolve_components(comps, registry), registry)
        fractions = [e.cumulative_fraction for e in report.rankings["ixp"]]
        assert fractions == pytest.approx([0.4, 0.7, 0.9, 1.0])
        assert smallest_k(report, "ixp", 0.65) == 2
        assert smallest_k(report, "ixp", 1.0) == 4

    def test_cumulative_fractions_sum_left_to_right(self):
        # Ten grids of 0.1 km2: left to right the total is 0.9999999999999999,
        # while a compensated sum (Python 3.12's sum(), math.fsum) gives 1.0.
        registry = WasgRegistry(
            [square_region(f"R{i}", f"R{i}", lon0=20.0 * (i % 5), lat0=20.0 * (i // 5), size=5.0) for i in range(10)]
        )
        stats = AggregateResult(
            per_wasg={f"R{i}": StatTotals(area_km2=0.1) for i in range(10)},
            uncovered=StatTotals(),
            uncovered_codes=(),
            missing_codes=(),
        )
        report = distribution_report([], registry, stats=stats)
        running = list(itertools.accumulate([0.1] * 10))
        assert running[-1] == 0.9999999999999999
        fractions = [e.cumulative_fraction for e in report.rankings["area_km2"]]
        assert fractions == [r / running[-1] for r in running]
        assert fractions[-1] == 1.0

    def test_unreachable_fraction_is_none(self, synthetic_registry):
        comps = [
            InfraComponent(id="in", kind="ixp", geo=GeoPoint(9.0, -146.0)),
            InfraComponent(id="out", kind="ixp", geo=GeoPoint(-40.0, -100.0)),
        ]
        report = distribution_report(resolve_components(comps, synthetic_registry), synthetic_registry)
        assert smallest_k(report, "ixp", 0.5) == 1
        assert smallest_k(report, "ixp", 0.9) is None

    def test_synthetic_fixture_brute_force_recount(
        self, synthetic_registry, synthetic_components, synthetic_topology, synthetic_stats
    ):
        nodes, links = synthetic_topology
        categorized = tally_topology(topology(nodes, links), synthetic_registry)
        agg = aggregate_stats(synthetic_registry, synthetic_stats)
        resolved = resolve_components(synthetic_components, synthetic_registry)
        report = distribution_report(resolved, synthetic_registry, stats=agg, tally=categorized)

        # Brute-force recount of every per-grid/kind cell from raw inputs;
        # geolocated topology nodes count as routers.
        node_points = node_geo(nodes)
        points = [(c.kind, c.geo) for c in synthetic_components]
        points += [("router", p) for p in node_points.values() if p is not None]
        for wasg_id in synthetic_registry.ids:
            for kind in ("ixp", "dns_root", "router", "datacenter", "demand_point"):
                expected = sum(1 for k, p in points if k == kind and brute_force_zone(p, synthetic_registry) == wasg_id)
                assert report.per_wasg[wasg_id][kind] == expected
        for kind in ("ixp", "dns_root", "router", "datacenter", "demand_point"):
            expected = sum(1 for k, p in points if k == kind and brute_force_zone(p, synthetic_registry) is None)
            assert report.uncovered[kind] == expected

        # Link categories from scratch.
        node_zone = {n: brute_force_zone(p, synthetic_registry) for n, p in node_points.items()}
        expected_counts = {"both_mapped": 0, "one_mapped": 0, "none_mapped": 0}
        expected_pairs: dict[tuple[str, str], int] = {}
        expected_one_end: dict[str, int] = {}
        for _, a, b in links.tolist():
            za, zb = node_zone[a], node_zone[b]
            mapped = (za is not None) + (zb is not None)
            if mapped == 2:
                expected_counts["both_mapped"] += 1
                key = tuple(sorted((za, zb)))
                expected_pairs[key] = expected_pairs.get(key, 0) + 1
            elif mapped == 1:
                expected_counts["one_mapped"] += 1
                z = za or zb
                expected_one_end[z] = expected_one_end.get(z, 0) + 1
            else:
                expected_counts["none_mapped"] += 1
        assert report.link_categories == expected_counts
        assert sum(report.link_categories.values()) == len(links)
        assert report.pair_counts == expected_pairs
        assert report.one_end_counts == expected_one_end

    def test_router_counts_from_topology(self, synthetic_registry, synthetic_topology):
        nodes, links = synthetic_topology
        tally = tally_topology(topology(nodes, links), synthetic_registry)
        located = sum(1 for p in node_geo(nodes).values() if p is not None)
        assert 0 < located < len(nodes)
        assert sum(tally.routers.values()) + tally.routers_unzoned == located
        report = distribution_report([], synthetic_registry, tally=tally)
        assert sum(m["router"] for m in report.per_wasg.values()) + report.uncovered["router"] == located


class TestPolygonOverlapSampler:
    def test_disjoint_registry_has_no_warnings(self, synthetic_registry):
        result = sample_polygon_overlap(synthetic_registry, samples=2000, seed=0)
        assert result.warnings == []

    def test_overlapping_registry_warns(self):
        registry = WasgRegistry(
            [
                square_region("BIG", "BG", 0.0, 0.0, 10.0),
                square_region("SML", "SM", 2.0, 2.0, 5.0),
            ]
        )
        result = sample_polygon_overlap(registry, samples=2000, seed=0)
        assert result.warnings
        assert ("BIG", "SML") in result.pair_hits

    def test_deterministic_under_seed(self, synthetic_registry):
        a = sample_polygon_overlap(synthetic_registry, samples=500, seed=42)
        b = sample_polygon_overlap(synthetic_registry, samples=500, seed=42)
        assert a.pair_hits == b.pair_hits

    @pytest.mark.parametrize(
        "regions",
        [
            [],
            [WasgRegion(id="X", name="x", abbrev="X", members=frozenset(), boundary=(), population=0,
                        internet_users=0, area_km2=0.0)],
        ],
        ids=["empty", "no_boundary"],
    )
    def test_registry_without_polygons_draws_no_sample(self, regions):
        assert sample_polygon_overlap(WasgRegistry(regions), samples=500) == PolygonOverlapSample(
            samples=0, pair_hits={}, warnings=[]
        )


# Lattice coordinates make vertices, edges, horizontal and vertical edges,
# repeated vertices (zero-length edges) and shared edges between regions common.
_coord = st.integers(-6, 6).map(lambda v: v * 0.5)
_ring = st.lists(st.tuples(_coord, _coord), min_size=3, max_size=7).map(lambda vs: tuple(vs) + (vs[0],))
_polygon = st.lists(_ring, min_size=1, max_size=3).map(tuple)  # later rings act as holes
_boundary = st.lists(_polygon, min_size=1, max_size=3).map(tuple)  # MultiPolygons


@st.composite
def _registries(draw):
    boundaries = draw(st.lists(_boundary, min_size=1, max_size=4))
    return WasgRegistry(
        WasgRegion(
            id=f"R{i}",
            name=f"R{i}",
            abbrev=f"R{i}",
            members=frozenset(),
            boundary=boundary,
            population=0,
            internet_users=0,
            # Few distinct areas, so equal-area overlaps fall back to the id.
            area_km2=draw(st.sampled_from([1.0, 2.0, 3.0])),
        )
        for i, boundary in enumerate(boundaries)
    )


def _points(registry):
    """Points on vertices, edge midpoints and other edge fractions, on a vertex's x or y, or free."""
    edges = [
        (ring[k], ring[k + 1])
        for region in registry
        for polygon in region.boundary
        for ring in polygon
        for k in range(len(ring) - 1)
    ]
    vertices = [a for a, _ in edges]
    free = st.floats(-4.0, 4.0)
    # Fractions such as 1/3 and 0.7 put points a rounding error off their edge.
    fractions = st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.7, 1.0])
    on_edge = st.tuples(st.sampled_from(edges), fractions).map(
        lambda et: (et[0][0][0] + et[1] * (et[0][1][0] - et[0][0][0]),
                    et[0][0][1] + et[1] * (et[0][1][1] - et[0][0][1]))
    )
    return st.one_of(
        st.sampled_from(vertices),
        st.sampled_from(edges).map(lambda e: ((e[0][0] + e[1][0]) / 2, (e[0][1] + e[1][1]) / 2)),
        on_edge,
        st.tuples(st.sampled_from(vertices), free).map(lambda vf: (vf[0][0], vf[1])),
        st.tuples(st.sampled_from(vertices), free).map(lambda vf: (vf[1], vf[0][1])),
        st.tuples(free, free),
    ).map(lambda lon_lat: GeoPoint(lat=lon_lat[1], lon=lon_lat[0]))


def _latitude_points(registry):
    """Points at each ring's lowest and highest latitude and at each horizontal edge's, on a vertex's x or free.

    These latitudes are where an edge's closed latitude span starts or ends.
    """
    rings = [ring.tolist() for region in registry for polygon in region.boundary for ring in polygon]
    lats = {lat for ring in rings for lat in (min(y for _, y in ring), max(y for _, y in ring))}
    lats |= {a[1] for ring in rings for a, b in zip(ring, ring[1:]) if a[1] == b[1]}
    lons = st.one_of(st.sampled_from(sorted({x for ring in rings for x, _ in ring})), st.floats(-4.0, 4.0))
    return st.tuples(lons, st.sampled_from(sorted(lats))).map(lambda lon_lat: GeoPoint(lat=lon_lat[1], lon=lon_lat[0]))


def _assert_batch_matches_scalar(registry, points):
    lons = np.array([p.lon for p in points])
    lats = np.array([p.lat for p in points])
    for region in registry:
        expected = [point_in_region(p, region) for p in points]
        assert RegionEdges(region).contains(lons, lats).tolist() == expected
    assert resolve_points(points, registry) == [brute_force_zone(p, registry) for p in points]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBatchResolutionDifferential:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_matches_scalar(self, data):
        registry = data.draw(_registries())
        _assert_batch_matches_scalar(registry, data.draw(st.lists(_points(registry), min_size=1, max_size=25)))

    # One point per block and blocks of 20 elements split polygons and rings across blocks.
    @pytest.mark.parametrize("block", [1, 20, geo.BLOCK_ELEMENTS])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_points_at_span_ends_in_any_block_size(self, block, data):
        registry = data.draw(_registries())
        strategy = st.one_of(_latitude_points(registry), _points(registry))
        points = data.draw(st.lists(strategy, min_size=1, max_size=25))
        with mock.patch.object(geo, "BLOCK_ELEMENTS", block):
            _assert_batch_matches_scalar(registry, points)

    @pytest.mark.parametrize("source", ["tuples", "json"])
    def test_edges_are_views_of_the_region_rings(self, source):
        registry = build_registry()
        if source == "json":
            registry = load_registry(registry_to_geojson(registry))
        index = RegionIndex(registry)
        assert len(index.edges) == len(registry)
        for region, edges in zip(index.regions, index.edges):
            ring = region.boundary[0][0]
            assert np.shares_memory(edges.rings[0], ring)
            assert edges.rings[0].tolist() == ring.T.tolist()

    def test_block_boundaries(self, monkeypatch):
        # Blocks of 5 points x 4 edges; 289 points leave a partial last block.
        from netwattzap import geo

        monkeypatch.setattr(geo, "BLOCK_ELEMENTS", 20)
        registry = WasgRegistry([square_region("A", "A", 0.0, 0.0, 2.0), square_region("B", "B", 1.0, 1.0, 2.0)])
        points = [GeoPoint(lat=i * 0.25 - 0.5, lon=j * 0.25 - 0.5) for i in range(17) for j in range(17)]
        assert resolve_points(points, registry) == [brute_force_zone(p, registry) for p in points]

    def test_sample_points_are_the_uniform_draws(self):
        registry = WasgRegistry([square_region("A", "A", -3.0, 1.0, 2.0), square_region("B", "B", 4.0, -2.5, 1.5)])
        seen = []
        hits = RegionIndex.hits

        def spy(index, lons, lats):
            seen.append((lons.tolist(), lats.tolist()))
            return hits(index, lons, lats)

        with mock.patch.object(RegionIndex, "hits", spy):
            sample_polygon_overlap(registry, samples=500, seed=3)
        rng = random.Random(3)
        draws = [(rng.uniform(-2.5, 3.0), rng.uniform(-3.0, 5.5)) for _ in range(500)]
        assert seen == [([lon for _, lon in draws], [lat for lat, _ in draws])]

    def test_sampler_matches_scalar_recount(self):
        ring = ((0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (0.0, 6.0), (0.0, 0.0))
        hole = ((2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0), (2.0, 2.0))
        islands = (
            (((3.0, 3.0), (8.0, 3.0), (8.0, 8.0), (3.0, 8.0), (3.0, 3.0)),),
            (((-2.0, -2.0), (1.0, -2.0), (1.0, 1.0), (-2.0, 1.0), (-2.0, -2.0)),),
        )
        regions = [
            WasgRegion(id="HOLE", name="h", abbrev="H", members=frozenset(), boundary=((ring, hole),),
                       population=0, internet_users=0, area_km2=32.0),
            WasgRegion(id="MULTI", name="m", abbrev="M", members=frozenset(), boundary=islands,
                       population=0, internet_users=0, area_km2=34.0),
            square_region("SQ", "S", 1.0, 1.0, 4.0),
        ]
        registry = WasgRegistry(regions)
        result = sample_polygon_overlap(registry, samples=3000, seed=5)

        rng = random.Random(5)
        expected: dict[tuple[str, str], int] = {}
        for _ in range(3000):
            point = GeoPoint(lat=rng.uniform(-2.0, 8.0), lon=rng.uniform(-2.0, 8.0))
            inside = sorted(r.id for r in registry if point_in_region(point, r))
            for i in range(len(inside)):
                for j in range(i + 1, len(inside)):
                    expected[(inside[i], inside[j])] = expected.get((inside[i], inside[j]), 0) + 1
        assert len(expected) == 3
        assert list(result.pair_hits.items()) == list(expected.items())


class TestBandOverlapRecount:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_per_vertex_recount(self, data):
        registry = data.draw(_registries())
        ring_lats = [
            [lat for _, lat in ring.tolist()] for region in registry for polygon in region.boundary for ring in polygon
        ]
        # A ring's largest |lat| as the threshold puts its poleward vertex exactly at +-threshold.
        tangent = sorted({max(map(abs, lats)) for lats in ring_lats} - {0.0})
        free = st.floats(0.01, 4.0)
        threshold = data.draw(st.one_of(st.sampled_from(tangent), free) if tangent else free, label="threshold")
        for region in registry:
            expected = any(
                lat >= threshold or lat <= -threshold
                for polygon in region.boundary
                for ring in polygon
                for _, lat in ring.tolist()
            )
            assert band_overlap(region, threshold) is expected


def expected_warning(points, registry) -> str | None:
    """The ambiguity warning recounted point by point, as if each point were resolved on its own.

    Regions go smallest (area, id) first; a point already inside an
    earlier region is ambiguous, and each region lists the pairs of its
    first three ambiguous points in input order, three pairs in all.
    """
    regions = sorted((r for r in registry if r.boundary), key=lambda r: (r.area_km2, r.id))
    zone: list[str | None] = [None] * len(points)
    ambiguous: set[int] = set()
    pairs: list[str] = []
    for region in regions:
        taken = []
        for i, point in enumerate(points):
            if point_in_region(point, region):
                if zone[i] is None:
                    zone[i] = region.id
                else:
                    taken.append(i)
        ambiguous.update(taken)
        for i in taken[:3]:
            pair = f"{zone[i]}/{region.id}"
            if len(pairs) < 3 and pair not in pairs:
                pairs.append(pair)
    if not ambiguous:
        return None
    return (
        f"{len(ambiguous)} point(s) inside several regions, each resolved to its smallest-area region "
        f"(e.g. {', '.join(pairs)})"
    )


def recount_topology(nodes, links, registry):
    """Per router and per link: the tally's five fields, from point_in_region alone."""
    points = node_geo(nodes)
    zone = {n: brute_force_zone(p, registry) for n, p in points.items()}
    located = [n for n, p in points.items() if p is not None]
    routers: dict[str, int] = {}
    for n in located:
        if zone[n] is not None:
            routers[zone[n]] = routers.get(zone[n], 0) + 1
    unzoned = sum(1 for n in located if zone[n] is None)
    return (*recount_links(links, zone), routers, unzoned)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTallyTopologyRecount:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_router_recount(self, data):
        registry = data.draw(_registries(), label="registry")
        # A few points, on vertices and edges among others, shared by many routers.
        pool = data.draw(st.lists(_points(registry), min_size=1, max_size=6), label="pool")
        ids = sorted(data.draw(st.sets(st.integers(0, 2**63 - 1), min_size=2, max_size=25), label="ids"))
        rows = []
        for node_id in ids:
            point = data.draw(st.one_of(st.none(), st.sampled_from(pool)))
            rows.append((node_id, np.nan, np.nan) if point is None else (node_id, point.lat, point.lon))
        nodes = np.array(rows, dtype=NODE_DTYPE)
        ends = st.tuples(st.sampled_from(ids), st.sampled_from(ids)).filter(lambda e: e[0] != e[1])
        drawn = data.draw(st.lists(ends, max_size=30), label="links")
        links = np.array([(i, a, b) for i, (a, b) in enumerate(drawn)], dtype=np.int64).reshape(-1, 3)

        with mock.patch.object(overlap.logger, "warning") as warning:
            tally = tally_topology(topology(nodes, links), registry)
        got = (tally.counts, tally.pairs, tally.one_end, tally.routers, tally.routers_unzoned)
        assert got == recount_topology(nodes, links, registry)

        message = expected_warning([p for p in node_geo(nodes).values() if p is not None], registry)
        if message is None:
            warning.assert_not_called()
        else:
            warning.assert_called_once()
            assert warning.call_args.args[0] % warning.call_args.args[1:] == message

    def test_ambiguity_warning_is_unchanged(self, caplog):
        # Nested overlaps: p inside A, B and C, q inside B and C, r inside A and C.
        registry = WasgRegistry([
            square_region("C", "C", -1.0, -1.0, 6.0),
            square_region("A", "A", 0.0, 0.0, 2.0),
            square_region("B", "B", 1.0, 1.0, 2.5),
        ])
        p, q, r, alone = (1.5, 1.5), (3.0, 3.0), (0.5, 0.5), (4.5, 4.5)
        cases = [
            # Pairs in first-occurrence order: B/C (from q) comes before A/C.
            ([q, p, p, p, r, q, alone, None],
             "6 point(s) inside several regions, each resolved to its smallest-area region (e.g. A/B, B/C, A/C)"),
            # C's first three ambiguous points are all p: B/C is not listed.
            ([p, p, p, q, q, r],
             "6 point(s) inside several regions, each resolved to its smallest-area region (e.g. A/B, A/C)"),
        ]
        for points, message in cases:
            rows = [(i, *(point or (np.nan, np.nan))) for i, point in enumerate(points, start=1)]
            nodes = np.array(rows, dtype=NODE_DTYPE)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="netwattzap.overlap"):
                tally = tally_topology(topology(nodes, np.empty((0, 3), dtype=np.int64)), registry)
            assert [rec.getMessage() for rec in caplog.records if rec.name == "netwattzap.overlap"] == [message]
            assert sum(tally.routers.values()) == sum(1 for point in points if point)
