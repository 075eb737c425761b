"""Zone resolution, link categorization, and distribution reports.

The synthetic-fixture checks recount everything by brute force straight
from the raw inputs, bypassing the module's own counting.
"""

from __future__ import annotations

import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwattzap.errors import UnknownNode
from netwattzap.geo import GeoPoint, RegionEdges, point_in_region
from netwattzap.grid_model import WasgRegion, WasgRegistry, aggregate_stats
from netwattzap.ingest import InfraComponent
from netwattzap.overlap import (
    RegionIndex,
    az_collapse,
    categorize_links,
    components_from_router_nodes,
    distribution_report,
    pair_counts,
    resolve_components,
    resolve_router_zones,
    sample_polygon_overlap,
    smallest_k,
)

from conftest import square_region


def brute_force_zone(point: GeoPoint, registry) -> str | None:
    """Independent recount: scan every region, smallest area wins."""
    hits = [r for r in registry if r.boundary and point_in_region(point, r)]
    if not hits:
        return None
    return min(hits, key=lambda r: (r.area_km2, r.id)).id


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


class TestCategorizeLinks:
    def test_categories(self, synthetic_registry, synthetic_topology):
        nodes, links = synthetic_topology
        zones = resolve_router_zones(nodes, synthetic_registry)
        result = categorize_links(links, zones)
        assert sum(result.counts.values()) == len(links)
        # Independent recount per link.
        for link in result.links:
            mapped = (zones[link.a] is not None) + (zones[link.b] is not None)
            expected = {2: "both_mapped", 1: "one_mapped", 0: "none_mapped"}[mapped]
            assert link.category == expected

    def test_unknown_node(self, synthetic_registry, synthetic_topology):
        nodes, links = synthetic_topology
        zones = resolve_router_zones(nodes[:10], synthetic_registry)
        with pytest.raises(UnknownNode):
            categorize_links(links, zones)


class TestPairCounts:
    def _annotate(self, zone_pairs):
        from netwattzap.ingest import IpLink

        links = []
        for i, (za, zb) in enumerate(zone_pairs, start=1):
            category = (
                "both_mapped"
                if za and zb
                else ("one_mapped" if za or zb else "none_mapped")
            )
            links.append(IpLink(link_id=i, a=2 * i, b=2 * i + 1, zone_a=za, zone_b=zb, category=category))
        return links

    def test_unordered_and_same_zone(self):
        links = self._annotate([("A", "B"), ("B", "A"), ("A", "B"), ("A", "A"), ("A", None), (None, "B")])
        result = pair_counts(links)
        assert result.pairs == {("A", "B"): 3, ("A", "A"): 1}
        assert result.one_end == {"A": 1, "B": 1}

    def test_permutation_invariant(self):
        zone_pairs = [("A", "B"), ("C", "A"), ("B", None), ("C", "C"), (None, None)] * 10
        links = self._annotate(zone_pairs)
        shuffled = links[:]
        random.Random(4).shuffle(shuffled)
        assert pair_counts(links).pairs == pair_counts(shuffled).pairs
        assert pair_counts(links).one_end == pair_counts(shuffled).one_end

    def test_uncategorized_rejected(self):
        from netwattzap.ingest import IpLink

        with pytest.raises(ValueError):
            pair_counts([IpLink(link_id=1, a=1, b=2)])


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
        zones = resolve_router_zones(nodes, synthetic_registry)
        categorized = categorize_links(links, zones)
        agg = aggregate_stats(synthetic_registry, synthetic_stats)
        resolved = resolve_components(synthetic_components, synthetic_registry)
        report = distribution_report(resolved, synthetic_registry, stats=agg, links=categorized.links)

        # Brute-force recount of every per-grid/kind cell from raw inputs.
        for wasg_id in synthetic_registry.ids:
            for kind in ("ixp", "dns_root", "router", "datacenter", "demand_point"):
                expected = sum(
                    1
                    for c in synthetic_components
                    if c.kind == kind and brute_force_zone(c.geo, synthetic_registry) == wasg_id
                )
                assert report.per_wasg[wasg_id][kind] == expected
        for kind in ("ixp", "dns_root", "router", "datacenter", "demand_point"):
            expected = sum(
                1
                for c in synthetic_components
                if c.kind == kind and brute_force_zone(c.geo, synthetic_registry) is None
            )
            assert report.uncovered[kind] == expected

        # Link categories from scratch.
        node_zone = {
            n.node_id: (brute_force_zone(n.geo, synthetic_registry) if n.geo else None) for n in nodes
        }
        expected_counts = {"both_mapped": 0, "one_mapped": 0, "none_mapped": 0}
        expected_pairs: dict[tuple[str, str], int] = {}
        expected_one_end: dict[str, int] = {}
        for link in links:
            za, zb = node_zone[link.a], node_zone[link.b]
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

    def test_router_components_from_nodes(self, synthetic_topology):
        nodes, _ = synthetic_topology
        comps = components_from_router_nodes(nodes)
        assert all(c.kind == "router" for c in comps)
        assert len(comps) == sum(1 for n in nodes if n.geo is not None)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBatchResolutionDifferential:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_batch_matches_scalar(self, data):
        registry = data.draw(_registries())
        points = data.draw(st.lists(_points(registry), min_size=1, max_size=25))
        lons = np.array([p.lon for p in points])
        lats = np.array([p.lat for p in points])
        for region in registry:
            expected = [point_in_region(p, region) for p in points]
            assert RegionEdges(region).contains(lons, lats).tolist() == expected
        assert RegionIndex(registry).resolve(points) == [brute_force_zone(p, registry) for p in points]

    def test_block_boundaries(self, monkeypatch):
        # Blocks of 5 points x 4 edges; 289 points leave a partial last block.
        from netwattzap import geo

        monkeypatch.setattr(geo, "BLOCK_ELEMENTS", 20)
        registry = WasgRegistry([square_region("A", "A", 0.0, 0.0, 2.0), square_region("B", "B", 1.0, 1.0, 2.0)])
        points = [GeoPoint(lat=i * 0.25 - 0.5, lon=j * 0.25 - 0.5) for i in range(17) for j in range(17)]
        assert RegionIndex(registry).resolve(points) == [brute_force_zone(p, registry) for p in points]

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
