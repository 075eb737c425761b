"""Geometry tests, each checked against an independently coded oracle."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwattzap.errors import NoBoundary
from netwattzap.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    RegionEdges,
    band_overlap,
    haversine_km,
    latency_ms,
    pairwise_latency_ms,
    point_in_region,
)

from conftest import square_region


def great_circle_oracle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Spherical law of cosines; independent of the haversine code path."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    cosd = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlam)
    return EARTH_RADIUS_KM * math.acos(max(-1.0, min(1.0, cosd)))


def pnpoly(x: float, y: float, ring) -> bool:
    """Classic crossing-number ray cast over one ring (closing vertex dropped)."""
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


def containment_oracle(p: GeoPoint, region) -> bool:
    for polygon in region.boundary:
        hit = False
        for ring in polygon:
            if pnpoly(p.lon, p.lat, ring):
                hit = not hit
        if hit:
            return True
    return False


points = st.builds(
    GeoPoint,
    lat=st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    lon=st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
)


class TestHaversine:
    def test_identity(self):
        assert haversine_km(GeoPoint(10, 20), GeoPoint(10, 20)) == 0.0

    def test_antipodal_is_half_circumference(self):
        d = haversine_km(GeoPoint(0, 0), GeoPoint(0, 180))
        expected = math.pi * EARTH_RADIUS_KM
        assert abs(d - expected) <= 1e-6 * expected

    def test_nyc_london_matches_oracle(self):
        nyc = GeoPoint(40.7128, -74.0060)
        london = GeoPoint(51.5074, -0.1278)
        d = haversine_km(nyc, london)
        oracle = great_circle_oracle_km(nyc, london)
        assert abs(d - oracle) <= 0.005 * oracle
        assert 5500 < d < 5650

    @given(a=points, b=points)
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, a, b):
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-9, abs=1e-9)

    @given(a=points, b=points, c=points)
    @settings(max_examples=300, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        ab = haversine_km(a, b)
        bc = haversine_km(b, c)
        ac = haversine_km(a, c)
        assert ac <= ab + bc + 1e-9 * max(1.0, ac)

    def test_random_pairs_match_oracle(self):
        rng = random.Random(3)
        for _ in range(500):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-180, 180))
            d = haversine_km(a, b)
            oracle = great_circle_oracle_km(a, b)
            assert abs(d - oracle) <= max(1e-6, 0.005 * oracle)

    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            GeoPoint(95.0, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(0.0, 200.0)


class TestLatency:
    def test_same_point_is_zero(self):
        assert latency_ms(GeoPoint(5, 5), GeoPoint(5, 5)) == 0.0

    def test_antipodal(self):
        lat = latency_ms(GeoPoint(0, 0), GeoPoint(0, 180))
        assert abs(lat - 100.08) < 0.01

    def test_thousand_km_is_five_ms(self):
        # Two equator points exactly 1000 km apart along the parallel.
        dlon = math.degrees(1000.0 / EARTH_RADIUS_KM)
        lat = latency_ms(GeoPoint(0, 0), GeoPoint(0, dlon))
        assert lat == pytest.approx(5.0, abs=1e-9)

    def test_linear_in_distance(self):
        a, b = GeoPoint(12, 7), GeoPoint(-33, 151)
        assert latency_ms(a, b) == pytest.approx(haversine_km(a, b) / 200.0, rel=1e-12)

    def test_pairwise_matrix_matches_scalar(self):
        rng = random.Random(5)
        rows = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-170, 170)) for _ in range(4)]
        cols = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-170, 170)) for _ in range(6)]
        # One point twice: lon -180 and 180 on one latitude, and a point with itself.
        rows += [GeoPoint(10.0, -180.0), GeoPoint(-42.5, 7.25)]
        cols += [GeoPoint(10.0, 180.0), GeoPoint(-42.5, 7.25)]
        matrix = pairwise_latency_ms(rows, cols)
        assert matrix.shape == (6, 8)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert matrix[i, j] == latency_ms(a, b)
        assert matrix[4, 6] == matrix[5, 7] == 0.0


def random_star_polygon(rng: random.Random, cx: float, cy: float, n_verts: int, radius: float):
    """Simple (star-shaped) ring around a center."""
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n_verts))
    verts = [
        (cx + rng.uniform(0.3, 1.0) * radius * math.cos(t), cy + rng.uniform(0.3, 1.0) * radius * math.sin(t))
        for t in angles
    ]
    verts.append(verts[0])
    return tuple(verts)


class TestPointInRegion:
    square = square_region("S", "S", lon0=10.0, lat0=20.0, size=4.0)

    def test_centroid_inside(self):
        assert point_in_region(GeoPoint(22.0, 12.0), self.square)

    def test_far_outside(self):
        assert not point_in_region(GeoPoint(40.0, 60.0), self.square)

    def test_edge_counts_as_inside(self):
        assert point_in_region(GeoPoint(20.0, 12.0), self.square)

    def test_vertex_counts_as_inside(self):
        assert point_in_region(GeoPoint(20.0, 10.0), self.square)

    def test_hole_excluded_by_even_odd(self):
        from netwattzap.grid_model import WasgRegion

        outer = square_region("O", "O", 0.0, 0.0, 10.0).boundary[0][0]
        inner = square_region("I", "I", 4.0, 4.0, 2.0).boundary[0][0]
        region = WasgRegion(
            id="H", name="holey", abbrev="H", members=frozenset(),
            boundary=((outer, inner),),
            population=0, internet_users=0, area_km2=1.0,
        )
        assert point_in_region(GeoPoint(1.0, 1.0), region)
        assert not point_in_region(GeoPoint(5.0, 5.0), region)

    @staticmethod
    def bare_region():
        from netwattzap.grid_model import WasgRegion

        return WasgRegion(
            id="X", name="x", abbrev="X", members=frozenset(),
            boundary=(), population=0, internet_users=0, area_km2=0.0,
        )

    def test_no_boundary_raises(self):
        with pytest.raises(NoBoundary) as err:
            point_in_region(GeoPoint(0, 0), self.bare_region())
        assert str(err.value) == "region 'X' has no boundary polygons"

    @pytest.mark.parametrize("use", [RegionEdges, lambda region: band_overlap(region, 40.0)], ids=["edges", "band"])
    def test_edges_and_band_raise_no_boundary(self, use):
        with pytest.raises(NoBoundary) as err:
            use(self.bare_region())
        assert str(err.value) == "region 'X' has no boundary polygons"

    def test_agrees_with_raycast_oracle(self):
        from netwattzap.grid_model import WasgRegion

        rng = random.Random(17)
        checked = 0
        for trial in range(100):
            cx, cy = rng.uniform(-150, 150), rng.uniform(-60, 60)
            ring = random_star_polygon(rng, cx, cy, rng.randint(5, 12), rng.uniform(2.0, 10.0))
            region = WasgRegion(
                id=f"P{trial}", name="poly", abbrev=f"P{trial}", members=frozenset(),
                boundary=((ring,),), population=0, internet_users=0, area_km2=1.0,
            )
            for _ in range(100):
                p = GeoPoint(
                    lat=max(-90, min(90, cy + rng.uniform(-12, 12))),
                    lon=max(-180, min(180, cx + rng.uniform(-12, 12))),
                )
                assert point_in_region(p, region) == containment_oracle(p, region)
                checked += 1
        assert checked == 10_000


class TestBandOverlap:
    def test_fully_above_threshold(self):
        region = square_region("N", "N", 0.0, 55.0, 5.0)
        assert band_overlap(region, 50.0)

    def test_equatorial_region_misses(self):
        region = square_region("E", "E", 0.0, -10.0, 20.0)
        assert not band_overlap(region, 40.0)

    def test_partial_overlap(self):
        region = square_region("P", "P", 0.0, 35.0, 10.0)
        assert band_overlap(region, 40.0)

    def test_tangency_counts(self):
        region = square_region("T", "T", 0.0, 30.0, 10.0)
        assert band_overlap(region, 40.0)

    def test_southern_band(self):
        region = square_region("S", "S", 0.0, -50.0, 5.0)
        assert band_overlap(region, 40.0)

    def test_threshold_validation(self):
        region = square_region("V", "V", 0.0, 0.0, 5.0)
        for bad in (0.0, -5.0, 90.0, 120.0):
            with pytest.raises(ValueError):
                band_overlap(region, bad)

    def test_monotone_in_threshold(self):
        rng = random.Random(23)
        for _ in range(200):
            lat0 = rng.uniform(-80, 70)
            region = square_region("M", "M", rng.uniform(-150, 140), lat0, rng.uniform(1, 10))
            t1 = rng.uniform(1, 89)
            t2 = rng.uniform(1, t1)
            if band_overlap(region, t1):
                assert band_overlap(region, t2)


class TestAntimeridian:
    def test_identified_longitudes_give_exact_zero(self):
        assert haversine_km(GeoPoint(10.0, -180.0), GeoPoint(10.0, 180.0)) == 0.0
        assert haversine_km(GeoPoint(10.0, 180.0), GeoPoint(10.0, -180.0)) == 0.0
