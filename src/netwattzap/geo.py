"""Geodesic and planar geometry primitives.

Every distance and latency comes from ``haversine_km``, a great circle
on a sphere of mean radius 6371.0088 km computed with ``math``, never
with numpy's trigonometry, whose last bits follow the SIMD code it
dispatches. One-way latency divides it by the signal speed in fiber,
``FIBER_KM_PER_SEC`` (200,000 km/s, roughly 2c/3). Zone membership is
planar even-odd point-in-polygon on lon/lat degrees with the boundary
counting as inside; polygons crossing the antimeridian must be pre-split
in the source data. ``point_in_region`` tests one point in pure Python
and is the reference for ``RegionEdges.contains``, which tests many
points at once in numpy with the same float expressions, so both agree
bit for bit. It tests each point only against the edges whose closed
latitude span holds it, the one-dimensional half of a cell grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import NoBoundary

if TYPE_CHECKING:
    from .grid_model import WasgRegion

EARTH_RADIUS_KM = 6371.0088
FIBER_KM_PER_SEC = 200_000.0
# Point x edge elements per block of RegionEdges.contains: the one
# dense temporary, the latitude-span mask, is 16 KiB of bool; the
# arrays after it hold only the (point, edge) pairs that mask keeps.
BLOCK_ELEMENTS = 1 << 14


def _ordered_sum(values) -> float:
    """Sum floats left to right, one rounding per addition.

    From Python 3.12 the built-in ``sum()`` of floats is compensated, so
    report values and solver bounds summed with it would differ in the
    last bit between Python versions.
    """
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        check_coordinates(self.lat, self.lon)


def check_coordinates(lat: float, lon: float) -> None:
    """Raise ValueError unless lat lies in [-90, 90] and lon in [-180, 180] (NaN lies in neither)."""
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat!r} outside [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise ValueError(f"longitude {lon!r} outside [-180, 180]")


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometers.

    Exactly 0 for identical points, with lon -180 and 180 identified.
    """
    if a.lat == b.lat and (a.lon == b.lon or abs(a.lon - b.lon) == 360.0):
        return 0.0
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    # Clamp guards asin against rounding slightly above 1 near antipodes.
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def latency_ms(a: GeoPoint, b: GeoPoint) -> float:
    """One-way propagation delay in milliseconds along a straight fiber path."""
    return haversine_km(a, b) / FIBER_KM_PER_SEC * 1000.0


def pairwise_latency_ms(rows: Sequence[GeoPoint], cols: Sequence[GeoPoint]) -> np.ndarray:
    """len(rows) x len(cols) matrix of one-way latencies in ms, each equal to ``latency_ms`` bit for bit."""
    km = np.array([[haversine_km(a, b) for b in cols] for a in rows], dtype=float)
    return km.reshape(len(rows), len(cols)) / FIBER_KM_PER_SEC * 1000.0


def _on_segment(x: float, y: float, x1: float, y1: float, x2: float, y2: float) -> bool:
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    if cross != 0.0:
        return False
    return min(x1, x2) <= x <= max(x1, x2) and min(y1, y2) <= y <= max(y1, y2)


def _point_in_polygon(x: float, y: float, polygon) -> bool:
    """Even-odd containment across all rings (lists of vertices); boundary points count as inside."""
    for ring in polygon:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            if _on_segment(x, y, x1, y1, x2, y2):
                return True
    inside = False
    for ring in polygon:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            if (y1 > y) != (y2 > y):
                xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
                if xi > x:
                    inside = not inside
    return inside


def point_in_region(p: GeoPoint, region: "WasgRegion") -> bool:
    """True iff the point lies inside or on the boundary of any region polygon.

    Raises:
        NoBoundary: if the region carries no polygons.
    """
    if not region.boundary:
        raise NoBoundary(f"region {region.id!r} has no boundary polygons")
    return any(_point_in_polygon(p.lon, p.lat, [ring.tolist() for ring in polygon]) for polygon in region.boundary)


class RegionEdges:
    """A region's boundary in numpy, for testing many points at once.

    Holds each ring as a (2, n) lon/lat view (``ring.T``, no copy) of
    the region's (n, 2) array, ``polygon_of_edge``, the polygon index of
    each edge in ring order, and ``bbox``, (min lon, min lat, max lon,
    max lat) over all vertices. The edge arrays are built inside
    ``contains`` and dropped when it returns, so a caller walking many
    regions holds one region's edges at a time.

    Raises:
        NoBoundary: if the region carries no polygons.
    """

    def __init__(self, region: "WasgRegion"):
        if not region.boundary:
            raise NoBoundary(f"region {region.id!r} has no boundary polygons")
        self.rings = [ring.T for polygon in region.boundary for ring in polygon]
        # Polygon of each edge; a ring of n vertices has n - 1 edges.
        self.polygon_of_edge = np.repeat(
            np.arange(len(region.boundary)), [sum(len(ring) - 1 for ring in polygon) for polygon in region.boundary]
        )
        lons, lats = np.concatenate(self.rings, axis=1)
        self.bbox = (float(lons.min()), float(lats.min()), float(lons.max()), float(lats.max()))

    def contains(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Boolean mask: ``point_in_region`` for each (lon, lat), in blocks of points x edges.

        Each point meets only the edges whose closed latitude span holds
        it. Any other edge has both ends above or both below the point, so
        it neither straddles the point's latitude nor passes through it.
        """
        a = np.concatenate([ring[:, :-1] for ring in self.rings], axis=1)
        b = np.concatenate([ring[:, 1:] for ring in self.rings], axis=1)
        edges = np.concatenate([a, b, b - a])  # rows x1, y1, x2, y2, dx, dy
        ylo, yhi = np.minimum(a[1], b[1]), np.maximum(a[1], b[1])
        polygons = int(self.polygon_of_edge[-1]) + 1
        inside = np.zeros(len(lons), dtype=bool)
        step = max(1, BLOCK_ELEMENTS // len(ylo))
        # Horizontal and zero-length edges at a point's latitude divide by zero
        # in xi; they never straddle, so their xi is masked out.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for s in range(0, len(lons), step):
                py = lats[s : s + step, None]
                i, j = np.nonzero((ylo <= py) & (py <= yhi))
                x, y = lons[s + i], lats[s + i]
                x1, y1, x2, y2, dx, dy = edges[:, j]
                rel_y = y - y1
                # The same expressions, in the same operand order, as _on_segment and
                # _point_in_polygon, so every float matches the scalar test; the
                # pairing is already the on-segment latitude test.
                on = (dx * rel_y - dy * (x - x1) == 0.0) & (np.minimum(x1, x2) <= x) & (x <= np.maximum(x1, x2))
                inside[s + i[on]] = True
                crossing = ((y1 > y) != (y2 > y)) & (x1 + rel_y * dx / dy > x)
                # Crossings per (point, polygon) of this block; an odd count is inside.
                keys = i[crossing] * polygons + self.polygon_of_edge[j[crossing]]
                odd = np.bincount(keys, minlength=len(py) * polygons) & 1
                inside[s : s + step] |= odd.reshape(len(py), polygons).any(axis=1)
        return inside


def band_overlap(region: "WasgRegion", threshold_deg: float) -> bool:
    """True iff any part of the region boundary reaches poleward of the threshold.

    Tangency counts: a vertex exactly at +-threshold_deg is an overlap. Both
    the north and south bands are tested, matching a storm belt that is
    symmetric about the equator.

    Raises:
        NoBoundary: if the region carries no polygons.
        ValueError: if the threshold is outside (0, 90).
    """
    if not 0.0 < threshold_deg < 90.0:
        raise ValueError(f"threshold_deg {threshold_deg!r} outside (0, 90)")
    if not region.boundary:
        raise NoBoundary(f"region {region.id!r} has no boundary polygons")
    # An edge straddling either band parallel has a vertex poleward of it.
    return any(np.abs(ring[:, 1]).max() >= threshold_deg for polygon in region.boundary for ring in polygon)
