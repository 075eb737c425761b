"""Geodesic and planar geometry primitives.

Distances are haversine great circles on a sphere of mean radius
6371.0088 km; one-way latency divides by the signal speed in fiber
(200,000 km/s, roughly 2c/3, overridable). Zone membership is planar
even-odd point-in-polygon on lon/lat degrees with the boundary counting
as inside; polygons crossing the antimeridian must be pre-split in the
source data. ``point_in_region`` tests one point in pure Python and is
the reference for ``RegionEdges.contains``, which tests many points at
once in numpy with the same float expressions, so both agree bit for
bit.
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
# Point x edge elements per block of RegionEdges.contains: each
# temporary is about 128 KiB of float64.
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
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat!r} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon!r} outside [-180, 180]")


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


def latency_ms(a: GeoPoint, b: GeoPoint, fiber_km_per_sec: float = FIBER_KM_PER_SEC) -> float:
    """One-way propagation delay in milliseconds along a straight fiber path."""
    return haversine_km(a, b) / fiber_km_per_sec * 1000.0


def pairwise_latency_ms(
    rows: Sequence[GeoPoint],
    cols: Sequence[GeoPoint],
    fiber_km_per_sec: float = FIBER_KM_PER_SEC,
) -> np.ndarray:
    """len(rows) x len(cols) matrix of one-way latencies in milliseconds."""
    if not rows or not cols:
        return np.zeros((len(rows), len(cols)))
    rlat = np.radians([p.lat for p in rows])[:, None]
    rlon = np.radians([p.lon for p in rows])[:, None]
    clat = np.radians([p.lat for p in cols])[None, :]
    clon = np.radians([p.lon for p in cols])[None, :]
    h = np.sin((clat - rlat) / 2.0) ** 2 + np.cos(rlat) * np.cos(clat) * np.sin((clon - rlon) / 2.0) ** 2
    km = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))
    return km / fiber_km_per_sec * 1000.0


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
    the region's (n, 2) array, and ``bbox``, (min lon, min lat, max lon,
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
        # Index of each polygon's first edge; a ring of n vertices has n - 1 edges.
        self.starts = np.cumsum([0] + [sum(len(ring) - 1 for ring in polygon) for polygon in region.boundary[:-1]])
        vertices = np.concatenate(self.rings, axis=1)
        self.bbox = (*vertices.min(axis=1).tolist(), *vertices.max(axis=1).tolist())

    def contains(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Boolean mask: ``point_in_region`` for each (lon, lat), in blocks of points x edges."""
        x1, y1 = np.concatenate([ring[:, :-1] for ring in self.rings], axis=1)
        x2, y2 = np.concatenate([ring[:, 1:] for ring in self.rings], axis=1)
        dx = x2 - x1
        dy = y2 - y1
        inside = np.zeros(len(lons), dtype=bool)
        step = max(1, BLOCK_ELEMENTS // len(x1))
        # Horizontal and zero-length edges divide by zero in xi; they never
        # straddle, so their xi is masked out.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for s in range(0, len(lons), step):
                px = lons[s : s + step, None]
                py = lats[s : s + step, None]
                rel_y = py - y1
                # The same expressions, in the same operand order, as _on_segment and
                # _point_in_polygon, so every float matches the scalar test.
                cross = dx * rel_y - dy * (px - x1)
                i, j = np.nonzero(cross == 0.0)
                if len(i):
                    x = px[i, 0]
                    y = py[i, 0]
                    on = (
                        (np.minimum(x1[j], x2[j]) <= x)
                        & (x <= np.maximum(x1[j], x2[j]))
                        & (np.minimum(y1[j], y2[j]) <= y)
                        & (y <= np.maximum(y1[j], y2[j]))
                    )
                    inside[s + i[on]] = True
                xi = x1 + rel_y * dx / dy
                crossing = ((y1 > py) != (y2 > py)) & (xi > px)
                odd = np.logical_xor.reduceat(crossing, self.starts, axis=1)
                inside[s : s + step] |= odd.any(axis=1)
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
