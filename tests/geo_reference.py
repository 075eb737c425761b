"""Slow reference point-in-polygon: a scalar even-odd test in pure Python.

This is the per-point test ``netwattzap.geo`` used before
``RegionEdges.contains`` became its only one. The kernel evaluates the
same float expressions in the same operand order, so the differential
tests require the two to agree bit for bit, boundary points included.
"""

from __future__ import annotations

from netwattzap.errors import NoBoundary
from netwattzap.geo import GeoPoint
from netwattzap.grid_model import WasgRegion


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


def point_in_region(p: GeoPoint, region: WasgRegion) -> bool:
    """True iff the point lies inside or on the boundary of any region polygon.

    Raises:
        NoBoundary: if the region carries no polygons.
    """
    if not region.boundary:
        raise NoBoundary(f"region {region.id!r} has no boundary polygons")
    return any(_point_in_polygon(p.lon, p.lat, [ring.tolist() for ring in polygon]) for polygon in region.boundary)
