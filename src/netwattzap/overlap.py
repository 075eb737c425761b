"""Maps components and link endpoints to grids and builds distribution reports.

Resolution is batched: ``RegionIndex`` takes all points of a call at
once and, region by region, picks the points inside the region's
bounding box and tests them together with ``geo.RegionEdges.contains``.
Overlapping polygons are data defects and resolve deterministically to
the smallest-area region, with one warning per call. All counting here
is purely additive, so each reported figure can be re-derived by a
brute-force recount over the raw inputs.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import UnknownNode
# overlap.point_in_region stays bound: bench/layertrace.py wraps it there.
from .geo import GeoPoint, RegionEdges, _ordered_sum, point_in_region  # noqa: F401
from .grid_model import AggregateResult, WasgRegistry
from .ingest import COMPONENT_KINDS, InfraComponent, RouterNode

logger = logging.getLogger(__name__)

LINK_CATEGORIES = ("both_mapped", "one_mapped", "none_mapped")
# Region pairs named in the one warning about points inside several regions.
AMBIGUOUS_LISTED = 3


class RegionIndex:
    """Batched point-to-zone resolution over a registry's boundary polygons.

    Built per call from the registry: one ``RegionEdges`` per region with
    a boundary, ordered by (area_km2, id) so the first hit wins.
    """

    def __init__(self, registry: WasgRegistry):
        self.regions = sorted((r for r in registry if r.boundary), key=lambda r: (r.area_km2, r.id))
        self.edges = [RegionEdges(region) for region in self.regions]

    def hits(self, lons: np.ndarray, lats: np.ndarray) -> list[np.ndarray]:
        """Per region, in ``self.regions`` order: indices of the points inside it."""
        out = []
        for edges in self.edges:
            x0, y0, x1, y1 = edges.bbox
            candidates = np.flatnonzero((x0 <= lons) & (lons <= x1) & (y0 <= lats) & (lats <= y1))
            if len(candidates):
                candidates = candidates[edges.contains(lons[candidates], lats[candidates])]
            out.append(candidates)
        return out

    def resolve(self, points: Sequence[GeoPoint]) -> list[str | None]:
        """Zone id per point; one warning for all points inside several regions."""
        lons = np.fromiter((p.lon for p in points), dtype=float, count=len(points))
        lats = np.fromiter((p.lat for p in points), dtype=float, count=len(points))
        zone = np.full(len(points), -1)
        ambiguous = np.zeros(len(points), dtype=bool)
        pairs: list[str] = []
        for k, idx in enumerate(self.hits(lons, lats)):
            first = zone[idx] < 0
            taken = idx[~first]
            ambiguous[taken] = True
            for i in taken[:AMBIGUOUS_LISTED].tolist():
                pair = f"{self.regions[zone[i]].id}/{self.regions[k].id}"
                if len(pairs) < AMBIGUOUS_LISTED and pair not in pairs:
                    pairs.append(pair)
            zone[idx[first]] = k
        if ambiguous.any():
            logger.warning(
                "%d point(s) inside several regions, each resolved to its smallest-area region (e.g. %s)",
                int(ambiguous.sum()),
                ", ".join(pairs),
            )
        ids = [region.id for region in self.regions]
        return [ids[k] if k >= 0 else None for k in zone.tolist()]


def resolve_components(
    components: Sequence[InfraComponent],
    registry: WasgRegistry,
) -> list[InfraComponent]:
    """Fill each component's zone with the id of the containing region.

    Components outside every polygon keep ``zone=None``; containment in
    several (overlapping) polygons resolves to the smallest area. The
    result is independent of input order.
    """
    zones = RegionIndex(registry).resolve([c.geo for c in components])
    return [replace(c, zone=zone) for c, zone in zip(components, zones)]


def resolve_router_zones(
    nodes: Sequence[RouterNode],
    registry: WasgRegistry,
) -> dict[int, str | None]:
    """Zone per router node id; nodes without geolocation map to None."""
    zones = iter(RegionIndex(registry).resolve([n.geo for n in nodes if n.geo is not None]))
    return {n.node_id: (next(zones) if n.geo is not None else None) for n in nodes}


def components_from_router_nodes(
    nodes: Sequence[RouterNode],
    zones: Mapping[int, str | None] | None = None,
) -> list[InfraComponent]:
    """Routers with geolocation as kind='router' components (id ``N<node_id>``).

    ``zones`` (from ``resolve_router_zones``) fills each component's zone;
    without it every zone is None.
    """
    zones = zones or {}
    return [
        InfraComponent(id=f"N{n.node_id}", kind="router", geo=n.geo, zone=zones.get(n.node_id))
        for n in nodes
        if n.geo is not None
    ]


@dataclass
class LinkTally:
    """Grid-level link counts from one pass over the links.

    ``counts`` holds the both/one/none-mapped totals, ``pairs`` the
    links per unordered grid pair (same-grid pairs included) and
    ``one_end`` each one-mapped link under its single mapped grid.
    """

    counts: dict[str, int]
    pairs: dict[tuple[str, str], int]
    one_end: dict[str, int]


def categorize_links(
    links: np.ndarray,
    node_zones: Mapping[int, str | None],
) -> LinkTally:
    """Tally links by how many endpoints map to a grid, and by which grids.

    ``links`` is a ``(k, 3)`` integer array of link id, a and b, as in
    ``ParsedTopology.links``.

    Raises:
        UnknownNode: if a link references a node id absent from the map.
    """
    zone_ids = sorted({zone for zone in node_zones.values() if zone is not None})
    # Codes follow sorted zone ids, so min/max of two codes is the sorted
    # pair; G, one past the last code, stands for "no zone".
    g = len(zone_ids)
    code_of = {zone: code for code, zone in enumerate(zone_ids)}
    node_ids = np.fromiter(node_zones, dtype=np.int64, count=len(node_zones))
    node_codes = np.fromiter(
        (g if zone is None else code_of[zone] for zone in node_zones.values()),
        dtype=np.int64,
        count=len(node_zones),
    )
    order = np.argsort(node_ids)
    node_ids, node_codes = node_ids[order], node_codes[order]

    # Look up each distinct endpoint once: ends = uniq[inverse], a and b interleaved.
    uniq, inverse = np.unique(links[:, 1:].ravel(), return_inverse=True)
    pos = np.searchsorted(node_ids, uniq)
    found = pos < len(node_ids)
    found[found] = node_ids[pos[found]] == uniq[found]
    if not found.all():
        row, col = divmod(int(np.argmin(found[inverse])), 2)
        raise UnknownNode(f"link L{links[row, 0]} references unknown node N{links[row, 1 + col]}")
    codes = node_codes[pos][inverse].reshape(-1, 2)
    lo, hi = np.minimum(codes[:, 0], codes[:, 1]), np.maximum(codes[:, 0], codes[:, 1])

    both = hi < g
    keys, key_counts = np.unique(lo[both] * g + hi[both], return_counts=True)
    pairs = {
        (zone_ids[key // g], zone_ids[key % g]): count for key, count in zip(keys.tolist(), key_counts.tolist())
    }
    one = (lo < g) & ~both
    one_end_counts = np.bincount(lo[one], minlength=g).tolist()
    one_end = {zone_ids[code]: count for code, count in enumerate(one_end_counts) if count}
    counts = {
        "both_mapped": int(both.sum()),
        "one_mapped": int(one.sum()),
        "none_mapped": int((lo == g).sum()),
    }
    return LinkTally(counts=counts, pairs=pairs, one_end=one_end)


@dataclass
class AzCollapse:
    """Data-center locations collapsed into grid-disjoint availability zones."""

    zone_count: int
    groups: dict[str, list[str]]
    unzoned: list[str]


def az_collapse(datacenters: Sequence[InfraComponent]) -> AzCollapse:
    """Collapse data centers into grid-level zones.

    Data centers sharing a grid form one zone; each data center outside
    every grid counts as its own singleton zone and is flagged in
    ``unzoned``.
    """
    groups: dict[str, list[str]] = {}
    unzoned: list[str] = []
    for dc in datacenters:
        if dc.zone is None:
            unzoned.append(dc.id)
        else:
            groups.setdefault(dc.zone, []).append(dc.id)
    for ids in groups.values():
        ids.sort()
    unzoned.sort()
    return AzCollapse(zone_count=len(groups) + len(unzoned), groups=groups, unzoned=unzoned)


STAT_METRICS = ("population", "internet_users", "area_km2")


@dataclass
class RankEntry:
    wasg_id: str
    value: float
    cumulative_fraction: float


@dataclass
class OverlapReport:
    """Per-grid component/statistic totals plus link categorization.

    ``rankings`` holds, per metric, grids sorted by descending value with
    cumulative fractions of the metric's global total (unzoned components
    and uncovered statistics included in the denominator).
    """

    per_wasg: dict[str, dict[str, float]]
    uncovered: dict[str, float]
    link_categories: dict[str, int]
    pair_counts: dict[tuple[str, str], int]
    one_end_counts: dict[str, int]
    rankings: dict[str, list[RankEntry]]


def _rank(per_wasg: dict[str, dict[str, float]], uncovered_total: float, metric: str) -> list[RankEntry]:
    values = [(wasg_id, metrics.get(metric, 0)) for wasg_id, metrics in per_wasg.items()]
    values.sort(key=lambda item: (-item[1], item[0]))
    total = _ordered_sum(v for _, v in values) + uncovered_total
    if total <= 0:
        return []
    entries = []
    running = 0.0
    for wasg_id, value in values:
        running += value
        entries.append(RankEntry(wasg_id=wasg_id, value=value, cumulative_fraction=running / total))
    return entries


def distribution_report(
    components: Sequence[InfraComponent],
    registry: WasgRegistry,
    stats: AggregateResult | None = None,
    tally: LinkTally | None = None,
) -> OverlapReport:
    """Aggregate resolved components (and optionally a link tally/statistics) per grid."""
    per_wasg: dict[str, dict[str, float]] = {
        wasg_id: {kind: 0 for kind in COMPONENT_KINDS} for wasg_id in registry.ids
    }
    uncovered: dict[str, float] = {kind: 0 for kind in COMPONENT_KINDS}
    for c in components:
        target = per_wasg[c.zone] if c.zone is not None else uncovered
        target[c.kind] = target.get(c.kind, 0) + 1

    if stats is not None:
        for wasg_id, metrics in per_wasg.items():
            totals = stats.per_wasg.get(wasg_id)
            metrics["population"] = totals.population if totals else 0
            metrics["internet_users"] = totals.internet_users if totals else 0
            metrics["area_km2"] = totals.area_km2 if totals else 0.0
        uncovered["population"] = stats.uncovered.population
        uncovered["internet_users"] = stats.uncovered.internet_users
        uncovered["area_km2"] = stats.uncovered.area_km2

    for metrics in per_wasg.values():
        metrics["components"] = sum(metrics.get(kind, 0) for kind in COMPONENT_KINDS)
    uncovered["components"] = sum(uncovered.get(kind, 0) for kind in COMPONENT_KINDS)

    if tally is None:
        tally = LinkTally(counts=dict.fromkeys(LINK_CATEGORIES, 0), pairs={}, one_end={})

    metrics_present = list(COMPONENT_KINDS) + ["components"]
    if stats is not None:
        metrics_present += list(STAT_METRICS)
    rankings = {
        metric: _rank(per_wasg, uncovered.get(metric, 0), metric) for metric in metrics_present
    }

    return OverlapReport(
        per_wasg=per_wasg,
        uncovered=uncovered,
        link_categories=tally.counts,
        pair_counts=tally.pairs,
        one_end_counts=tally.one_end,
        rankings=rankings,
    )


def smallest_k(report: OverlapReport, metric: str, fraction: float) -> int | None:
    """Smallest k such that the top-k grids reach the cumulative fraction.

    None when the fraction is never reached (possible when unzoned
    components keep the cumulative curve below 1.0).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction {fraction!r} outside (0, 1]")
    for k, entry in enumerate(report.rankings.get(metric, []), start=1):
        if entry.cumulative_fraction >= fraction:
            return k
    return None


@dataclass
class PolygonOverlapSample:
    """Monte-Carlo estimate of pairwise polygon overlap across the registry."""

    samples: int
    pair_hits: dict[tuple[str, str], int]
    warnings: list[str]


def sample_polygon_overlap(
    registry: WasgRegistry,
    samples: int = 20000,
    seed: int = 0,
    warn_fraction: float = 0.001,
) -> PolygonOverlapSample:
    """Sample random points in the combined bounding box and count double hits.

    Region polygons should be disjoint; any pair containing more than
    ``warn_fraction`` of the samples is reported as a warning.
    """
    index = RegionIndex(registry)
    if not index.regions:
        return PolygonOverlapSample(samples=0, pair_hits={}, warnings=[])
    x0 = min(edges.bbox[0] for edges in index.edges)
    y0 = min(edges.bbox[1] for edges in index.edges)
    x1 = max(edges.bbox[2] for edges in index.edges)
    y1 = max(edges.bbox[3] for edges in index.edges)
    rng = random.Random(seed)
    draws = np.array([(rng.uniform(y0, y1), rng.uniform(x0, x1)) for _ in range(samples)]).reshape(-1, 2)
    lats, lons = draws[:, 0], draws[:, 1]
    hits = index.hits(lons, lats)
    count = np.bincount(np.concatenate(hits), minlength=samples)
    inside: dict[int, list[str]] = {}
    for region, idx in zip(index.regions, hits):
        for i in idx[count[idx] > 1].tolist():
            inside.setdefault(i, []).append(region.id)
    pair_hits: dict[tuple[str, str], int] = {}
    for i in sorted(inside):
        ids = sorted(inside[i])
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                key = (ids[a], ids[b])
                pair_hits[key] = pair_hits.get(key, 0) + 1
    warnings = [
        f"regions {a!r} and {b!r} overlap on {hits}/{samples} sampled points"
        for (a, b), hits in sorted(pair_hits.items())
        if hits / samples > warn_fraction
    ]
    return PolygonOverlapSample(samples=samples, pair_hits=pair_hits, warnings=warnings)
