"""Maps components, routers and link endpoints to grids and builds distribution reports.

Resolution is batched: ``RegionIndex`` takes all points of a call at
once and, region by region, tests each distinct point inside the
region's bounding box with ``geo.RegionEdges.contains``. Overlapping
polygons are data defects and resolve deterministically to the
smallest-area region, with one warning per call. Routers stay columns,
counted with numpy; link ends are node rows, zoned by row with no id
lookup. All counting here is purely additive, so each reported figure
can be re-derived by a brute-force recount.
"""

from __future__ import annotations

import itertools
import logging
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import UnknownNode
# overlap.point_in_region stays bound: bench/layertrace.py wraps it there.
from .geo import GeoPoint, RegionEdges, _ordered_sum, point_in_region  # noqa: F401
from .grid_model import AggregateResult, StatTotals, WasgRegistry
from .ingest import COMPONENT_KINDS, InfraComponent, ParsedTopology

logger = logging.getLogger(__name__)

LINK_CATEGORIES = ("both_mapped", "one_mapped", "none_mapped")
# Region pairs named in the one warning about points inside several regions.
AMBIGUOUS_LISTED = 3
# A pair of regions inside both of which more than this share of the samples lies is warned about.
OVERLAP_WARN_FRACTION = 0.001


class RegionIndex:
    """Batched point-to-zone resolution over a registry's boundary polygons.

    Built per call from the registry: one ``RegionEdges`` per region with
    a boundary, ordered by (area_km2, id) so the first hit wins. A zone
    code is a position in ``zone_ids``, the sorted ids of those regions.
    """

    def __init__(self, registry: WasgRegistry):
        self.regions = sorted((r for r in registry if r.boundary), key=lambda r: (r.area_km2, r.id))
        self.edges = [RegionEdges(region) for region in self.regions]
        self.zone_ids = sorted(region.id for region in self.regions)
        self.codes = [self.zone_ids.index(region.id) for region in self.regions]

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

    def resolve(self, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
        """Zone code per (lon, lat) point, -1 outside every region; each distinct point is tested once.

        One warning covers all points inside several regions, counted and
        listed as if each point had been tested on its own.
        """
        # As complex numbers, points sort by lon, then lat, in one native sort.
        distinct, inverse = np.unique(lons + 1j * lats, return_inverse=True)
        zone = np.full(len(distinct), -1)
        ambiguous = np.zeros(len(distinct), dtype=bool)
        pairs: list[str] = []
        for code, region, idx in zip(self.codes, self.regions, self.hits(distinct.real, distinct.imag)):
            first = zone[idx] < 0
            taken = idx[~first]
            if len(taken):
                ambiguous[taken] = True
                # The first ambiguous points in input order, duplicates included.
                for i in inverse[np.isin(inverse, taken)][:AMBIGUOUS_LISTED].tolist():
                    pair = f"{self.zone_ids[zone[i]]}/{region.id}"
                    if len(pairs) < AMBIGUOUS_LISTED and pair not in pairs:
                        pairs.append(pair)
            zone[idx[first]] = code
        if ambiguous.any():
            logger.warning(
                "%d point(s) inside several regions, each resolved to its smallest-area region (e.g. %s)",
                int(ambiguous[inverse].sum()),
                ", ".join(pairs),
            )
        return zone[inverse]


def _zones_of(points: Sequence[GeoPoint], registry: WasgRegistry) -> list[str | None]:
    """Zone id per point, None outside every region."""
    index = RegionIndex(registry)
    lons = np.fromiter((p.lon for p in points), dtype=float, count=len(points))
    lats = np.fromiter((p.lat for p in points), dtype=float, count=len(points))
    return [index.zone_ids[k] if k >= 0 else None for k in index.resolve(lons, lats).tolist()]


def resolve_components(
    components: Sequence[InfraComponent],
    registry: WasgRegistry,
) -> list[InfraComponent]:
    """Fill each component's zone with the id of the containing region.

    Components outside every polygon keep ``zone=None``; containment in
    several (overlapping) polygons resolves to the smallest area. The
    result is independent of input order.
    """
    zones = _zones_of([c.geo for c in components], registry)
    return [replace(c, zone=zone) for c, zone in zip(components, zones)]


@dataclass
class TopologyTally:
    """Grid-level router and link counts of a topology.

    ``counts`` holds the both/one/none-mapped link totals, ``pairs`` the
    links per unordered grid pair (same-grid pairs included), ``one_end``
    each one-mapped link under its single mapped grid, ``routers`` the
    geolocated routers per grid and ``routers_unzoned`` those in none.
    """

    counts: dict[str, int]
    pairs: dict[tuple[str, str], int]
    one_end: dict[str, int]
    routers: dict[str, int] = field(default_factory=dict)
    routers_unzoned: int = 0


def tally_topology(topo: ParsedTopology, registry: WasgRegistry) -> TopologyTally:
    """Resolve each geolocated router once and count routers and links per grid.

    Raises:
        UnknownNode: if a link end is not a row of ``topo.nodes``.
    """
    index = RegionIndex(registry)
    nodes = topo.nodes
    located = ~np.isnan(nodes["lat"])
    codes = np.full(len(nodes), -1, dtype=np.int64)
    codes[located] = index.resolve(nodes["lon"][located], nodes["lat"][located])
    tally = _tally_links(topo.links, codes, index.zone_ids)
    # Shifted by one: bin 0 holds the routers outside every grid.
    per_zone = np.bincount(codes[located] + 1, minlength=len(index.zone_ids) + 1).tolist()
    tally.routers = {zone: n for zone, n in zip(index.zone_ids, per_zone[1:]) if n}
    tally.routers_unzoned = per_zone[0]
    return tally


def _tally_links(links: np.ndarray, codes: np.ndarray, zone_ids: Sequence[str]) -> TopologyTally:
    """Tally ``(k, 2)`` links of node rows by their mapped ends; ``codes`` is each row's zone code, -1 for none."""
    if len(links) and (links.min() < 0 or links.max() >= len(codes)):
        row, col = divmod(int(np.argmax((links < 0) | (links >= len(codes)))), 2)
        raise UnknownNode(f"link {row} names node row {links[row, col]}, outside the {len(codes)} nodes")
    # Count each ordered pair of end codes, with G (one past the last code) for "no zone". Codes
    # follow sorted zone ids, so the matrix folded onto its upper triangle counts sorted pairs.
    g = len(zone_ids)
    zoned = np.where(codes < 0, g, codes)
    key = (zoned * (g + 1))[links[:, 0]]
    key += zoned[links[:, 1]]
    ordered = np.bincount(key, minlength=(g + 1) ** 2).reshape(g + 1, g + 1)
    matrix = np.triu(ordered) + np.tril(ordered, -1).T
    lo, hi = np.nonzero(matrix[:g, :g])
    pairs = {(zone_ids[a], zone_ids[b]): n for a, b, n in zip(lo.tolist(), hi.tolist(), matrix[lo, hi].tolist())}
    one = matrix[:g, g].tolist()
    one_end = {zone_ids[code]: n for code, n in enumerate(one) if n}
    counts = {"both_mapped": sum(pairs.values()), "one_mapped": sum(one), "none_mapped": int(matrix[g, g])}
    return TopologyTally(counts=counts, pairs=pairs, one_end=one_end)


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


def _grid_table(
    components: Sequence[InfraComponent],
    registry: WasgRegistry,
    stats: AggregateResult | None,
    tally: TopologyTally | None,
) -> tuple[dict[str, dict[str, float]], dict[str, float], TopologyTally]:
    """Per-grid and uncovered columns: each component kind (the tally's routers join ``router``),
    the statistics when given, and ``components``; and the tally, an empty one for None.
    Raises ``UnknownWasg`` for the smallest zone, other than None, that the registry lacks.
    """
    tally = tally or TopologyTally(counts=dict.fromkeys(LINK_CATEGORIES, 0), pairs={}, one_end={})
    # One Counter per kind over its zones: cheaper than counting (zone, kind) tuples.
    zones_of_kind: dict[str, list[str | None]] = {kind: [] for kind in COMPONENT_KINDS}
    for c in components:
        zones_of_kind[c.kind].append(c.zone)
    counts = {kind: Counter(zones) for kind, zones in zones_of_kind.items()}
    for zone in sorted(set(itertools.chain(tally.routers, tally.one_end, *tally.pairs, *counts.values())) - {None}):
        registry.get(zone)

    per_wasg: dict[str, dict[str, float]] = {
        wasg_id: {kind: 0 for kind in COMPONENT_KINDS} for wasg_id in registry.ids
    }
    uncovered: dict[str, float] = {kind: 0 for kind in COMPONENT_KINDS}
    for kind, per_zone in counts.items():
        for zone, count in per_zone.items():
            (per_wasg[zone] if zone is not None else uncovered)[kind] += count
    for zone, count in tally.routers.items():
        per_wasg[zone]["router"] += count
    uncovered["router"] += tally.routers_unzoned

    empty = StatTotals()  # one shared record for every grid the statistics lack
    for wasg_id, metrics in [*per_wasg.items(), (None, uncovered)]:
        if stats is not None:
            totals = stats.per_wasg.get(wasg_id, empty) if wasg_id is not None else stats.uncovered
            for metric in STAT_METRICS:
                metrics[metric] = getattr(totals, metric)
        metrics["components"] = sum(metrics[kind] for kind in COMPONENT_KINDS)
    return per_wasg, uncovered, tally


def distribution_report(
    components: Sequence[InfraComponent],
    registry: WasgRegistry,
    stats: AggregateResult | None = None,
    tally: TopologyTally | None = None,
) -> OverlapReport:
    """Aggregate resolved components, a topology tally's routers and links, and statistics per grid."""
    per_wasg, uncovered, tally = _grid_table(components, registry, stats, tally)
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


def sample_polygon_overlap(registry: WasgRegistry, samples: int = 20000, seed: int = 0) -> PolygonOverlapSample:
    """Sample random points in the combined bounding box and count double hits.

    Region polygons should be disjoint; any pair containing more than
    ``OVERLAP_WARN_FRACTION`` of the samples is reported as a warning.
    """
    index = RegionIndex(registry)
    if not index.regions:
        return PolygonOverlapSample(samples=0, pair_hits={}, warnings=[])
    x0 = min(edges.bbox[0] for edges in index.edges)
    y0 = min(edges.bbox[1] for edges in index.edges)
    x1 = max(edges.bbox[2] for edges in index.edges)
    y1 = max(edges.bbox[3] for edges in index.edges)
    rng = random.Random(seed)
    # rng.uniform(a, b) is a + (b - a) * rng.random(); each sample draws its lat, then its lon.
    draws = np.array([rng.random() for _ in range(2 * samples)])
    lats, lons = y0 + (y1 - y0) * draws[0::2], x0 + (x1 - x0) * draws[1::2]
    hits = index.hits(lons, lats)
    count = np.bincount(np.concatenate(hits), minlength=samples)
    inside: dict[int, list[str]] = {}
    for region, idx in zip(index.regions, hits):
        for i in idx[count[idx] > 1].tolist():
            inside.setdefault(i, []).append(region.id)
    pair_hits: dict[tuple[str, str], int] = {}
    for i in sorted(inside):
        for key in itertools.combinations(sorted(inside[i]), 2):
            pair_hits[key] = pair_hits.get(key, 0) + 1
    warnings = [
        f"regions {a!r} and {b!r} overlap on {hits}/{samples} sampled points"
        for (a, b), hits in sorted(pair_hits.items())
        if hits / samples > OVERLAP_WARN_FRACTION
    ]
    return PolygonOverlapSample(samples=samples, pair_hits=pair_hits, warnings=warnings)
