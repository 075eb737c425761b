"""Failure scenarios and the unavailability they cause.

A scenario fails whole grids: either an explicit set (regional outages
from weather or targeted attacks) or every grid reaching poleward of a
latitude threshold (solar-storm model). Components in no grid are never
failed - their grid exposure is unknown. Topology routers and links
enter as the grid-level tally of ``overlap.tally_topology``: its router
counts join the ``router`` components, and a link is unavailable as soon
as either mapped endpoint sits in a failed grid, so the unavailable links
are the grid pairs and one-end counts touching a failed grid; links with
both ends unmapped survive every scenario.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import MalformedDocument, UnknownWasg
from .geo import band_overlap
from .grid_model import AggregateResult, WasgRegistry, _json_list, _json_number, _json_str, _load_document
from .ingest import InfraComponent
from .overlap import TopologyTally, _check_zones, az_collapse

MODES = ("regional", "latitude_band")

# Component kinds surfaced as report metrics, in report order.
_KIND_METRICS = (("ixp", "ixps"), ("dns_root", "dns_roots"), ("router", "routers"))


@dataclass(frozen=True)
class FailureScenario:
    """A named outage: explicit grid ids or a latitude threshold."""

    name: str
    mode: str
    failed: frozenset[str] = frozenset()
    threshold_deg: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"scenario {self.name!r}: unknown mode {self.mode!r}")
        if self.mode == "regional":
            if not self.failed:
                raise ValueError(f"scenario {self.name!r}: regional mode needs a non-empty failed set")
        else:
            if self.threshold_deg is None or not 0.0 < self.threshold_deg < 90.0:
                raise ValueError(f"scenario {self.name!r}: threshold_deg must lie in (0, 90)")


def scenario_from_dict(doc: Mapping) -> FailureScenario:
    try:
        return FailureScenario(
            name=_json_str(doc["name"], "name"),
            mode=_json_str(doc["mode"], "mode"),
            failed=frozenset(_json_str(w, "failed grid id") for w in _json_list(doc.get("failed", []), "failed")),
            threshold_deg=_json_number(doc["threshold_deg"], "threshold_deg") if "threshold_deg" in doc else None,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedDocument(f"bad scenario document: {exc}") from exc


def load_scenario(path) -> FailureScenario:
    return scenario_from_dict(_load_document(path))


def resolve_scenario(scenario: FailureScenario, registry: WasgRegistry) -> frozenset[str]:
    """The grid ids a scenario fails.

    Raises:
        UnknownWasg: regional mode naming an id absent from the registry.
    """
    if scenario.mode == "regional":
        for wasg_id in sorted(scenario.failed):
            if wasg_id not in registry:
                raise UnknownWasg(f"scenario {scenario.name!r} fails unknown grid {wasg_id!r}")
        return frozenset(scenario.failed)
    return frozenset(
        region.id
        for region in registry
        if region.boundary and band_overlap(region, scenario.threshold_deg)
    )


@dataclass
class MetricDetail:
    """One metric's numerator and both denominators (all vs zoned-only)."""

    unavailable: float
    total: float
    zoned_total: float

    @property
    def fraction(self) -> float:
        return self.unavailable / self.total if self.total else 0.0

    @property
    def fraction_zoned(self) -> float:
        return self.unavailable / self.zoned_total if self.zoned_total else 0.0


@dataclass
class UnavailabilityReport:
    """Unreachable fractions per metric under one resolved scenario.

    Primary fractions use the mapped+unmapped universe as denominator;
    ``details`` also carries the zoned-only denominator for each metric.
    """

    scenario: str
    failed_wasgs: tuple[str, ...]
    fractions: dict[str, float]
    details: dict[str, MetricDetail]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "failed_wasgs": list(self.failed_wasgs),
            "fractions": dict(sorted(self.fractions.items())),
            "details": {
                metric: {
                    "unavailable": d.unavailable,
                    "total": d.total,
                    "zoned_total": d.zoned_total,
                    "fraction": d.fraction,
                    "fraction_zoned": d.fraction_zoned,
                }
                for metric, d in sorted(self.details.items())
            },
        }


def unavailability(
    scenario: FailureScenario,
    registry: WasgRegistry,
    components: Sequence[InfraComponent] = (),
    tally: TopologyTally | None = None,
    stats: AggregateResult | None = None,
) -> UnavailabilityReport:
    """Evaluate a scenario over resolved components, a topology tally, and stats.

    Metrics appear only for the inputs supplied: a component kind needs
    a component of that kind (routers also count from the ``tally``),
    datacenter zones need a datacenter, the links metric needs a
    ``tally`` that counted at least one link, internet_users needs
    ``stats``.
    """
    failed = resolve_scenario(scenario, registry)
    details: dict[str, MetricDetail] = {}

    for kind, metric in _KIND_METRICS:
        per_zone = Counter(c.zone for c in components if c.kind == kind)
        if kind == "router" and tally is not None:
            per_zone.update(tally.routers)
            per_zone[None] += tally.routers_unzoned
        _check_zones(registry, per_zone)
        total = sum(per_zone.values())
        if total:
            unavailable = sum(n for zone, n in per_zone.items() if zone in failed)
            details[metric] = MetricDetail(unavailable=unavailable, total=total, zoned_total=total - per_zone[None])
    datacenters = [c for c in components if c.kind == "datacenter"]
    if datacenters:
        collapse = az_collapse(datacenters)
        _check_zones(registry, collapse.groups)
        details["datacenter_zones"] = MetricDetail(
            unavailable=sum(1 for zone in collapse.groups if zone in failed),
            total=collapse.zone_count,
            zoned_total=len(collapse.groups),
        )

    links_total = sum(tally.counts.values()) if tally is not None else 0
    if links_total:
        details["links"] = MetricDetail(
            unavailable=sum(c for (a, b), c in tally.pairs.items() if a in failed or b in failed)
            + sum(c for zone, c in tally.one_end.items() if zone in failed),
            total=links_total,
            zoned_total=tally.counts["both_mapped"] + tally.counts["one_mapped"],
        )

    if stats is not None:
        zoned_users = sum(t.internet_users for t in stats.per_wasg.values())
        details["internet_users"] = MetricDetail(
            unavailable=sum(stats.per_wasg[w].internet_users for w in failed if w in stats.per_wasg),
            total=stats.uncovered.internet_users + zoned_users,
            zoned_total=zoned_users,
        )

    return UnavailabilityReport(
        scenario=scenario.name,
        failed_wasgs=tuple(sorted(failed)),
        fractions={metric: d.fraction for metric, d in details.items()},
        details=details,
    )
