"""Failure scenarios and the unavailability they cause.

A scenario fails whole grids: either an explicit set (regional outages
from weather or targeted attacks) or every grid reaching poleward of a
latitude threshold (solar-storm model). Components in no grid are never
failed - their grid exposure is unknown. Every metric, data-center zones
included, reads the per-grid table of ``overlap`` (components, a tally's
routers and statistics, each counted once) or the tally. A link is
unavailable as soon as either mapped endpoint sits in a failed grid, so
the unavailable links are the tally's grid pairs and one-end counts
touching a failed grid; links with both ends unmapped survive every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import MalformedDocument, UnknownWasg
from .geo import band_overlap
from .grid_model import AggregateResult, WasgRegistry, _json_list, _json_number, _json_str, _load_document
from .ingest import InfraComponent
from .overlap import METRIC_NAMES, TopologyTally, _column_totals, _grid_table

MODES = ("regional", "latitude_band")


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

    The ixp, dns_root, router and internet_users metrics, named as in
    ``overlap.METRIC_NAMES``, sum a column of the per-grid table ``overlap``
    ranks: over the failed grids (unavailable), over every grid (zoned total),
    and with the remainder outside every grid (total). datacenter_zones
    counts zones off the datacenter column as ``overlap.az_collapse`` does:
    one per grid with a data center, one per data center in no grid.
    Metrics appear only for the inputs supplied: a component kind needs a
    component of that kind (routers also count from the ``tally``), datacenter
    zones need a datacenter, the links metric needs a ``tally`` that counted at
    least one link, internet_users needs ``stats``. Raises ``UnknownWasg`` for a
    failed grid, then the smallest counted zone, that the registry lacks.
    """
    failed = resolve_scenario(scenario, registry)
    per_wasg, uncovered, tally = _grid_table(components, registry, stats, tally)
    details: dict[str, MetricDetail] = {}

    for column in ("ixp", "dns_root", "router", "internet_users"):
        if column not in uncovered:  # statistics not given
            continue
        zoned_total, total = _column_totals(per_wasg, uncovered, column)
        if total or column == "internet_users":
            unavailable = sum(per_wasg[wasg_id][column] for wasg_id in failed)
            metric = METRIC_NAMES.get(column, column)
            details[metric] = MetricDetail(unavailable=unavailable, total=total, zoned_total=zoned_total)

    zones = {wasg_id for wasg_id, metrics in per_wasg.items() if metrics["datacenter"]}
    if zones or uncovered["datacenter"]:
        details["datacenter_zones"] = MetricDetail(
            unavailable=len(zones & failed), total=len(zones) + uncovered["datacenter"], zoned_total=len(zones)
        )

    links_total = sum(tally.counts.values())
    if links_total:
        details["links"] = MetricDetail(
            unavailable=sum(c for (a, b), c in tally.pairs.items() if a in failed or b in failed)
            + sum(c for zone, c in tally.one_end.items() if zone in failed),
            total=links_total,
            zoned_total=tally.counts["both_mapped"] + tally.counts["one_mapped"],
        )

    return UnavailabilityReport(
        scenario=scenario.name,
        failed_wasgs=tuple(sorted(failed)),
        fractions={metric: d.fraction for metric, d in details.items()},
        details=details,
    )
