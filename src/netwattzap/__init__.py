"""Power-grid failure zones for Internet infrastructure.

Models wide-area synchronous grids as shared failure zones, maps
Internet infrastructure components onto them, quantifies unavailability
and connectivity loss under grid outages, and solves grid-resilient
placement problems exactly.
"""

from .connectivity import (
    FlowReductionReport,
    GomoryHuTree,
    WasgGraph,
    build_graph,
    flow_reduction,
    gomory_hu,
    max_flow,
    min_cut,
)
from .errors import NetWattZapError
from .failure import FailureScenario, UnavailabilityReport, resolve_scenario, unavailability
from .geo import GeoPoint, band_overlap, haversine_km, latency_ms, point_in_region
from .grid_model import (
    AdminStatRecord,
    AggregateResult,
    WasgRegion,
    WasgRegistry,
    aggregate_stats,
    load_registry,
    registry_to_geojson,
)
from .ingest import (
    InfraComponent,
    parse_components,
    parse_stats,
    parse_topology,
)
from .overlap import (
    OverlapReport,
    az_collapse,
    categorize_links,
    distribution_report,
    resolve_components,
    smallest_k,
)
from .placement import (
    Candidate,
    DemandPoint,
    LocationRule,
    PlacementProblem,
    PlacementSolution,
    SelectCount,
    build_ilp,
    check_feasible,
    solve,
    solve_problem,
)

__version__ = "0.1.0"

__all__ = [
    "AdminStatRecord",
    "AggregateResult",
    "Candidate",
    "DemandPoint",
    "FailureScenario",
    "FlowReductionReport",
    "GeoPoint",
    "GomoryHuTree",
    "InfraComponent",
    "LocationRule",
    "NetWattZapError",
    "OverlapReport",
    "PlacementProblem",
    "PlacementSolution",
    "SelectCount",
    "UnavailabilityReport",
    "WasgGraph",
    "WasgRegion",
    "WasgRegistry",
    "aggregate_stats",
    "az_collapse",
    "band_overlap",
    "build_graph",
    "build_ilp",
    "categorize_links",
    "check_feasible",
    "distribution_report",
    "flow_reduction",
    "gomory_hu",
    "haversine_km",
    "latency_ms",
    "load_registry",
    "max_flow",
    "min_cut",
    "parse_components",
    "parse_stats",
    "parse_topology",
    "point_in_region",
    "registry_to_geojson",
    "resolve_components",
    "resolve_scenario",
    "smallest_k",
    "solve",
    "solve_problem",
    "unavailability",
]
