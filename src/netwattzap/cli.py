"""Command-line front end: validate, overlap, failure, connectivity, place.

Every report writer sorts keys and emits a trailing newline so that
identical inputs and flags produce byte-identical outputs. All failure
paths print a single machine-parsable ``error: <Type>: <message>`` line
on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import connectivity as conn
from . import failure as failure_mod
from . import overlap as overlap_mod
from .errors import NetWattZapError
from .grid_model import aggregate_stats, load_registry, registry_to_geojson
from .ingest import COMPONENT_KINDS, parse_components, parse_stats, parse_topology
from .placement import load_problem, resolve_candidate_zones, solution_to_dict, solve_problem

FORMATS_BY_COMMAND = {
    "validate": {"json"},
    "overlap": {"json", "csv"},
    "failure": {"json", "geojson"},
    "connectivity": {"json", "csv"},
    "place": {"json", "geojson"},
}

# Plural spellings accepted for --metric.
_METRIC_ALIASES = {
    "ixps": "ixp",
    "routers": "router",
    "dns_roots": "dns_root",
    "datacenters": "datacenter",
    "demand_points": "demand_point",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netwattzap",
        description="Power-grid failure zones for Internet infrastructure: "
        "overlap analysis, outage impact, connectivity loss, and resilient placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "load datasets and check every invariant"),
        ("overlap", "per-grid component/user distribution report"),
        ("failure", "unavailability under a failure scenario"),
        ("connectivity", "max-flow reduction on the grid graph under a scenario"),
        ("place", "solve a grid-resilient placement problem"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--wasg", metavar="PATH", help="grid registry GeoJSON")
        p.add_argument("--stats", metavar="PATH", help="statistics CSV")
        p.add_argument(
            "--components",
            metavar="KIND=PATH",
            action="append",
            default=[],
            help="component CSV for one kind; repeatable",
        )
        p.add_argument("--nodes", metavar="PATH", help="topology nodes file")
        p.add_argument("--geo", metavar="PATH", help="topology geolocation file")
        p.add_argument("--links", metavar="PATH", help="topology links file")
        p.add_argument("--scenario", metavar="PATH", help="failure scenario JSON")
        p.add_argument("--problem", metavar="PATH", help="placement problem JSON")
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv", "geojson"])
        p.add_argument("--strict", action="store_true")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--time-limit", type=float, default=60.0, metavar="SECS")
    sub.choices["overlap"].add_argument("--metric", help="ranking metric for --cumulative")
    sub.choices["overlap"].add_argument(
        "--cumulative", type=float, metavar="FRACTION", help="print smallest k reaching the fraction"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "validate": cmd_validate,
        "overlap": cmd_overlap,
        "failure": cmd_failure,
        "connectivity": cmd_connectivity,
        "place": cmd_place,
    }[args.command]
    if args.format not in FORMATS_BY_COMMAND[args.command]:
        print(
            f"error: ValueError: format {args.format!r} not supported by {args.command!r}",
            file=sys.stderr,
        )
        return 2
    try:
        return handler(args)
    except NetWattZapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: str | None) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out)


def _parse_component_specs(specs: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for spec in specs:
        kind, sep, path = spec.partition("=")
        if not sep or kind not in COMPONENT_KINDS:
            raise ValueError(f"--components expects KIND=PATH with kind in {COMPONENT_KINDS}, got {spec!r}")
        pairs.append((kind, path))
    return pairs


def _require(args, *names: str) -> None:
    missing = [f"--{n}" for n in names if not getattr(args, n)]
    if missing:
        raise ValueError(f"{args.command} requires {', '.join(missing)}")


def _load_topology(args, registry):
    """Parse the topology, resolve each router once, and tally its links.

    Returns (nodes, router zones, link tally).
    """
    topo = parse_topology(args.nodes, args.geo, args.links, strict=args.strict)
    zones = overlap_mod.resolve_router_zones(topo.nodes, registry)
    return topo.nodes, zones, overlap_mod.categorize_links(topo.links, zones)


def _load_components(args, registry):
    """Parse, resolve, and pool all component inputs; returns (components, link tally)."""
    components = []
    for kind, path in _parse_component_specs(args.components):
        components.extend(parse_components(path, kind=kind).components)
    resolved = overlap_mod.resolve_components(components, registry)
    tally = None
    if args.nodes:
        nodes, zones, tally = _load_topology(args, registry)
        resolved.extend(overlap_mod.components_from_router_nodes(nodes, zones))
    return resolved, tally


def cmd_validate(args) -> int:
    violations: list[str] = []
    warnings: list[str] = []
    registry = None

    if args.wasg:
        try:
            registry = load_registry(args.wasg)
        except NetWattZapError as exc:
            violations.append(f"{type(exc).__name__}: {exc}")
        if registry is not None:
            sample = overlap_mod.sample_polygon_overlap(registry, seed=args.seed)
            warnings.extend(sample.warnings)

    records = None
    if args.stats:
        try:
            records = parse_stats(args.stats)
        except NetWattZapError as exc:
            violations.append(f"{type(exc).__name__}: {exc}")
        if records is not None and registry is not None:
            agg = aggregate_stats(registry, records, strict=False)
            if agg.missing_codes:
                warnings.append(f"member codes without statistics: {', '.join(agg.missing_codes)}")

    try:
        specs = _parse_component_specs(args.components)
    except ValueError as exc:
        violations.append(f"ValueError: {exc}")
        specs = []
    for kind, path in specs:
        try:
            parsed = parse_components(path, kind=kind)
        except (NetWattZapError, OSError) as exc:
            violations.append(f"{type(exc).__name__}: {path}: {exc}")
            continue
        for rowno, reason in parsed.skipped:
            warnings.append(f"{path}: row {rowno} skipped ({reason})")

    if args.nodes:
        try:
            topo = parse_topology(args.nodes, args.geo, args.links, strict=args.strict)
            if topo.report.dangling_links:
                warnings.append(f"{topo.report.dangling_links} links reference undefined nodes")
        except (NetWattZapError, OSError) as exc:
            violations.append(f"{type(exc).__name__}: {exc}")

    if args.scenario:
        try:
            scenario = failure_mod.load_scenario(args.scenario)
            if registry is not None:
                failure_mod.resolve_scenario(scenario, registry)
        except (NetWattZapError, ValueError) as exc:
            violations.append(f"{type(exc).__name__}: {exc}")

    if args.problem:
        try:
            load_problem(args.problem)
        except NetWattZapError as exc:
            violations.append(f"{type(exc).__name__}: {exc}")

    report = {
        "violations": sorted(violations),
        "warnings": sorted(warnings),
        "status": "violations" if violations else ("warnings" if warnings else "clean"),
    }
    _emit_json(report, args.out)
    return 2 if violations else (1 if warnings else 0)


def _overlap_report_dict(report) -> dict:
    coverage = {}
    for kind in list(COMPONENT_KINDS) + ["components"]:
        zoned = sum(metrics.get(kind, 0) for metrics in report.per_wasg.values())
        total = zoned + report.uncovered.get(kind, 0)
        if total:
            coverage[kind] = {"zoned": zoned, "total": total}
    return {
        "per_wasg": report.per_wasg,
        "uncovered": report.uncovered,
        "coverage": coverage,
        "link_categories": report.link_categories,
        "pair_counts": {f"{a}|{b}": count for (a, b), count in sorted(report.pair_counts.items())},
        "one_end_counts": dict(sorted(report.one_end_counts.items())),
        "rankings": {
            metric: [
                {"wasg": e.wasg_id, "value": e.value, "cumulative_fraction": e.cumulative_fraction}
                for e in entries
            ]
            for metric, entries in report.rankings.items()
        },
    }


def _overlap_report_csv(report) -> str:
    lines = ["table,a,b,value"]
    for category, count in sorted(report.link_categories.items()):
        lines.append(f"link_categories,{category},,{count}")
    for (a, b), count in sorted(report.pair_counts.items()):
        lines.append(f"pair_counts,{a},{b},{count}")
    for wasg, count in sorted(report.one_end_counts.items()):
        lines.append(f"one_end_counts,{wasg},,{count}")
    for wasg in sorted(report.per_wasg):
        for metric, value in sorted(report.per_wasg[wasg].items()):
            lines.append(f"per_wasg,{wasg},{metric},{value}")
    return "\n".join(lines) + "\n"


def cmd_overlap(args) -> int:
    _require(args, "wasg")
    registry = load_registry(args.wasg)
    components, tally = _load_components(args, registry)
    agg = None
    if args.stats:
        agg = aggregate_stats(registry, parse_stats(args.stats), strict=args.strict)
    report = overlap_mod.distribution_report(components, registry, stats=agg, tally=tally)
    if args.format == "csv":
        _emit(_overlap_report_csv(report), args.out)
    else:
        _emit_json(_overlap_report_dict(report), args.out)
    if args.cumulative is not None:
        if not args.metric:
            raise ValueError("--cumulative requires --metric")
        metric = _METRIC_ALIASES.get(args.metric, args.metric)
        if metric not in report.rankings:
            raise ValueError(f"unknown metric {args.metric!r}; have {sorted(report.rankings)}")
        k = overlap_mod.smallest_k(report, metric, args.cumulative)
        print(f"smallest k with cumulative {args.metric} >= {args.cumulative}: {k}")
    return 0


def cmd_failure(args) -> int:
    _require(args, "wasg", "scenario")
    registry = load_registry(args.wasg)
    scenario = failure_mod.load_scenario(args.scenario)
    components, tally = _load_components(args, registry)
    agg = None
    if args.stats:
        agg = aggregate_stats(registry, parse_stats(args.stats), strict=args.strict)
    report = failure_mod.unavailability(
        scenario, registry, components=components, tally=tally, stats=agg
    )
    if args.format == "geojson":
        failed_features = [
            feature
            for feature in registry_to_geojson(registry)["features"]
            if feature["properties"]["id"] in report.failed_wasgs
        ]
        _emit_json({"type": "FeatureCollection", "features": failed_features}, args.out)
    else:
        _emit_json(report.to_dict(), args.out)
    return 0


def cmd_connectivity(args) -> int:
    _require(args, "wasg", "nodes", "geo", "links", "scenario")
    registry = load_registry(args.wasg)
    scenario = failure_mod.load_scenario(args.scenario)
    _nodes, _zones, tally = _load_topology(args, registry)
    graph = conn.build_graph(tally.pairs)
    failed = failure_mod.resolve_scenario(scenario, registry)
    report = conn.flow_reduction(graph, failed)
    if args.format == "csv":
        lines = ["u,v,flow_before,flow_after,reduction"]
        lines.extend(
            f"{p.u},{p.v},{p.flow_before},{p.flow_after},{p.reduction!r}" for p in report.pairs
        )
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = report.to_dict()
        doc["scenario"] = scenario.name
        _emit_json(doc, args.out)
    return 0


def cmd_place(args) -> int:
    _require(args, "problem")
    problem = load_problem(args.problem)
    if args.wasg:
        problem = resolve_candidate_zones(problem, load_registry(args.wasg))
    solution = solve_problem(problem, time_limit=args.time_limit)
    if args.format == "geojson":
        by_id = {c.id: c for c in problem.candidates}
        features = [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [by_id[cid].geo.lon, by_id[cid].geo.lat]},
                "properties": {"id": cid, "zone": by_id[cid].zone},
            }
            for cid in solution.chosen
        ]
        _emit_json({"type": "FeatureCollection", "features": features}, args.out)
    else:
        _emit_json(solution_to_dict(solution), args.out)
    return 0


if __name__ == "__main__":
    entrypoint()
