"""Command-line front end: validate, overlap, failure, connectivity, place.

``COMMANDS`` is the one table of what each command takes: the report
formats it writes, its flags besides ``--out`` and ``--format``, and the
flags it requires. A flag the command does not take is an argparse usage
error (exit 2); a flag without the flag it needs (``_NEEDS``) is an error line.
Every report writer sorts keys and emits a trailing newline so that
identical inputs and flags produce byte-identical outputs. A
``NetWattZapError``, ``OSError``, ``ValueError`` or ``MemoryError``
prints a single machine-parsable ``error: <Type>: <message>`` line on
stderr and exits 2; any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import connectivity as conn
from . import failure as failure_mod
from . import overlap as overlap_mod
from .errors import NetWattZapError
from .grid_model import aggregate_stats, load_registry, registry_to_geojson
from .ingest import COMPONENT_KINDS, parse_components, parse_stats, parse_topology
from .placement import load_problem, resolve_candidate_zones, solution_to_dict, solve_problem

# Each flag's argparse definition; ``COMMANDS`` picks the flags of each command.
_FLAGS = {
    "wasg": dict(metavar="PATH", help="grid registry GeoJSON"),
    "stats": dict(metavar="PATH", help="statistics CSV"),
    "components": dict(metavar="KIND=PATH", action="append", default=[], help="component CSV for one kind; repeatable"),
    "nodes": dict(metavar="PATH", help="topology nodes file"),
    "geo": dict(metavar="PATH", help="topology geolocation file"),
    "links": dict(metavar="PATH", help="topology links file"),
    "strict": dict(action="store_true"),
    "scenario": dict(metavar="PATH", help="failure scenario JSON"),
    "problem": dict(metavar="PATH", help="placement problem JSON"),
    "seed": dict(type=int, default=0, help="seed for sampled checks"),
    "time-limit": dict(type=float, default=60.0, metavar="SECS"),
    "metric": dict(help="ranking metric for --cumulative"),
    "cumulative": dict(type=float, metavar="FRACTION", help="print smallest k reaching the fraction"),
    "out": dict(metavar="PATH", help="output file (default: stdout)"),
    "format": dict(default="json"),
}

# (flag, flag it needs): the first is read only together with the second.
_NEEDS = (("geo", "nodes"), ("links", "nodes"), ("metric", "cumulative"), ("cumulative", "metric"))

# Plural spellings accepted for --metric.
_METRIC_ALIASES = {
    "ixps": "ixp",
    "routers": "router",
    "dns_roots": "dns_root",
    "datacenters": "datacenter",
    "demand_points": "demand_point",
}


class Command(NamedTuple):
    handler: Callable[[argparse.Namespace], int]
    help: str
    formats: str  # space-separated names, as are flags and required
    flags: str
    required: str = ""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netwattzap",
        description="Power-grid failure zones for Internet infrastructure: "
        "overlap analysis, outage impact, connectivity loss, and resilient placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=f"{command.help} (formats: {command.formats})")
        for flag in (*command.flags.split(), "out", "format"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        if args.format not in command.formats.split():
            raise ValueError(f"format {args.format!r} not supported by {args.command!r}")
        given = {flag for flag, value in vars(args).items() if value not in (None, "")}
        missing = [f"--{flag}" for flag in command.required.split() if flag not in given]
        if missing:
            raise ValueError(f"{args.command} requires {', '.join(missing)}")
        for flag, needed in _NEEDS:
            if flag in given and needed not in given:
                raise ValueError(f"--{flag} requires --{needed}")
        return command.handler(args)
    except (NetWattZapError, OSError, ValueError, MemoryError) as exc:
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
    _emit(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def _emit_csv(rows, out: str | None) -> None:
    """Rows as CSV lines ending in a newline; a field with a comma, quote or newline is quoted."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    _emit(text.getvalue(), out)


def _parse_component_specs(specs: list[str]) -> list[tuple[str, str]]:
    pairs = []
    for spec in specs:
        kind, sep, path = spec.partition("=")
        if not sep or kind not in COMPONENT_KINDS:
            raise ValueError(f"--components expects KIND=PATH with kind in {COMPONENT_KINDS}, got {spec!r}")
        pairs.append((kind, path))
    return pairs


def _load_topology(args, registry):
    """Parse the topology and count its routers and links per grid."""
    topo = parse_topology(args.nodes, args.geo, args.links, strict=args.strict)
    return overlap_mod.tally_topology(topo, registry)


def _load_inputs(args, registry):
    """Parse and resolve the components, topology and statistics; (components, tally or None, stats or None)."""
    components = []
    for kind, path in _parse_component_specs(args.components):
        components.extend(parse_components(path, kind=kind).components)
    resolved = overlap_mod.resolve_components(components, registry)
    tally = _load_topology(args, registry) if args.nodes else None
    stats = aggregate_stats(registry, parse_stats(args.stats), strict=args.strict) if args.stats else None
    return resolved, tally, stats


def cmd_validate(args) -> int:
    violations: list[str] = []
    warnings: list[str] = []

    def check(load, where: str = ""):
        """``load()``, or None with its error recorded as a violation."""
        try:
            return load()
        except (NetWattZapError, OSError, ValueError) as exc:
            violations.append(f"{type(exc).__name__}: {where}{exc}")
            return None

    registry = check(lambda: load_registry(args.wasg)) if args.wasg else None
    if registry is not None:
        warnings.extend(overlap_mod.sample_polygon_overlap(registry, seed=args.seed).warnings)

    records = check(lambda: parse_stats(args.stats)) if args.stats else None
    if records is not None and registry is not None:
        agg = aggregate_stats(registry, records, strict=False)
        if agg.missing_codes:
            warnings.append(f"member codes without statistics: {', '.join(agg.missing_codes)}")

    for kind, path in check(lambda: _parse_component_specs(args.components)) or []:
        parsed = check(lambda: parse_components(path, kind=kind), where=f"{path}: ")
        for rowno, reason in parsed.skipped if parsed else []:
            warnings.append(f"{path}: row {rowno} skipped ({reason})")

    if args.nodes:
        topo = check(lambda: parse_topology(args.nodes, args.geo, args.links, strict=args.strict))
        if topo is not None and topo.report.dangling_links:
            warnings.append(f"{topo.report.dangling_links} links reference undefined nodes")

    if args.scenario:
        scenario = check(lambda: failure_mod.load_scenario(args.scenario))
        if scenario is not None and registry is not None:
            check(lambda: failure_mod.resolve_scenario(scenario, registry))

    if args.problem:
        check(lambda: load_problem(args.problem))

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


def _overlap_report_rows(report) -> list[tuple]:
    rows = [("table", "a", "b", "value")]
    rows += [("link_categories", category, "", count) for category, count in sorted(report.link_categories.items())]
    rows += [("pair_counts", a, b, count) for (a, b), count in sorted(report.pair_counts.items())]
    rows += [("one_end_counts", wasg, "", count) for wasg, count in sorted(report.one_end_counts.items())]
    for wasg in sorted(report.per_wasg):
        rows += [("per_wasg", wasg, metric, value) for metric, value in sorted(report.per_wasg[wasg].items())]
    return rows


def cmd_overlap(args) -> int:
    registry = load_registry(args.wasg)
    components, tally, stats = _load_inputs(args, registry)
    report = overlap_mod.distribution_report(components, registry, stats=stats, tally=tally)
    if args.cumulative is not None:  # checked before any output is written
        metric = _METRIC_ALIASES.get(args.metric, args.metric)
        if metric not in report.rankings:
            raise ValueError(f"unknown metric {args.metric!r}; have {sorted(report.rankings)}")
        k = overlap_mod.smallest_k(report, metric, args.cumulative)
    if args.format == "csv":
        _emit_csv(_overlap_report_rows(report), args.out)
    else:
        _emit_json(_overlap_report_dict(report), args.out)
    if args.cumulative is not None:
        print(f"smallest k with cumulative {args.metric} >= {args.cumulative}: {k}")
    return 0


def cmd_failure(args) -> int:
    registry = load_registry(args.wasg)
    scenario = failure_mod.load_scenario(args.scenario)
    components, tally, stats = _load_inputs(args, registry)
    report = failure_mod.unavailability(scenario, registry, components=components, tally=tally, stats=stats)
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
    registry = load_registry(args.wasg)
    scenario = failure_mod.load_scenario(args.scenario)
    tally = _load_topology(args, registry)
    graph = conn.build_graph(tally.pairs)
    failed = failure_mod.resolve_scenario(scenario, registry)
    report = conn.flow_reduction(graph, failed)
    if args.format == "csv":
        header = [("u", "v", "flow_before", "flow_after", "reduction")]
        _emit_csv(header + [(p.u, p.v, p.flow_before, p.flow_after, p.reduction) for p in report.pairs], args.out)
    else:
        doc = report.to_dict()
        doc["scenario"] = scenario.name
        _emit_json(doc, args.out)
    return 0


def cmd_place(args) -> int:
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


COMMANDS = {
    "validate": Command(cmd_validate, "load datasets and check every invariant", "json",
                        "wasg stats components nodes geo links strict scenario problem seed"),
    "overlap": Command(cmd_overlap, "per-grid component/user distribution report", "json csv",
                       "wasg stats components nodes geo links strict metric cumulative", required="wasg"),
    "failure": Command(cmd_failure, "unavailability under a failure scenario", "json geojson",
                       "wasg stats components nodes geo links strict scenario", required="wasg scenario"),
    "connectivity": Command(cmd_connectivity, "max-flow reduction on the grid graph under a scenario", "json csv",
                            "wasg nodes geo links strict scenario", required="wasg nodes geo links scenario"),
    "place": Command(cmd_place, "solve a grid-resilient placement problem", "json geojson",
                     "wasg problem time-limit", required="problem"),
}


if __name__ == "__main__":
    entrypoint()
