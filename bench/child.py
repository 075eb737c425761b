"""One benchmark repetition, run in a fresh process so peak memory is its own.

Usage: python3 bench/child.py SPEC.json

The spec names the workload, the generated input directory, the output
directory and the sweep chunk, and says whether to trace.  The
child times its set-up (import plus loading), then runs the workload's
operations one after another (closed loop), writes each operation's
report under the output directory and a ``result.json`` with timings,
digests and peak memory.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CHUNKS = 6
SOLVE_TIME_LIMIT_S = 60.0


def ref_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: machine-speed context only."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return sorted(times)[2]


def _cli_op(out: Path, name: str, argv: list[str]):
    """A CLI command writing ``<name>.json``; its payload is the file plus stdout."""
    from netwattzap import cli

    report = out / f"{name}.json"
    buf = io.StringIO()

    def run():
        with contextlib.redirect_stdout(buf):
            return cli.main(argv + ["--out", str(report)])

    def payload(rc):
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return report.read_bytes() + buf.getvalue().encode()

    return name, run, payload


def setup_itdk_links(nz, work: Path, out: Path, chunk: int):
    nz.load_registry(str(work / "wasg.geojson"))
    w = ["--wasg", str(work / "wasg.geojson")]
    topo = ["--nodes", str(work / "topo.nodes"), "--geo", str(work / "topo.geo"), "--links", str(work / "topo.links")]
    extra = ["--components", f"ixp={work / 'ixps.csv'}", "--stats", str(work / "stats.csv")]
    return [
        _cli_op(out, "overlap", ["overlap", *w, *topo, *extra]),
        _cli_op(out, "failure", ["failure", *w, *topo, *extra, "--scenario", str(work / "scenario_band.json")]),
        _cli_op(out, "connectivity", ["connectivity", *w, *topo, "--scenario", str(work / "scenario_two.json")]),
    ]


def setup_dense_grids(nz, work: Path, out: Path, chunk: int):
    nz.load_registry(str(work / "wasg.geojson"))
    w = ["--wasg", str(work / "wasg.geojson"), "--stats", str(work / "stats.csv")]
    comps = []
    for kind in ("ixp", "dns_root", "datacenter", "demand_point"):
        comps += ["--components", f"{kind}={work / (kind + '.csv')}"]
    return [
        _cli_op(out, "validate", ["validate", *w, *comps]),
        _cli_op(out, "overlap", ["overlap", *w, *comps, "--metric", "ixps", "--cumulative", "0.65"]),
        _cli_op(out, "failure", ["failure", *w, *comps, "--scenario", str(work / "scenario_band.json")]),
        _cli_op(out, "place", ["place", "--wasg", str(work / "wasg.geojson"), "--problem", str(work / "problem.json")]),
    ]


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def setup_resilience_sweep(nz, work: Path, out: Path, chunk: int):
    from netwattzap import failure, placement

    pairs = json.loads((work / "pairs.json").read_text())
    graph = nz.build_graph({(a, b): c for a, b, c in pairs})
    registry = nz.load_registry(str(work / "wasg.geojson"))
    stats = nz.aggregate_stats(registry, nz.parse_stats(str(work / "stats.csv")))
    components = [
        nz.InfraComponent(id=cid, kind=kind, geo=nz.GeoPoint(lat, lon), zone=zone,
                          attrs=(("az_count", az),) if az else ())
        for cid, kind, lat, lon, zone, az in json.loads((work / "components.json").read_text())
    ]
    scenarios = [failure.scenario_from_dict(d) for d in json.loads((work / "scenarios.json").read_text())]
    models = {
        path.stem[len("problem_"):]: placement.build_ilp(placement.load_problem(path))
        for path in sorted(work.glob("problem_*.json"))
    }

    def scenario_op(sc):
        def run():
            failed = nz.resolve_scenario(sc, registry)
            flow = nz.flow_reduction(graph, failed)
            return flow, nz.unavailability(sc, registry, components=components, stats=stats)

        return f"scenario:{sc.name}", run, lambda r: _json_bytes(
            {"flow": r[0].to_dict(), "unavailability": r[1].to_dict()})

    def solve_op(name):
        def payload(sol):
            if sol.proof != "optimal":
                raise RuntimeError(f"proof {sol.proof!r}")
            return _json_bytes(placement.solution_to_dict(sol))

        return f"solve:{name}", lambda: placement.solve(models[name], time_limit=SOLVE_TIME_LIMIT_S), payload

    return [scenario_op(sc) for sc in scenarios[chunk::SWEEP_CHUNKS]] + [solve_op(n) for n in sorted(models)]


SETUPS = {
    "itdk_links": setup_itdk_links,
    "dense_grids": setup_dense_grids,
    "resilience_sweep": setup_resilience_sweep,
}


def probe_bytes_per_link(work: Path) -> float:
    """Retained bytes per kept link after parse_topology, nodes dropped."""
    from netwattzap import parse_topology

    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    topo = parse_topology(str(work / "topo.nodes"), str(work / "topo.geo"), str(work / "topo.links"))
    topo.nodes = []
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return retained / len(topo.links)


def main() -> None:
    spec = json.loads(Path(sys.argv[1]).read_text())
    work, out = Path(spec["work"]), Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import netwattzap as nz
    import netwattzap.cli  # noqa: F401  (the CLI is a layer; import it before tracing)

    if spec.get("probe"):
        (out / "result.json").write_text(json.dumps({"bytes_per_link": probe_bytes_per_link(work)}))
        return
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(ROOT / "bench"))
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    with tracer.span("setup") if tracer is not None else contextlib.nullcontext():
        ops = SETUPS[spec["workload"]](nz, work, out, spec["chunk"])
    setup_s = time.perf_counter() - start
    ref_ms = ref_loop_ms()

    results = []
    for name, run, payload in ops:
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    value = run()
            else:
                value = run()
            error = None
        except Exception as exc:  # an operation that raises counts as failed; keep going
            value, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        digest = None
        if error is None:
            try:
                data = payload(value)
                digest = hashlib.sha256(data).hexdigest()
                (out / (name.replace(":", "_") + ".out")).write_bytes(data)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "s": elapsed, "digest": digest, "error": error})

    wall_s = sum(r["s"] for r in results)
    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ops": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_loop_ms": ref_ms,
        "trace": tracer.metrics(wall_s) if tracer is not None else None,
    }
    (out / "result.json").write_text(json.dumps(doc))


if __name__ == "__main__":
    main()
