#!/usr/bin/env python3
"""Run the benchmark over many seeds and report medians and spreads.

    python3 bench/sweep.py --seeds 1-10 [--trace] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (seed, workload), interleaving the
workloads (seed 1 of each, then seed 2 of each, ...) so that slow drift
of the machine's speed spreads over all workloads alike.  For each
end-to-end metric it prints the median, the quartiles and the spread
(quartile distance over median) next to the bound in BENCHMARK.json.
``--trace`` adds one traced run per workload on the default seed, and
the ROADMAP item A probes (point-in-polygon cost per ring size, the
27 x 200 n=4 nearest solve) that have no workload of their own.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("itdk_links", "dense_grids", "resilience_sweep")


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["named"] = {
        parts[1]: float(parts[2]) for parts in (line.split() for line in lines) if parts[0] == "metric"
    }
    result["units"] = {parts[1]: parts[3] for parts in (line.split() for line in lines) if parts[0] == "metric"}
    result["ref_loop_ms"] = [float(v) for line in lines if line.startswith("context ref_loop_ms ") for v in line.split()[2:]]
    return result


def roadmap_probes() -> dict:
    """Point-in-polygon cost per ring size and the 27 x 200 n=4 solve, in-process."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import gen
    from netwattzap import GeoPoint, WasgRegion, placement, point_in_region

    rng = random.Random("roadmap-probes")
    world = gen.World(rng, complex_rings=False)
    out = {}
    g = world.grids[0]
    for k in (100, 1000, 5000):
        region = WasgRegion(id="P", name="P", abbrev="P", members=frozenset(), population=0,
                            internet_users=0, area_km2=1.0, boundary=((tuple(g.star(rng, k, *gen.R_SIMPLE)),),))
        points = [GeoPoint(*g.inside(rng)) for _ in range(400)]
        times = []
        for _ in range(5):  # fastest of five, as wall_s (see README, Machine drift)
            start = time.perf_counter()
            for p in points:
                point_in_region(p, region)
            times.append(time.perf_counter() - start)
        out[f"pip_us_per_point_{k}"] = min(times) * 1e6 / len(points)
    doc = gen._problem(rng, world, "min_weighted_nearest", 27, 200, 4)
    model = placement.build_ilp(placement.problem_from_dict(doc))
    start = time.perf_counter()
    sol = placement.solve(model, time_limit=120)
    out["nearest_27x200_n4_solve_s"] = time.perf_counter() - start
    out["nearest_27x200_n4_nodes"] = sol.nodes_explored
    return out


# ROADMAP item A's baselines, each next to the metric of this harness that
# measures the same quantity: (label, roadmap value, source, metric), where
# the source is the traced workload or "probe" (roadmap_probes above).
ROADMAP_A = (
    ("parse_topology us per line", 6.0, "itdk_links", "ingest.us_per_line"),
    ("zone resolution us per point, ~100-vertex rings", 18.0, "itdk_links", "overlap.resolve.us_per_point"),
    ("zone resolution us per point, 100 vertices", 18.0, "probe", "pip_us_per_point_100"),
    ("zone resolution us per point, 1k vertices", 173.0, "probe", "pip_us_per_point_1000"),
    ("zone resolution us per point, 5k vertices", 918.0, "probe", "pip_us_per_point_5000"),
    ("categorize_links us per link", 3.8, "itdk_links", "overlap.categorize_links.us_per_link"),
    ("bytes per IpLink (retained per kept link)", 200.0, "itdk_links", "ingest.bytes_per_link"),
    ("gomory_hu s per call, 43 nodes", 0.12, "resilience_sweep", "connectivity.gomory_hu.s_per_call"),
    ("flow_reduction s per call, 43 nodes", 0.27, "resilience_sweep", "connectivity.flow_reduction.s_per_call"),
    ("min_weighted_nearest 27 x 200, n=4 solve s", 3.0, "probe", "nearest_27x200_n4_solve_s"),
)


def compare_roadmap(traced: dict, probes: dict) -> list[dict]:
    """ROADMAP item A next to this harness; ``agrees`` is false beyond a factor of 2 either way."""
    rows = []
    for label, roadmap, source, metric in ROADMAP_A:
        value = probes[metric] if source == "probe" else traced[source][metric]
        ratio = value / roadmap
        rows.append({"baseline": label, "roadmap": roadmap, "measured": value, "source": source,
                     "metric": metric, "ratio": ratio, "agrees": 0.5 <= ratio <= 2.0})
    return rows


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in _seeds(args.seeds):
        for w in WORKLOADS:
            result = run(w, seed, bench["run_seconds"], False)
            runs[w].append(result)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()) + f" failed={result['failed']}", flush=True)

    summary: dict = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for w, results in runs.items():
        rows = {}
        for name, unit in results[0]["units"].items():
            values = [r["named"][name] for r in results if name in r["named"]]
            if len(values) < 2:
                print(f"{w} {name}: {values[0]:.5g} {unit}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{w} {name}: median {med:.5g} {unit} q1 {q1:.5g} q3 {q3:.5g} spread {spread:.3f}{flag}")
        refs = [v for r in results for v in r["ref_loop_ms"]]
        rows["context.ref_loop_ms"] = {"min": min(refs), "median": statistics.median(refs), "max": max(refs)}
        rows["failed"] = sum(r["failed"] for r in results)
        rows["attempted"] = sum(r["attempted"] for r in results)
        summary["workloads"][w] = rows

    if args.trace:
        summary["traced"] = {}
        for w in WORKLOADS:
            traced = run(w, 1, bench["run_seconds"], True)
            summary["traced"][w] = {k: v["value"] for k, v in traced["metrics"].items()}
            for name, metric in traced["metrics"].items():
                print(f"{w} traced {name}: {metric['value']:.5g} {metric['unit']}", flush=True)
        summary["roadmap_probes"] = roadmap_probes()
        print("roadmap probes: " + json.dumps(summary["roadmap_probes"]))
        summary["roadmap_a"] = compare_roadmap(summary["traced"], summary["roadmap_probes"])
        for row in summary["roadmap_a"]:
            print(f"roadmap A: {row['baseline']}: roadmap {row['roadmap']:.4g}, measured {row['measured']:.4g} "
                  f"({row['source']} {row['metric']}), ratio {row['ratio']:.2f}"
                  + ("" if row["agrees"] else "  DISAGREES"))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
