"""Correctness checks on one repetition's reports, run outside the timed region.

``JUDGES[workload](truth, inputs, nz)`` returns a judge
``(operation name, output dir) -> [problem, ...]``; an operation with
problems counts as failed.  The truths come from the generators, flow
values from networkx's Gomory-Hu tree, and placement optima from
exhaustive enumeration with numpy; none of them calls the program except
``parse_topology``, whose CleaningReport is reconciled with the counts
the generator wrote.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import networkx as nx
import numpy as np

EARTH_RADIUS_KM = 6371.0088
FIBER_KM_PER_S = 200_000.0


def _close(a, b, rel=1e-9) -> bool:
    return a is not None and abs(a - b) <= rel * max(1.0, abs(b))


def _load(out: Path, name: str):
    return json.loads((out / f"{name}.json").read_text())


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {str(got)[:120]}, want {str(want)[:120]}")


# -- flows -------------------------------------------------------------------

def _tree_flows(graph: nx.Graph) -> dict:
    """All-pairs max-flow values from networkx Gomory-Hu trees per component."""
    flows = {}
    for comp in nx.connected_components(graph):
        if len(comp) < 2:
            continue
        tree = nx.gomory_hu_tree(graph.subgraph(comp))
        for s in comp:
            best = {s: math.inf}
            stack = [s]
            while stack:
                u = stack.pop()
                for v, data in tree[u].items():
                    if v not in best:
                        best[v] = min(best[u], data["weight"])
                        stack.append(v)
            for t, value in best.items():
                if s < t:
                    flows[(s, t)] = value
    return flows


class FlowOracle:
    def __init__(self, pair_counts: dict):
        self.graph = nx.Graph()
        for (a, b), count in pair_counts.items():
            if a != b and count > 0:
                self.graph.add_edge(a, b, capacity=count)
        self.before = _tree_flows(self.graph)

    def check(self, doc: dict, failed: list[str]) -> list[str]:
        problems: list[str] = []
        _expect(problems, "failed", doc["failed"], sorted(set(failed) & set(self.graph.nodes)))
        after = _tree_flows(self.graph.subgraph(set(self.graph.nodes) - set(failed)).copy())
        surviving = sorted(set(self.graph.nodes) - set(failed))
        want, total = [], 0.0
        for i, u in enumerate(surviving):
            for v in surviving[i + 1:]:
                before = self.before.get((u, v), 0)
                if before:
                    flow_after = after.get((u, v), 0)
                    reduction = min(1.0, max(0.0, (before - flow_after) / before))
                    want.append((u, v, before, flow_after))
                    total += reduction
        got = [(p["u"], p["v"], p["flow_before"], p["flow_after"]) for p in doc["pairs"]]
        _expect(problems, "flow pairs", got, want)
        if not _close(doc["mean_reduction"], total / len(want) if want else 0.0):
            problems.append(f"mean_reduction {doc['mean_reduction']} != {total / len(want)}")
        return problems


# -- itdk_links --------------------------------------------------------------

def _by_zone(zone_map: dict, failed=()) -> tuple[dict, int, int]:
    """(count per zone, count with no zone, count in failed zones)."""
    per: dict = {}
    for zone in zone_map.values():
        per[zone] = per.get(zone, 0) + 1
    unzoned = per.pop(None, 0)
    return per, unzoned, sum(per.get(z, 0) for z in failed)


def _check_per_wasg(problems, report, kind, zone_map, grids):
    per, unzoned, _ = _by_zone(zone_map)
    got = {g: report["per_wasg"][g][kind] for g in grids}
    _expect(problems, f"{kind} per grid", got, {g: per.get(g, 0) for g in grids})
    _expect(problems, f"{kind} unzoned", report["uncovered"][kind], unzoned)


def itdk_links(truth: dict, work: Path, nz):
    topo = nz.parse_topology(str(work / "topo.nodes"), str(work / "topo.geo"), str(work / "topo.links"))
    ingest: list[str] = []
    for field, want in truth["report"].items():
        _expect(ingest, f"CleaningReport.{field}", getattr(topo.report, field), want)
    _expect(ingest, "kept links", len(topo.links), topo.report.kept_links)
    _expect(ingest, "category total vs CleaningReport", sum(truth["categories"].values()), topo.report.kept_links)

    def overlap(out: Path) -> list[str]:
        problems = list(ingest)
        report = _load(out, "overlap")
        _expect(problems, "link categories", report["link_categories"], truth["categories"])
        _expect(problems, "pair counts", report["pair_counts"], dict(sorted(truth["pairs"].items())))
        _expect(problems, "one-end counts", report["one_end_counts"], dict(sorted(truth["one_end"].items())))
        _check_per_wasg(problems, report, "router", truth["router_zone"], truth["grids"])
        _check_per_wasg(problems, report, "ixp", truth["ixp_zone"], truth["grids"])
        return problems

    def failure(out: Path) -> list[str]:
        problems = list(ingest)
        report = _load(out, "failure")
        failed = truth["band_failed"]
        _expect(problems, "failed grids", report["failed_wasgs"], failed)
        for metric, zone_map in (("routers", truth["router_zone"]), ("ixps", truth["ixp_zone"])):
            _, _, down = _by_zone(zone_map, failed)
            _expect(problems, f"{metric} unavailable", report["details"][metric]["unavailable"], down)
            _expect(problems, f"{metric} total", report["details"][metric]["total"], len(zone_map))
        down = sum(c for key, c in truth["pairs"].items() if set(key.split("|")) & set(failed))
        down += sum(c for z, c in truth["one_end"].items() if z in failed)
        _expect(problems, "links unavailable", report["details"]["links"]["unavailable"], down)
        _expect(problems, "links total", report["details"]["links"]["total"], topo.report.kept_links)
        return problems

    def connectivity(out: Path) -> list[str]:
        pairs = {tuple(k.split("|")): c for k, c in truth["pairs"].items()}
        return ingest + FlowOracle(pairs).check(_load(out, "connectivity"), truth["failed_two"])

    ops = {"overlap": overlap, "failure": failure, "connectivity": connectivity}
    return lambda name, out: ops[name](out)


# -- dense_grids -------------------------------------------------------------

def _haversine_km(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    h = np.sin((p2 - p1) / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _feasible_combos(zones: list, n: int, allowed=None) -> np.ndarray:
    """All n-subsets (rows of indices) with pairwise-distinct zones (zone cap 1)."""
    keep = [i for i in range(len(zones)) if allowed is None or allowed[i]]
    combos = np.array(list(itertools.combinations(keep, n)), dtype=np.int64)
    ids: dict = {}
    key = np.array([ids.setdefault(z if z is not None else ("~solo", i), len(ids)) for i, z in enumerate(zones)])
    ok = np.ones(len(combos), dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            ok &= key[combos[:, a]] != key[combos[:, b]]
    return combos[ok]


def _nearest_optimum(doc: dict, zones: list) -> float:
    cands, dems = doc["candidates"], doc["demands"]
    lat = _haversine_km(
        np.array([d["lat"] for d in dems])[:, None], np.array([d["lon"] for d in dems])[:, None],
        np.array([c["lat"] for c in cands])[None, :], np.array([c["lon"] for c in cands])[None, :],
    ) / FIBER_KM_PER_S * 1000.0
    w = np.array([d["weight"] for d in dems])
    best = math.inf
    combos = _feasible_combos(zones, doc["select_count"]["n"])
    for start in range(0, len(combos), 2000):
        chunk = combos[start:start + 2000]
        cost = (lat[:, chunk].min(axis=2) * w[:, None]).sum(axis=0)
        best = min(best, float(cost.min()))
    return best


def _check_solution(problems, sol: dict, optimum: float):
    _expect(problems, "proof", sol["proof"], "optimal")
    if not _close(sol["objective_value"], optimum):
        problems.append(f"objective {sol['objective_value']} != enumerated optimum {optimum}")


def dense_grids(truth: dict, work: Path, nz):
    kinds: dict = {}
    for cid, (kind, zone) in truth["zones"].items():
        kinds.setdefault(kind, {})[cid] = zone

    def validate(out: Path) -> list[str]:
        problems: list[str] = []
        _expect(problems, "validate status", _load(out, "validate")["status"], "clean")
        return problems

    def overlap(out: Path) -> list[str]:
        problems: list[str] = []
        report = _load(out, "overlap")
        for kind, zone_map in kinds.items():
            _check_per_wasg(problems, report, kind, zone_map, truth["grids"])
        per, _, _ = _by_zone(kinds["ixp"])
        running, k, total = 0, None, len(kinds["ixp"])
        for rank, count in enumerate(sorted(per.values(), reverse=True), start=1):
            running += count
            if running / total >= 0.65:
                k = rank
                break
        stdout = (out / "overlap.out").read_bytes()[len((out / "overlap.json").read_bytes()):].decode()
        _expect(problems, "cumulative line", stdout, f"smallest k with cumulative ixps >= 0.65: {k}\n")
        return problems

    def failure(out: Path) -> list[str]:
        problems: list[str] = []
        report = _load(out, "failure")
        failed = truth["band_failed"]
        _expect(problems, "failed grids", report["failed_wasgs"], failed)
        for metric, kind in (("ixps", "ixp"), ("dns_roots", "dns_root")):
            _, _, down = _by_zone(kinds[kind], failed)
            _expect(problems, f"{metric} unavailable", report["details"][metric]["unavailable"], down)
        dc_per, dc_unzoned, _ = _by_zone(kinds["datacenter"])
        _expect(problems, "datacenter zones", report["details"]["datacenter_zones"]["total"], len(dc_per) + dc_unzoned)
        _expect(problems, "datacenter zones down", report["details"]["datacenter_zones"]["unavailable"],
                sum(1 for z in dc_per if z in failed))
        return problems

    def place(out: Path) -> list[str]:
        problems: list[str] = []
        problem = json.loads((work / "problem.json").read_text())
        zones = [truth["cand_zone"][c["id"]] for c in problem["candidates"]]
        _check_solution(problems, _load(out, "place"), _nearest_optimum(problem, zones))
        return problems

    ops = {"validate": validate, "overlap": overlap, "failure": failure, "place": place}
    return lambda name, out: ops[name](out)


# -- resilience_sweep --------------------------------------------------------

def _enumerated_optimum(doc: dict) -> float:
    cands, n = doc["candidates"], doc["select_count"]["n"]
    zones = [c.get("zone") for c in cands]
    objective = doc["objective"]
    if objective == "min_weighted_nearest":
        return _nearest_optimum(doc, zones)
    clat = np.array([c["lat"] for c in cands])
    clon = np.array([c["lon"] for c in cands])
    if objective in ("min_pairwise_distance_sum", "max_pairwise_distance_sum"):
        dist = _haversine_km(clat[:, None], clon[:, None], clat[None, :], clon[None, :])
        combos = _feasible_combos(zones, n)
        total = sum(dist[combos[:, a], combos[:, b]] for a in range(n) for b in range(a + 1, n))
        return float(total.max() if objective.startswith("max") else total.min())
    if objective == "min_cost":
        coeff = np.array([c["cost"] for c in cands])
        combos = _feasible_combos(zones, n)
        rule = doc["location_rules"][0]
        if rule["predicate"] != {"hemisphere": "southern"}:
            raise ValueError(f"no oracle for location rule {rule}")
        south = (clat <= 0.0)[combos].sum(axis=1) >= rule["min_count"]
        return float(coeff[combos].sum(axis=1)[south].min())
    dems = doc["demands"]
    lat = _haversine_km(
        np.array([d["lat"] for d in dems])[:, None], np.array([d["lon"] for d in dems])[:, None],
        clat[None, :], clon[None, :],
    ) / FIBER_KM_PER_S * 1000.0
    coeff = (lat * np.array([d["weight"] for d in dems])[:, None]).sum(axis=0)
    allowed = np.ones(len(cands), dtype=bool)
    for j, d in enumerate(dems):
        if d["id"] in doc.get("latency_bounds", {}):
            allowed &= lat[j] <= doc["latency_bounds"][d["id"]]
    combos = _feasible_combos(zones, n, allowed)
    return float(coeff[combos].sum(axis=1).min())


def _stats_users(path: Path) -> dict:
    users = {}
    for line in path.read_text().splitlines()[1:]:
        code, pop, iu, pen, _ = line.split(",")
        users[code] = int(iu) if iu else int(round(int(pop) * float(pen)))
    return users


def resilience_sweep(truth: dict, work: Path, nz):
    pairs = {(a, b): c for a, b, c in json.loads((work / "pairs.json").read_text())}
    oracle = FlowOracle(pairs)
    scenarios = {s["name"]: s for s in json.loads((work / "scenarios.json").read_text())}
    comps = json.loads((work / "components.json").read_text())
    users = _stats_users(work / "stats.csv")
    grid_users = {g: users[f"M{g[1:]}a"] + users[f"M{g[1:]}b"] for g in truth["grids"]}

    def judge(name: str, out: Path) -> list[str]:
        problems: list[str] = []
        kind, _, key = name.partition(":")
        doc = json.loads((out / (name.replace(":", "_") + ".out")).read_text())
        if kind == "scenario":
            sc = scenarios[key]
            failed = sc["failed"] if sc["mode"] == "regional" else truth["band_failed"][key]
            problems += oracle.check(doc["flow"], failed)
            details = doc["unavailability"]["details"]
            for metric, ckind in (("ixps", "ixp"), ("dns_roots", "dns_root"), ("routers", "router")):
                down = sum(1 for c in comps if c[1] == ckind and c[4] in failed)
                _expect(problems, f"{metric} unavailable", details[metric]["unavailable"], down)
            _expect(problems, "internet_users unavailable", details["internet_users"]["unavailable"],
                    sum(grid_users[g] for g in failed))
        else:
            problem = json.loads((work / f"problem_{key}.json").read_text())
            _check_solution(problems, doc, _enumerated_optimum(problem))
        return problems

    return judge


JUDGES = {"itdk_links": itdk_links, "dense_grids": dense_grids, "resilience_sweep": resilience_sweep}
