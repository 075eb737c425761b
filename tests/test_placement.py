"""Placement model and solver against an exhaustive enumeration oracle.

The oracle below enumerates every admissible subset, checks feasibility
with its own code, evaluates objectives with its own code (same
documented summation order as the library), and applies the same
lexicographic tie-break. It never touches the solver.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from netwattzap.errors import UnsatisfiableStructure
from netwattzap.geo import GeoPoint, haversine_km
from netwattzap.placement import (
    Candidate,
    DemandPoint,
    LocationRule,
    PlacementProblem,
    SelectCount,
    build_ilp,
    latency_matrix,
    load_problem,
    problem_from_dict,
    solution_to_dict,
    solve,
    solve_problem,
)

from placement_reference import check_feasible, objective_value

PAIRWISE = ("min_pairwise_distance_sum", "max_pairwise_distance_sum")


# ---------------------------------------------------------------- oracle


def oracle_zone(candidate: Candidate) -> str | tuple[None, str]:
    # A tuple, as no zone name (a str) can equal it.
    return candidate.zone if candidate.zone is not None else (None, candidate.id)


def oracle_feasible(problem: PlacementProblem, picked: tuple[Candidate, ...], lat, index) -> bool:
    zones: dict = {}
    for c in picked:
        z = oracle_zone(c)
        zones[z] = zones.get(z, 0) + 1
        if zones[z] > problem.zone_cap:
            return False
    for rule in problem.location_rules:
        if sum(1 for c in picked if rule.matches(c)) < rule.min_count:
            return False
    bounds = dict(problem.latency_bounds or {})
    if problem.objective == "min_weighted_nearest":
        if problem.demands and not picked:
            return False
        for j, d in enumerate(problem.demands):
            if d.id in bounds and not any(lat[j][index[c.id]] <= bounds[d.id] for c in picked):
                return False
    elif bounds:
        for j, d in enumerate(problem.demands):
            if d.id not in bounds:
                continue
            if any(lat[j][index[c.id]] > bounds[d.id] for c in picked):
                return False
    return True


def oracle_value(problem: PlacementProblem, picked: tuple[Candidate, ...], lat, dist, index) -> float | None:
    if problem.objective == "min_cost":
        total = 0.0
        for c in picked:
            total += c.cost
        return total
    if problem.objective in PAIRWISE:
        total = 0.0
        for a in range(len(picked)):
            for b in range(a + 1, len(picked)):
                total += dist[index[picked[a].id]][index[picked[b].id]]
        return total
    if problem.objective == "min_weighted_sum_all":
        total = 0.0
        for c in picked:
            inner = 0.0
            for j, d in enumerate(problem.demands):
                inner += d.weight * lat[j][index[c.id]]
            total += inner
        return total
    bounds = dict(problem.latency_bounds or {})
    total = 0.0
    for j, d in enumerate(problem.demands):
        best = None
        for c in picked:
            l = lat[j][index[c.id]]
            if d.id in bounds and l > bounds[d.id]:
                continue
            if best is None or l < best:
                best = l
        if best is None:
            return None
        total += d.weight * best
    return total


def enumerate_optimum(problem: PlacementProblem):
    """(value, chosen ids) of the exhaustive optimum, or None if infeasible."""
    order = sorted(problem.candidates, key=lambda c: c.id)
    index = {c.id: i for i, c in enumerate(order)}
    lat = latency_matrix(problem)
    dist = [[haversine_km(a.geo, b.geo) for b in order] for a in order]
    n = problem.select_count.n
    sizes = [n] if problem.select_count.mode == "exactly" else list(range(0, n + 1))
    maximize = problem.objective == "max_pairwise_distance_sum"
    best = None
    best_ids = None
    for size in sizes:
        for picked in itertools.combinations(order, size):
            if not oracle_feasible(problem, picked, lat, index):
                continue
            value = oracle_value(problem, picked, lat, dist, index)
            if value is None:
                continue
            key = -value if maximize else value
            ids = tuple(c.id for c in picked)
            if best is None or key < best or (key == best and ids < best_ids):
                best = key
                best_ids = ids
    if best is None:
        return None
    return (-best if maximize else best), best_ids


# ------------------------------------------------------- fixture helpers


def cand(cid, lat=0.0, lon=0.0, zone=None, cost=None, country=None):
    return Candidate(id=cid, geo=GeoPoint(lat, lon), zone=zone, cost=cost, country=country)


def demand(did, lat=0.0, lon=0.0, weight=1.0):
    return DemandPoint(id=did, geo=GeoPoint(lat, lon), weight=weight)


def eq_fixture(mode="exactly"):
    """Three candidates, two sharing a grid, override latencies 10/20/30."""
    return PlacementProblem(
        candidates=(
            cand("c1", 10.0, 10.0, zone="Z1"),
            cand("c2", 20.0, 20.0, zone="Z1"),
            cand("c3", 30.0, 30.0, zone="Z2"),
        ),
        demands=(demand("d1", 0.0, 0.0, weight=1.0),),
        objective="min_weighted_sum_all",
        select_count=SelectCount(mode=mode, n=2),
        zone_cap=1,
        latency_override={"d1": {"c1": 10.0, "c2": 20.0, "c3": 30.0}},
    )


def random_problem(rng: random.Random) -> PlacementProblem:
    m = rng.randint(4, 12)
    zones = [f"Z{i}" for i in range(rng.randint(2, 5))]
    candidates = []
    for i in range(m):
        zone = rng.choice(zones + [None])
        candidates.append(
            Candidate(
                id=f"c{i:02d}",
                geo=GeoPoint(rng.uniform(-60, 60), rng.uniform(-150, 150)),
                zone=zone,
                cost=round(rng.uniform(1, 50), 3),
                country=rng.choice(["US", "DE", "JP", None]),
            )
        )
    demands = tuple(
        DemandPoint(id=f"d{j}", geo=GeoPoint(rng.uniform(-60, 60), rng.uniform(-150, 150)), weight=rng.randint(1, 9))
        for j in range(rng.randint(1, 4))
    )
    objective = rng.choice(
        ["min_weighted_sum_all", "min_weighted_nearest", "min_cost"] + list(PAIRWISE)
    )
    n = rng.randint(2 if objective in PAIRWISE else 1, min(4, m))
    mode = rng.choice(["exactly", "at_most"])
    rules = []
    if rng.random() < 0.4:
        kind = rng.choice(["hemisphere", "bbox", "country_codes"])
        if kind == "hemisphere":
            rule = LocationRule(kind="hemisphere", value=rng.choice(["northern", "southern"]), min_count=1)
        elif kind == "bbox":
            rule = LocationRule(kind="bbox", value=(-160.0, -70.0, 0.0, 70.0), min_count=1)
        else:
            rule = LocationRule(kind="country_codes", value=frozenset({"US", "DE"}), min_count=1)
        rules.append(rule)
    latency_bounds = None
    if demands and rng.random() < 0.35 and objective in ("min_weighted_sum_all", "min_weighted_nearest", "min_cost"):
        latency_bounds = {demands[0].id: rng.uniform(10.0, 60.0)}
    try:
        return PlacementProblem(
            candidates=tuple(candidates),
            demands=demands,
            objective=objective,
            select_count=SelectCount(mode=mode, n=n),
            zone_cap=rng.choice([1, 1, 2]),
            location_rules=tuple(rules),
            latency_bounds=latency_bounds,
        )
    except ValueError:
        return random_problem(rng)


def deep_min_cost_doc() -> dict:
    """1,100 candidates, n = 2: the search goes one level deep per candidate."""
    return {
        "candidates": [
            {"id": f"c{i:04d}", "lat": 0.0, "lon": 0.0, "cost": float(i * 7919 % 1100 + 1)} for i in range(1100)
        ],
        "select_count": {"mode": "exactly", "n": 2},
        "objective": "min_cost",
    }


# ----------------------------------------------------------------- tests


def dump_section(model, head: str) -> list[str]:
    """The stripped lines of one ``dump()`` section: "Subject To", "Bounds" or "Binaries"."""
    lines = model.dump().splitlines()
    start = lines.index(head) + 1
    stop = next(i for i in range(start, len(lines)) if lines[i] in ("Bounds", "Binaries", "End"))
    return [line.strip() for line in lines[start:stop]]


class TestBuildIlp:
    def test_cardinality_plus_one_conflict(self):
        assert dump_section(build_ilp(eq_fixture()), "Subject To") == [
            "select_count: x[c1] + x[c2] + x[c3] == 2",
            "zone_conflict[Z1:c1,c2]: x[c1] + x[c2] <= 1",
        ]

    def test_at_most_mode_uses_inequality(self):
        rows = dump_section(build_ilp(eq_fixture(mode="at_most")), "Subject To")
        assert rows[0] == "select_count: x[c1] + x[c2] + x[c3] <= 2"

    def test_group_sum_for_cap_two(self):
        problem = PlacementProblem(
            candidates=(
                cand("a", 0.0, 0.0, zone="Z", cost=1.0),
                cand("b", 1.0, 0.0, zone="Z", cost=1.0),
                cand("c", 2.0, 0.0, zone="Z", cost=1.0),
            ),
            demands=(),
            objective="min_cost",
            select_count=SelectCount(mode="at_most", n=2),
            zone_cap=2,
        )
        assert "zone_cap[Z]: x[a] + x[b] + x[c] <= 2" in dump_section(build_ilp(problem), "Subject To")

    def test_pigeonhole_unsatisfiable(self):
        candidates = tuple(
            cand(f"c{i}", float(i), float(i), zone="Z1" if i < 3 else "Z2") for i in range(5)
        )
        problem = PlacementProblem(
            candidates=candidates,
            demands=(),
            objective="min_weighted_sum_all",
            select_count=SelectCount(mode="exactly", n=3),
            zone_cap=1,
        )
        with pytest.raises(UnsatisfiableStructure):
            build_ilp(problem)

    def test_location_rule_too_few_matches(self):
        problem = PlacementProblem(
            candidates=(
                cand("a", 10.0, 0.0, cost=1.0),
                cand("b", 20.0, 0.0, cost=1.0),
            ),
            demands=(),
            objective="min_cost",
            select_count=SelectCount(mode="exactly", n=1),
            location_rules=(LocationRule(kind="hemisphere", value="southern", min_count=1),),
        )
        with pytest.raises(UnsatisfiableStructure):
            build_ilp(problem)

    def test_dump_contains_tags_and_binaries(self):
        model = build_ilp(eq_fixture())
        text = model.dump()
        assert text.splitlines()[:3] == [
            "\\ placement model: objective=min_weighted_sum_all",
            "Minimize",
            " obj: 10 x[c1] + 20 x[c2] + 30 x[c3]",
        ]
        assert "Bounds" not in text
        assert dump_section(model, "Binaries") == ["x[c1] x[c2] x[c3]"]
        assert text.endswith("\nEnd\n")

    def test_nearest_model_has_assignment_vars(self):
        problem = PlacementProblem(
            candidates=(cand("a", 10.0, 10.0, zone="Z1"), cand("b", 40.0, 40.0, zone="Z2")),
            demands=(demand("d1", 12.0, 12.0),),
            objective="min_weighted_nearest",
            select_count=SelectCount(mode="exactly", n=1),
            latency_bounds={"d1": 5.0},
        )
        model = build_ilp(problem)
        assert dump_section(model, "Subject To") == [
            "select_count: x[a] + x[b] == 1",
            "assign[d1]: y[d1,a] + y[d1,b] == 1",
            "link[d1,a]: y[d1,a] - x[a] <= 0",
            "link[d1,b]: y[d1,b] - x[b] <= 0",
            "latency_bound[d1,b]: y[d1,b] == 0",
        ]
        assert dump_section(model, "Bounds") == ["0 <= y[d1,a] <= 1", "0 <= y[d1,b] <= 1"]
        assert dump_section(model, "Binaries") == ["x[a] x[b]"]

    def test_nearest_model_without_demands_has_zero_objective(self):
        problem = PlacementProblem(
            candidates=(cand("a", 10.0, 10.0), cand("b", 40.0, 40.0)),
            demands=(),
            objective="min_weighted_nearest",
            select_count=SelectCount(mode="exactly", n=1),
        )
        model = build_ilp(problem)
        assert model.dump().splitlines()[1:3] == ["Minimize", " obj: 0"]
        assert dump_section(model, "Subject To") == ["select_count: x[a] + x[b] == 1"]
        assert "Bounds" not in model.dump()

    @pytest.mark.parametrize("objective, sense", [(PAIRWISE[0], "Minimize"), (PAIRWISE[1], "Maximize")])
    def test_pairwise_model_has_pair_vars(self, objective, sense):
        a, b, c = cand("a", 0.0, 0.0, zone="Z1"), cand("b", 0.0, 10.0, zone="Z2"), cand("c", 5.0, 5.0, zone="Z2")
        problem = PlacementProblem(
            candidates=(c, b, a),
            demands=(),
            objective=objective,
            select_count=SelectCount(mode="exactly", n=2),
        )
        model = build_ilp(problem)
        lines = model.dump().splitlines()
        assert lines[1] == sense
        ab, ac, bc = (haversine_km(p.geo, q.geo) for p, q in ((a, b), (a, c), (b, c)))
        assert lines[2] == f" obj: {ab!r} z[a,b] + {ac!r} z[a,c] + {bc!r} z[b,c]"
        assert dump_section(model, "Subject To") == [
            "select_count: x[a] + x[b] + x[c] == 2",
            "zone_conflict[Z2:b,c]: x[b] + x[c] <= 1",
            "pair_lb[a,b]: x[a] + x[b] - z[a,b] <= 1",
            "pair_ub_a[a,b]: z[a,b] - x[a] <= 0",
            "pair_ub_b[a,b]: z[a,b] - x[b] <= 0",
            "pair_lb[a,c]: x[a] + x[c] - z[a,c] <= 1",
            "pair_ub_a[a,c]: z[a,c] - x[a] <= 0",
            "pair_ub_b[a,c]: z[a,c] - x[c] <= 0",
            "pair_lb[b,c]: x[b] + x[c] - z[b,c] <= 1",
            "pair_ub_a[b,c]: z[b,c] - x[b] <= 0",
            "pair_ub_b[b,c]: z[b,c] - x[c] <= 0",
        ]
        assert dump_section(model, "Bounds") == ["0 <= z[a,b] <= 1", "0 <= z[a,c] <= 1", "0 <= z[b,c] <= 1"]

    def test_latency_bound_excludes_candidates_from_sum_all(self):
        problem = PlacementProblem(
            candidates=(cand("a", 10.0, 0.0), cand("b", 20.0, 0.0), cand("c", 30.0, 0.0)),
            demands=(demand("d1", weight=2.0), demand("d2")),
            objective="min_weighted_sum_all",
            select_count=SelectCount(mode="at_most", n=2),
            location_rules=(LocationRule(kind="hemisphere", value="northern", min_count=1),),
            latency_bounds={"d2": 25.0},
            latency_override={"d1": {"a": 5.0, "b": 0.5, "c": 1.0}, "d2": {"a": 30.0, "b": 20.0, "c": 40.0}},
        )
        model = build_ilp(problem)
        assert model.dump().splitlines()[2] == " obj: 40 x[a] + 21 x[b] + 42 x[c]"
        assert dump_section(model, "Subject To") == [
            "select_count: x[a] + x[b] + x[c] <= 2",
            "latency_exclude[a]: x[a] <= 0",
            "latency_exclude[c]: x[c] <= 0",
            "location[0:hemisphere=northern]: x[b] >= 1",
        ]
        assert "Bounds" not in model.dump()


class TestSolveFixtures:
    def test_eq_fixture_chooses_one_and_three(self):
        problem = eq_fixture()
        oracle = enumerate_optimum(problem)
        assert oracle == (40.0, ("c1", "c3"))
        solution = solve_problem(problem)
        assert solution.proof == "optimal"
        assert solution.chosen == ("c1", "c3")
        assert solution.objective_value == 40.0

    def test_single_selection_nearest_reduces_to_argmin(self):
        problem = PlacementProblem(
            candidates=(cand("far", 50.0, 50.0), cand("near", 1.0, 1.0)),
            demands=(demand("d1", 0.0, 0.0),),
            objective="min_weighted_nearest",
            select_count=SelectCount(mode="exactly", n=1),
        )
        solution = solve_problem(problem)
        assert solution.chosen == ("near",)
        assert solution.assignment == {"d1": "near"}

    def test_equidistant_tie_breaks_lexicographically(self):
        problem = PlacementProblem(
            candidates=(
                cand("b", 10.0, 0.0, zone="Z1"),
                cand("a", -10.0, 0.0, zone="Z2"),
                cand("d", 0.0, 10.0, zone="Z1"),
                cand("c", 0.0, -10.0, zone="Z2"),
            ),
            demands=(demand("d1", 0.0, 0.0),),
            objective="min_weighted_sum_all",
            select_count=SelectCount(mode="exactly", n=2),
            zone_cap=1,
        )
        solution = solve_problem(problem)
        assert solution.chosen == ("a", "b")

    def test_forced_pair_with_two_candidates(self):
        for objective in PAIRWISE:
            problem = PlacementProblem(
                candidates=(cand("a", 0.0, 0.0, zone="Z1"), cand("b", 1.0, 1.0, zone="Z2")),
                demands=(),
                objective=objective,
                select_count=SelectCount(mode="exactly", n=2),
            )
            solution = solve_problem(problem)
            assert solution.chosen == ("a", "b")

    def test_square_corners_max_picks_diagonal_min_picks_side(self):
        corners = (
            cand("sw", 0.0, 0.0, zone="Z1"),
            cand("se", 0.0, 1.0, zone="Z2"),
            cand("nw", 1.0, 0.0, zone="Z3"),
            cand("ne", 1.0, 1.0, zone="Z4"),
        )
        for objective in PAIRWISE:
            problem = PlacementProblem(
                candidates=corners,
                demands=(),
                objective=objective,
                select_count=SelectCount(mode="exactly", n=2),
            )
            oracle = enumerate_optimum(problem)
            solution = solve_problem(problem)
            assert solution.objective_value == oracle[0]
            assert solution.chosen == oracle[1]
            chosen = set(solution.chosen)
            if objective == "max_pairwise_distance_sum":
                assert chosen in ({"sw", "ne"}, {"se", "nw"})
            else:
                # The 1-degree lon side at lat 1 is marginally shorter.
                assert chosen == {"ne", "nw"}

    def test_time_limit_returns_incumbent_flag(self):
        solution = solve_problem(eq_fixture(), time_limit=0.0)
        assert solution.proof == "time_limit"

    @pytest.mark.parametrize("time_limit", [float("nan"), -1.0])
    def test_time_limit_below_zero_or_nan_refused(self, time_limit):
        with pytest.raises(ValueError, match="time limit"):
            solve(build_ilp(eq_fixture()), time_limit=time_limit)

    def test_infinite_time_limit_searches_to_the_end(self):
        assert solve_problem(eq_fixture(), time_limit=float("inf")).proof == "optimal"

    def test_latency_bound_excludes_candidate_globally(self):
        problem = PlacementProblem(
            candidates=(
                cand("near", 1.0, 1.0, zone="Z1"),
                cand("far", 50.0, 50.0, zone="Z2"),
                cand("mid", 5.0, 5.0, zone="Z3"),
            ),
            demands=(demand("d1", 0.0, 0.0),),
            objective="min_weighted_sum_all",
            select_count=SelectCount(mode="exactly", n=2),
            latency_bounds={"d1": 10.0},
        )
        model = build_ilp(problem)
        assert model.available.tolist() == [False, True, True]  # far, mid, near
        solution = solve(model)
        assert solution.proof == "optimal"
        assert "far" not in solution.chosen

    def test_latency_bound_nearest_constrains_assignment(self):
        problem = PlacementProblem(
            candidates=(
                cand("near", 1.0, 1.0, zone="Z1"),
                cand("far", 50.0, 50.0, zone="Z2"),
            ),
            demands=(demand("d1", 0.0, 0.0), demand("d2", 49.0, 49.0)),
            objective="min_weighted_nearest",
            select_count=SelectCount(mode="exactly", n=2),
            latency_bounds={"d1": 10.0},
        )
        model = build_ilp(problem)
        assert model.available.all()
        solution = solve(model)
        assert solution.proof == "optimal"
        assert solution.assignment["d1"] == "near"

    def test_zero_latency_bound_across_the_antimeridian(self):
        # Lon -180 and 180 are one meridian: c serves d at exactly 0 ms.
        problem = PlacementProblem(
            candidates=(cand("c", 10.0, 180.0),),
            demands=(demand("d", 10.0, -180.0),),
            objective="min_weighted_nearest",
            select_count=SelectCount(mode="exactly", n=1),
            latency_bounds={"d": 0.0},
        )
        solution = solve_problem(problem)
        assert (solution.chosen, solution.objective_value, solution.proof) == (("c",), 0.0, "optimal")
        assert check_feasible(problem, ("c",)) == (True, [])

    @pytest.mark.parametrize("lat", [90.0, -90.0])
    def test_zero_latency_bound_at_a_pole(self, lat):
        # A pole is one point at every longitude: c serves d at exactly 0 ms.
        problem = PlacementProblem(
            candidates=(cand("c", lat, 135.0),),
            demands=(demand("d", lat, -20.0),),
            objective="min_weighted_nearest",
            select_count=SelectCount(mode="exactly", n=1),
            latency_bounds={"d": 0.0},
        )
        solution = solve_problem(problem)
        assert (solution.chosen, solution.objective_value, solution.proof) == (("c",), 0.0, "optimal")
        assert check_feasible(problem, ("c",)) == (True, [])

    def test_deeper_than_the_recursion_limit(self):
        # A recursive search raised RecursionError here.
        solution = solve_problem(problem_from_dict(deep_min_cost_doc()))
        assert solution.proof == "optimal"
        assert solution.chosen == ("c0000", "c0879")
        assert solution.objective_value == 3.0

    def test_infeasible_by_search(self):
        # Structural checks pass, but the rule and the zone conflict collide.
        problem = PlacementProblem(
            candidates=(
                cand("a", 10.0, 0.0, zone="Z1", cost=1.0),
                cand("b", 20.0, 0.0, zone="Z1", cost=1.0),
                cand("c", -10.0, 0.0, zone="Z2", cost=1.0),
            ),
            demands=(),
            objective="min_cost",
            select_count=SelectCount(mode="exactly", n=2),
            zone_cap=1,
            location_rules=(LocationRule(kind="hemisphere", value="northern", min_count=2),),
        )
        solution = solve_problem(problem)
        assert solution.proof == "infeasible"
        assert enumerate_optimum(problem) is None


class TestRandomInstances:
    def test_solver_matches_enumeration(self):
        rng = random.Random(2024)
        infeasible_seen = 0
        for _ in range(120):
            problem = random_problem(rng)
            oracle = enumerate_optimum(problem)
            try:
                solution = solve_problem(problem)
            except UnsatisfiableStructure:
                # Pre-solve detection must be sound.
                assert oracle is None
                infeasible_seen += 1
                continue
            if oracle is None:
                infeasible_seen += 1
                assert solution.proof == "infeasible"
                continue
            assert solution.proof == "optimal"
            assert solution.objective_value == oracle[0]
            assert solution.chosen == oracle[1]
            ok, violations = check_feasible(problem, solution.chosen)
            assert ok, violations
        assert infeasible_seen < 40

    def test_weight_scaling_leaves_argmin_unchanged(self):
        rng = random.Random(31)
        for _ in range(20):
            problem = random_problem(rng)
            if problem.objective not in ("min_weighted_sum_all", "min_weighted_nearest"):
                continue
            if not problem.demands:
                continue
            try:
                base = solve_problem(problem)
            except UnsatisfiableStructure:
                continue
            if base.proof != "optimal":
                continue
            scaled = PlacementProblem(
                candidates=problem.candidates,
                demands=tuple(
                    DemandPoint(id=d.id, geo=d.geo, weight=d.weight * 7.5) for d in problem.demands
                ),
                objective=problem.objective,
                select_count=problem.select_count,
                zone_cap=problem.zone_cap,
                location_rules=problem.location_rules,
                latency_bounds=problem.latency_bounds,
                latency_override=problem.latency_override,
            )
            assert solve_problem(scaled).chosen == base.chosen

    def test_zone_cap_relaxation_never_worsens(self):
        rng = random.Random(47)
        tried = 0
        for _ in range(40):
            problem = random_problem(rng)
            if problem.objective == "max_pairwise_distance_sum":
                continue
            try:
                base = solve_problem(problem)
            except UnsatisfiableStructure:
                continue
            if base.proof != "optimal":
                continue
            relaxed_problem = PlacementProblem(
                candidates=problem.candidates,
                demands=problem.demands,
                objective=problem.objective,
                select_count=problem.select_count,
                zone_cap=problem.zone_cap + 1,
                location_rules=problem.location_rules,
                latency_bounds=problem.latency_bounds,
                latency_override=problem.latency_override,
            )
            relaxed = solve_problem(relaxed_problem)
            assert relaxed.proof == "optimal"
            assert relaxed.objective_value <= base.objective_value + 1e-12
            tried += 1
        assert tried >= 5

    def test_objective_value_recomputation(self):
        rng = random.Random(63)
        for _ in range(30):
            problem = random_problem(rng)
            try:
                solution = solve_problem(problem)
            except UnsatisfiableStructure:
                continue
            if solution.proof != "optimal":
                continue
            recomputed = objective_value(problem, solution.chosen)
            assert solution.objective_value == pytest.approx(recomputed, rel=1e-9, abs=1e-12)


class TestProblemIo:
    def test_round_trip(self, tmp_path):
        doc = {
            "candidates": [
                {"id": "c1", "lat": 10.0, "lon": 10.0, "zone": "Z1"},
                {"id": "c2", "lat": 20.0, "lon": 20.0, "zone": "Z1", "cost": 4.0},
                {"id": "c3", "lat": 30.0, "lon": 30.0, "country": "US"},
            ],
            "demands": [{"id": "d1", "lat": 0.0, "lon": 0.0, "weight": 2.0}],
            "select_count": {"mode": "exactly", "n": 2},
            "zone_cap": 1,
            "location_rules": [{"predicate": {"hemisphere": "northern"}, "min_count": 1}],
            "latency_bounds": {"d1": 500.0},
            "objective": "min_weighted_sum_all",
        }
        problem = problem_from_dict(doc)
        assert problem.candidates[2].country == "US"
        assert problem.location_rules[0].kind == "hemisphere"
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert load_problem(path) == problem

    def test_bad_documents(self):
        from netwattzap.errors import MalformedDocument

        with pytest.raises(MalformedDocument):
            problem_from_dict({"candidates": []})
        with pytest.raises(MalformedDocument):
            problem_from_dict(
                {
                    "candidates": [{"id": "a", "lat": 0, "lon": 0}, {"id": "a", "lat": 1, "lon": 1}],
                    "objective": "min_cost",
                    "select_count": {"mode": "exactly", "n": 1},
                }
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"select_count": {"mode": "all", "n": 2}}, "select_count mode 'all' not 'exactly' or 'at_most'"),
            ({"select_count": {"mode": "exactly", "n": 0}}, "select_count n must be positive"),
            (
                {"location_rules": [{"predicate": {"hemisphere": "northern"}, "min_count": 0}]},
                "location rule min_count must be positive",
            ),
            (
                {"location_rules": [{"predicate": {"bbox": [10, 0, 0, 10]}, "min_count": 1}]},
                "bbox (10.0, 0.0, 0.0, 10.0) not (west, south, east, north)",
            ),
            (
                {"location_rules": [{"predicate": {"hemisphere": "eastern"}, "min_count": 1}]},
                "hemisphere 'eastern' not in ('northern', 'southern')",
            ),
            ({"objective": "max_cost"}, "unknown objective 'max_cost'"),
            (
                {"demands": [{"id": "d1", "lat": 0.0, "lon": 0.0}, {"id": "d1", "lat": 1.0, "lon": 1.0}]},
                "demand ids must be unique",
            ),
            ({"select_count": {"mode": "exactly", "n": 4}}, "select_count n=4 exceeds candidate count 3"),
            ({"zone_cap": 0}, "zone_cap must be positive"),
            (
                {"objective": "min_cost"},
                "objective min_cost needs a cost on every candidate; missing: ['c1', 'c2', 'c3']",
            ),
            (
                {"objective": "min_pairwise_distance_sum", "select_count": {"mode": "at_most", "n": 1}},
                "pairwise objectives need select_count n >= 2",
            ),
            ({"latency_bounds": {"d9": 5.0}}, "latency_bounds reference unknown demands: ['d9']"),
            ({"latency_override": {"d1": {"c1": 1.0, "c3": 3.0}}}, "latency_override missing entry ('d1', 'c2')"),
            ({"latency_override": {"d9": {"c1": 1.0}}}, "latency_override missing demand 'd1'"),
            (
                {"location_rules": [{"predicate": {"country_codes": []}, "min_count": 1}]},
                "country_codes predicate needs at least one code",
            ),
            (
                {"location_rules": [{"predicate": {"continent": "EU"}, "min_count": 1}]},
                "unknown predicate kind 'continent'",
            ),
        ],
    )
    def test_refused_document_names_its_rule(self, change, message):
        from netwattzap.errors import MalformedDocument

        doc = {
            "candidates": [
                {"id": "c1", "lat": 10.0, "lon": 10.0, "zone": "Z1"},
                {"id": "c2", "lat": 20.0, "lon": 20.0, "zone": "Z1"},
                {"id": "c3", "lat": 30.0, "lon": 30.0, "zone": "Z2"},
            ],
            "demands": [{"id": "d1", "lat": 0.0, "lon": 0.0}],
            "select_count": {"mode": "exactly", "n": 2},
            "objective": "min_weighted_sum_all",
        }
        with pytest.raises(MalformedDocument) as err:
            problem_from_dict({**doc, **change})
        assert str(err.value) == f"bad placement problem: {message}"

    def test_solution_serialization_hides_wall_time(self):
        solution = solve_problem(eq_fixture())
        doc = solution_to_dict(solution)
        assert "wall_time_s" not in doc["solve_stats"]
        assert doc["chosen"] == ["c1", "c3"]


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_demand_weight_rejected(self, bad):
        # A NaN weight used to pass `weight < 0` and solve to objective_value nan, proof "optimal".
        with pytest.raises(ValueError, match="not finite"):
            demand("d1", weight=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_candidate_cost_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            cand("c1", cost=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["latency_bounds", "latency_override"])
    def test_latency_values_rejected(self, field, bad):
        fixture = eq_fixture()
        values = {
            "latency_bounds": {"d1": bad},
            "latency_override": {"d1": {"c1": 10.0, "c2": bad, "c3": 30.0}},
        }
        with pytest.raises(ValueError, match="not finite"):
            PlacementProblem(
                candidates=fixture.candidates,
                demands=fixture.demands,
                objective=fixture.objective,
                select_count=fixture.select_count,
                **{field: values[field]},
            )


def test_negative_latency_override_rejected():
    # Candidates a, b, c with latencies 1, 1 and -10 under at_most 2 once
    # solved to ('a', 'c') = -9.0 with proof "optimal", while ('c',) is -10.
    doc = {
        "candidates": [{"id": cid, "lat": 0.0, "lon": 0.0} for cid in ("a", "b", "c")],
        "demands": [{"id": "d1", "lat": 0.0, "lon": 0.0}],
        "objective": "min_weighted_sum_all",
        "select_count": {"mode": "at_most", "n": 2},
        "latency_override": {"d1": {"a": 1.0, "b": 1.0, "c": 0.0}},
    }
    problem = problem_from_dict(doc)
    negative = {"d1": {"a": 1.0, "b": 1.0, "c": -10.0}}
    with pytest.raises(ValueError, match="non-negative"):
        dataclasses.replace(problem, latency_override=negative)
    from netwattzap.errors import MalformedDocument

    with pytest.raises(MalformedDocument, match="non-negative"):
        problem_from_dict({**doc, "latency_override": negative})


class TestUnzonedCandidates:
    """An unzoned candidate is its own zone, whatever the other candidates' zone names."""

    @pytest.mark.parametrize("zone", ["~solo:b", "#solo#b", "!b", "b", "('b',)"])
    def test_zone_named_like_a_singleton_key_is_another_zone(self, zone):
        problem = PlacementProblem(
            candidates=(cand("a", zone=zone, cost=1.0), cand("b", cost=2.0), cand("c", zone=zone, cost=0.5)),
            demands=(),
            objective="min_cost",
            select_count=SelectCount(mode="exactly", n=2),
            zone_cap=1,
        )
        model = build_ilp(problem)
        assert len(set(model.zone_of)) == 2
        solution = solve(model)
        assert (solution.chosen, solution.objective_value, solution.proof) == (("b", "c"), 2.5, "optimal")
        assert enumerate_optimum(problem) == (2.5, ("b", "c"))
        assert check_feasible(problem, ("a", "b")) == (True, [])
        assert check_feasible(problem, ("a", "c")) == (False, [f"zone cap: 2 chosen in zone {zone!r}, cap 1"])
        assert "zone_conflict" in model.dump()

    def test_only_unzoned_candidates_in_a_zone_named_like_their_key(self):
        # Two candidates, exactly two: refused as a pigeonhole when a's zone shared b's key.
        problem = PlacementProblem(
            candidates=(cand("a", zone="~solo:b", cost=1.0), cand("b", cost=2.0)),
            demands=(),
            objective="min_cost",
            select_count=SelectCount(mode="exactly", n=2),
            zone_cap=1,
        )
        assert solve(build_ilp(problem)).chosen == ("a", "b")
        assert check_feasible(problem, ("a", "b")) == (True, [])


class TestCheckFeasible:
    def test_flags_every_violation_kind(self):
        problem = eq_fixture()
        ok, _ = check_feasible(problem, ("c1", "c3"))
        assert ok
        ok, violations = check_feasible(problem, ("c1", "c2"))
        assert not ok and any("zone cap" in v for v in violations)
        ok, violations = check_feasible(problem, ("c1",))
        assert not ok and any("cardinality" in v for v in violations)
        ok, violations = check_feasible(problem, ("c1", "zz"))
        assert not ok and any("unknown" in v for v in violations)


    # Each chosen set breaks exactly one rule and must get exactly its violation.
    def test_duplicate_ids(self):
        assert check_feasible(eq_fixture(), ("c1", "c3", "c1")) == (False, ["duplicate ids in chosen set"])

    def test_at_most_cardinality(self):
        problem = dataclasses.replace(eq_fixture("at_most"), zone_cap=2)
        assert check_feasible(problem, ("c1", "c2")) == (True, [])
        assert check_feasible(problem, ("c1", "c2", "c3")) == (False, ["cardinality: 3 chosen, at most 2 allowed"])

    def test_location_rule(self):
        rule = LocationRule(kind="hemisphere", value="southern", min_count=1)
        problem = dataclasses.replace(eq_fixture(), location_rules=(rule,))
        assert check_feasible(problem, ("c1", "c3")) == (
            False,
            ["location rule 0 (hemisphere=southern): 0 matched, 1 required"],
        )

    def test_nearest_latency_bound(self):
        problem = bounded_fixture("min_weighted_nearest")
        assert check_feasible(problem, ("c1", "c3")) == (True, [])
        assert check_feasible(problem, ("c2", "c3")) == (
            False,
            ["latency: demand 'd1' has no chosen candidate within its bound"],
        )

    def test_per_candidate_latency_bound(self):
        problem = bounded_fixture("min_weighted_sum_all")
        assert check_feasible(problem, ("c1", "c3")) == (False, ["latency: candidate 'c3' violates demand 'd1' bound"])

    def test_nearest_with_nothing_chosen(self):
        problem = dataclasses.replace(eq_fixture("at_most"), objective="min_weighted_nearest")
        assert check_feasible(problem, ()) == (False, ["nearest objective requires at least one chosen candidate"])


def bounded_fixture(objective: str) -> PlacementProblem:
    """eq_fixture under ``objective``, with demand d1 bounded at 15 ms and d2 unbounded."""
    return dataclasses.replace(
        eq_fixture(),
        objective=objective,
        demands=(demand("d1"), demand("d2")),
        latency_override={"d1": {"c1": 10.0, "c2": 20.0, "c3": 30.0}, "d2": {"c1": 5.0, "c2": 5.0, "c3": 5.0}},
        latency_bounds={"d1": 15.0},
    )


class TestObjectiveValueBounds:
    def test_nearest_skips_candidates_beyond_the_bound(self):
        # d1: c3 (30 ms) is past its 15 ms bound, so c1 serves it; d2 has no bound.
        assert objective_value(bounded_fixture("min_weighted_nearest"), ("c1", "c3")) == 10.0 + 5.0

    def test_no_assignable_chosen_candidate(self):
        with pytest.raises(ValueError, match="demand 'd1' has no assignable chosen candidate"):
            objective_value(bounded_fixture("min_weighted_nearest"), ("c2", "c3"))


LATENCY_DOC = {
    "candidates": [{"id": "c1", "lat": 0.0, "lon": 0.0}],
    "demands": [{"id": "d1", "lat": 0.0, "lon": 0.0}],
    "objective": "min_weighted_sum_all",
}


class TestLatencyDocumentValues:
    @pytest.mark.parametrize("key", ["latency_bounds", "latency_override"])
    @pytest.mark.parametrize("value", [[], 0, False, "", "x", [1]])
    def test_non_object_refused(self, key, value):
        # The falsy ones used to load as no bounds or no override.
        from netwattzap.errors import MalformedDocument

        with pytest.raises(MalformedDocument, match=rf"^bad placement problem: {key} is not an object$"):
            problem_from_dict({**LATENCY_DOC, key: value})

    @pytest.mark.parametrize("key", ["latency_bounds", "latency_override"])
    @pytest.mark.parametrize("value", [None, {}])
    def test_null_and_empty_object_mean_none(self, key, value):
        assert getattr(problem_from_dict({**LATENCY_DOC, key: value}), key) is None
