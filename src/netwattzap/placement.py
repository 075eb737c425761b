"""Grid-resilient placement: problem model, 0-1 program, exact solver.

A placement problem selects candidate sites under a cardinality rule, a
per-grid zone cap (cap 1 means fully grid-disjoint), location minimums,
and latency bounds, minimizing one of five objectives. The model is an
inspectable 0-1 program; the bundled solver is an exact depth-first
branch-and-bound over the selection variables with admissible bounds,
so every "optimal" verdict is certified and ties break to the
lexicographically smallest chosen id set.

Objective values are summed in a documented deterministic order:
demands in their listed order, candidates and candidate pairs in
ascending id order. Candidates without a zone count as singleton zones.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import MalformedDocument, UnsatisfiableStructure
from .geo import GeoPoint, haversine_km, pairwise_latency_ms
from .grid_model import WasgRegistry

OBJECTIVES = (
    "min_weighted_sum_all",
    "min_weighted_nearest",
    "min_cost",
    "min_pairwise_distance_sum",
    "max_pairwise_distance_sum",
)
PAIRWISE_OBJECTIVES = ("min_pairwise_distance_sum", "max_pairwise_distance_sum")

HEMISPHERES = ("northern", "southern")


@dataclass(frozen=True)
class Candidate:
    """A selectable site; ``zone`` is the hosting grid id when known."""

    id: str
    geo: GeoPoint
    zone: str | None = None
    cost: float | None = None
    country: str | None = None

    def __post_init__(self) -> None:
        if self.cost is not None and self.cost < 0:
            raise ValueError(f"candidate {self.id!r}: negative cost")


@dataclass(frozen=True)
class DemandPoint:
    """A located user population contributing weighted latency."""

    id: str
    geo: GeoPoint
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"demand {self.id!r}: negative weight")


@dataclass(frozen=True)
class SelectCount:
    mode: str
    n: int

    def __post_init__(self) -> None:
        if self.mode not in ("exactly", "at_most"):
            raise ValueError(f"select_count mode {self.mode!r} not 'exactly' or 'at_most'")
        if self.n < 1:
            raise ValueError("select_count n must be positive")


@dataclass(frozen=True)
class LocationRule:
    """At least ``min_count`` selected candidates must match the predicate."""

    kind: str
    value: object
    min_count: int

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise ValueError("location rule min_count must be positive")
        if self.kind == "bbox":
            west, south, east, north = self.value
            if not (west <= east and south <= north):
                raise ValueError(f"bbox {self.value!r} not (west, south, east, north)")
        elif self.kind == "country_codes":
            if not self.value:
                raise ValueError("country_codes predicate needs at least one code")
        elif self.kind == "hemisphere":
            if self.value not in HEMISPHERES:
                raise ValueError(f"hemisphere {self.value!r} not in {HEMISPHERES}")
        else:
            raise ValueError(f"unknown predicate kind {self.kind!r}")

    def matches(self, candidate: Candidate) -> bool:
        if self.kind == "bbox":
            west, south, east, north = self.value
            return west <= candidate.geo.lon <= east and south <= candidate.geo.lat <= north
        if self.kind == "country_codes":
            return candidate.country is not None and candidate.country in self.value
        if self.value == "northern":
            return candidate.geo.lat >= 0.0
        return candidate.geo.lat <= 0.0

    def describe(self) -> str:
        if self.kind == "country_codes":
            return f"country_codes={','.join(sorted(self.value))}"
        if self.kind == "bbox":
            return "bbox=" + ",".join(repr(v) for v in self.value)
        return f"hemisphere={self.value}"


@dataclass
class PlacementProblem:
    """Immutable-by-convention description of one placement run."""

    candidates: tuple[Candidate, ...]
    demands: tuple[DemandPoint, ...]
    objective: str
    select_count: SelectCount
    zone_cap: int = 1
    location_rules: tuple[LocationRule, ...] = ()
    latency_bounds: Mapping[str, float] | None = None
    latency_override: Mapping[str, Mapping[str, float]] | None = None

    def __post_init__(self) -> None:
        self.candidates = tuple(self.candidates)
        self.demands = tuple(self.demands)
        self.location_rules = tuple(self.location_rules)
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        ids = [c.id for c in self.candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("candidate ids must be unique")
        demand_ids = [d.id for d in self.demands]
        if len(set(demand_ids)) != len(demand_ids):
            raise ValueError("demand ids must be unique")
        if not self.candidates:
            raise ValueError("need at least one candidate")
        if self.select_count.n > len(self.candidates):
            raise ValueError(
                f"select_count n={self.select_count.n} exceeds candidate count {len(self.candidates)}"
            )
        if self.zone_cap < 1:
            raise ValueError("zone_cap must be positive")
        if self.objective == "min_cost":
            missing = [c.id for c in self.candidates if c.cost is None]
            if missing:
                raise ValueError(f"objective min_cost needs a cost on every candidate; missing: {missing}")
        if self.objective in PAIRWISE_OBJECTIVES and self.select_count.n < 2:
            raise ValueError("pairwise objectives need select_count n >= 2")
        if self.latency_bounds:
            known = set(demand_ids)
            unknown = sorted(set(self.latency_bounds) - known)
            if unknown:
                raise ValueError(f"latency_bounds reference unknown demands: {unknown}")
        if self.latency_override is not None:
            for d in self.demands:
                row = self.latency_override.get(d.id)
                if row is None:
                    raise ValueError(f"latency_override missing demand {d.id!r}")
                for c in self.candidates:
                    if c.id not in row:
                        raise ValueError(f"latency_override missing entry ({d.id!r}, {c.id!r})")

    def zone_key(self, candidate: Candidate) -> str:
        """Grid id, or a singleton key for candidates outside every grid."""
        return candidate.zone if candidate.zone is not None else f"~solo:{candidate.id}"


def latency_matrix(problem: PlacementProblem) -> list[list[float]]:
    """Demand-major latency matrix in ms, candidates in ascending id order."""
    order = sorted(problem.candidates, key=lambda c: c.id)
    if problem.latency_override is not None:
        return [
            [float(problem.latency_override[d.id][c.id]) for c in order]
            for d in problem.demands
        ]
    matrix = pairwise_latency_ms([d.geo for d in problem.demands], [c.geo for c in order])
    return [[float(v) for v in row] for row in matrix]


def distance_matrix(problem: PlacementProblem) -> list[list[float]]:
    """Candidate-by-candidate haversine km, ascending id order on both axes."""
    order = sorted(problem.candidates, key=lambda c: c.id)
    return [[haversine_km(a.geo, b.geo) for b in order] for a in order]


@dataclass(frozen=True)
class LinearConstraint:
    """One linear row with a provenance tag naming the rule that produced it."""

    tag: str
    terms: tuple[tuple[str, float], ...]
    sense: str
    rhs: float


@dataclass
class IlpModel:
    """Inspectable 0-1 program plus the numeric tables the solver uses."""

    problem: PlacementProblem
    order: tuple[str, ...]
    x_constraints: tuple[LinearConstraint, ...]
    aux_constraints: tuple[LinearConstraint, ...]
    objective_sense: str
    objective_terms: tuple[tuple[str, float], ...]
    excluded: frozenset[str]
    # Solver tables, all indexed by position in ``order``.
    zone_of: tuple[str, ...] = ()
    lin_coeff: tuple[float, ...] = ()
    lat: tuple[tuple[float, ...], ...] = ()
    allowed: tuple[tuple[bool, ...], ...] = ()
    dist: tuple[tuple[float, ...], ...] = ()

    def variables(self) -> list[str]:
        seen: dict[str, None] = {f"x[{cid}]": None for cid in self.order}
        for constraint in self.aux_constraints:
            for var, _ in constraint.terms:
                seen.setdefault(var, None)
        for var, _ in self.objective_terms:
            seen.setdefault(var, None)
        return list(seen)

    def dump(self) -> str:
        """LP-style text: objective, tagged constraints, bounds, binaries."""
        lines = [f"\\ placement model: objective={self.problem.objective}"]
        lines.append("Maximize" if self.objective_sense == "max" else "Minimize")
        lines.append(" obj: " + _poly(self.objective_terms))
        lines.append("Subject To")
        for constraint in list(self.x_constraints) + list(self.aux_constraints):
            lines.append(f" {constraint.tag}: " + _poly(constraint.terms) + f" {constraint.sense} {_num(constraint.rhs)}")
        continuous = [v for v in self.variables() if not v.startswith("x[")]
        if continuous:
            lines.append("Bounds")
            lines.extend(f" 0 <= {v} <= 1" for v in continuous)
        lines.append("Binaries")
        lines.append(" " + " ".join(f"x[{cid}]" for cid in self.order))
        lines.append("End")
        return "\n".join(lines) + "\n"


def _num(value: float) -> str:
    return repr(int(value)) if float(value).is_integer() else repr(value)


def _poly(terms: Sequence[tuple[str, float]]) -> str:
    if not terms:
        return "0"
    parts = []
    for var, coeff in terms:
        if coeff == 1:
            parts.append(var)
        elif coeff == -1:
            parts.append(f"- {var}" if parts else f"-{var}")
        else:
            parts.append(f"{_num(coeff)} {var}")
    out = parts[0]
    for part in parts[1:]:
        out += " " + part if part.startswith("- ") else " + " + part
    return out


def build_ilp(problem: PlacementProblem) -> IlpModel:
    """Instantiate the 0-1 program for a placement problem.

    Raises:
        UnsatisfiableStructure: when infeasibility is certain before any
            search (zone-cap pigeonhole under exact cardinality, a
            location rule with too few matching candidates, a rule
            demanding more selections than the cardinality allows, or a
            latency-bounded demand no candidate can serve).
    """
    cands = sorted(problem.candidates, key=lambda c: c.id)
    order = tuple(c.id for c in cands)
    zone_of = tuple(problem.zone_key(c) for c in cands)
    n = problem.select_count.n
    mode = problem.select_count.mode
    nearest = problem.objective == "min_weighted_nearest"

    lat = tuple(tuple(row) for row in latency_matrix(problem))
    bounds = dict(problem.latency_bounds or {})
    allowed = tuple(
        tuple(lat[j][i] <= bounds[d.id] if d.id in bounds else True for i in range(len(cands)))
        for j, d in enumerate(problem.demands)
    )

    constraints: list[LinearConstraint] = []
    sense = "==" if mode == "exactly" else "<="
    constraints.append(
        LinearConstraint(
            tag="select_count",
            terms=tuple((f"x[{cid}]", 1.0) for cid in order),
            sense=sense,
            rhs=float(n),
        )
    )

    by_zone: dict[str, list[str]] = {}
    for cid, zone in zip(order, zone_of):
        by_zone.setdefault(zone, []).append(cid)
    for zone in sorted(by_zone):
        members = by_zone[zone]
        if len(members) <= problem.zone_cap:
            continue
        if problem.zone_cap == 1:
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    constraints.append(
                        LinearConstraint(
                            tag=f"zone_conflict[{zone}:{members[a]},{members[b]}]",
                            terms=((f"x[{members[a]}]", 1.0), (f"x[{members[b]}]", 1.0)),
                            sense="<=",
                            rhs=1.0,
                        )
                    )
        else:
            constraints.append(
                LinearConstraint(
                    tag=f"zone_cap[{zone}]",
                    terms=tuple((f"x[{cid}]", 1.0) for cid in members),
                    sense="<=",
                    rhs=float(problem.zone_cap),
                )
            )

    excluded: set[str] = set()
    if bounds and not nearest:
        # A bound excludes violating candidates for the whole problem.
        for i, cid in enumerate(order):
            if not all(allowed[j][i] for j in range(len(problem.demands))):
                excluded.add(cid)
                constraints.append(
                    LinearConstraint(
                        tag=f"latency_exclude[{cid}]",
                        terms=((f"x[{cid}]", 1.0),),
                        sense="<=",
                        rhs=0.0,
                    )
                )

    for r, rule in enumerate(problem.location_rules):
        matching = [cid for cid, cand in zip(order, cands) if cid not in excluded and rule.matches(cand)]
        if len(matching) < rule.min_count:
            raise UnsatisfiableStructure(
                f"location rule {r} ({rule.describe()}) needs {rule.min_count} matches "
                f"but only {len(matching)} candidates qualify"
            )
        if rule.min_count > n:
            raise UnsatisfiableStructure(
                f"location rule {r} ({rule.describe()}) needs {rule.min_count} selections "
                f"but at most {n} can be selected"
            )
        constraints.append(
            LinearConstraint(
                tag=f"location[{r}:{rule.describe()}]",
                terms=tuple((f"x[{cid}]", 1.0) for cid in matching),
                sense=">=",
                rhs=float(rule.min_count),
            )
        )

    if mode == "exactly":
        capacity = sum(
            min(problem.zone_cap, sum(1 for cid in members if cid not in excluded))
            for members in by_zone.values()
        )
        if capacity < n:
            raise UnsatisfiableStructure(
                f"zone cap {problem.zone_cap} over {len(by_zone)} zones admits at most "
                f"{capacity} selections but exactly {n} are required"
            )

    if nearest:
        for j, d in enumerate(problem.demands):
            if not any(allowed[j]):
                raise UnsatisfiableStructure(
                    f"demand {d.id!r}: no candidate satisfies its latency bound"
                )

    aux: list[LinearConstraint] = []
    objective_terms: list[tuple[str, float]] = []
    objective_sense = "min"
    dist: list[list[float]] = []
    weights = [d.weight for d in problem.demands]
    if problem.objective == "min_weighted_sum_all":
        coeff = tuple(
            _ordered_sum(weights[j] * lat[j][i] for j in range(len(problem.demands)))
            for i in range(len(order))
        )
        objective_terms = [(f"x[{cid}]", coeff[i]) for i, cid in enumerate(order)]
    elif problem.objective == "min_cost":
        coeff = tuple(float(c.cost) for c in cands)
        objective_terms = [(f"x[{cid}]", coeff[i]) for i, cid in enumerate(order)]
    elif nearest:
        coeff = ()
        for j, d in enumerate(problem.demands):
            aux.append(
                LinearConstraint(
                    tag=f"assign[{d.id}]",
                    terms=tuple((f"y[{d.id},{cid}]", 1.0) for cid in order),
                    sense="==",
                    rhs=1.0,
                )
            )
            for i, cid in enumerate(order):
                aux.append(
                    LinearConstraint(
                        tag=f"link[{d.id},{cid}]",
                        terms=((f"y[{d.id},{cid}]", 1.0), (f"x[{cid}]", -1.0)),
                        sense="<=",
                        rhs=0.0,
                    )
                )
                if not allowed[j][i]:
                    aux.append(
                        LinearConstraint(
                            tag=f"latency_bound[{d.id},{cid}]",
                            terms=((f"y[{d.id},{cid}]", 1.0),),
                            sense="==",
                            rhs=0.0,
                        )
                    )
                objective_terms.append((f"y[{d.id},{cid}]", d.weight * lat[j][i]))
    else:
        coeff = ()
        objective_sense = "min" if problem.objective == "min_pairwise_distance_sum" else "max"
        dist = distance_matrix(problem)
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                z = f"z[{order[a]},{order[b]}]"
                aux.append(
                    LinearConstraint(
                        tag=f"pair_lb[{order[a]},{order[b]}]",
                        terms=((f"x[{order[a]}]", 1.0), (f"x[{order[b]}]", 1.0), (z, -1.0)),
                        sense="<=",
                        rhs=1.0,
                    )
                )
                aux.append(
                    LinearConstraint(
                        tag=f"pair_ub_a[{order[a]},{order[b]}]",
                        terms=((z, 1.0), (f"x[{order[a]}]", -1.0)),
                        sense="<=",
                        rhs=0.0,
                    )
                )
                aux.append(
                    LinearConstraint(
                        tag=f"pair_ub_b[{order[a]},{order[b]}]",
                        terms=((z, 1.0), (f"x[{order[b]}]", -1.0)),
                        sense="<=",
                        rhs=0.0,
                    )
                )
                objective_terms.append((z, dist[a][b]))

    model = IlpModel(
        problem=problem,
        order=order,
        x_constraints=tuple(constraints),
        aux_constraints=tuple(aux),
        objective_sense=objective_sense,
        objective_terms=tuple(objective_terms),
        excluded=frozenset(excluded),
        zone_of=zone_of,
        lin_coeff=coeff,
        lat=lat,
        allowed=allowed,
        dist=tuple(tuple(row) for row in dist),
    )
    x_vars = {f"x[{cid}]" for cid in model.order}
    for constraint in model.x_constraints:
        for var, _ in constraint.terms:
            if var not in x_vars:
                raise ValueError(f"constraint {constraint.tag!r} references undeclared {var!r}")
    declared = set(model.variables())
    for constraint in model.aux_constraints:
        for var, _ in constraint.terms:
            if not (var in declared or var in x_vars):
                raise ValueError(f"constraint {constraint.tag!r} references undeclared {var!r}")
    return model


def _ordered_sum(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass
class PlacementSolution:
    """Chosen candidate set with a certified proof state.

    ``proof`` is "optimal", "infeasible", or "time_limit" (best incumbent
    at expiry, not certified).
    """

    chosen: tuple[str, ...]
    objective_value: float | None
    assignment: dict[str, str]
    proof: str
    nodes_explored: int
    wall_time_s: float


def objective_value(problem: PlacementProblem, chosen: Sequence[str]) -> float:
    """Recompute the objective for a chosen id set, in the documented order."""
    order = sorted(problem.candidates, key=lambda c: c.id)
    index = {c.id: i for i, c in enumerate(order)}
    picked = sorted(chosen, key=lambda cid: index[cid])
    if problem.objective == "min_cost":
        return _ordered_sum(order[index[cid]].cost for cid in picked)
    if problem.objective in PAIRWISE_OBJECTIVES:
        dist = distance_matrix(problem)
        return _ordered_sum(
            dist[index[picked[a]]][index[picked[b]]]
            for a in range(len(picked))
            for b in range(a + 1, len(picked))
        )
    lat = latency_matrix(problem)
    if problem.objective == "min_weighted_sum_all":
        return _ordered_sum(
            _ordered_sum(d.weight * lat[j][index[cid]] for j, d in enumerate(problem.demands))
            for cid in picked
        )
    total = 0.0
    bounds = dict(problem.latency_bounds or {})
    for j, d in enumerate(problem.demands):
        best = None
        for cid in picked:
            i = index[cid]
            if d.id in bounds and lat[j][i] > bounds[d.id]:
                continue
            if best is None or lat[j][i] < best:
                best = lat[j][i]
        if best is None:
            raise ValueError(f"demand {d.id!r} has no assignable chosen candidate")
        total += d.weight * best
    return total


class _Search:
    """Depth-first branch-and-bound state over the x variables."""

    def __init__(self, model: IlpModel, time_limit: float):
        self.model = model
        self.problem = model.problem
        self.m = len(model.order)
        self.n = self.problem.select_count.n
        self.exactly = self.problem.select_count.mode == "exactly"
        self.nearest = self.problem.objective == "min_weighted_nearest"
        self.pairwise = self.problem.objective in PAIRWISE_OBJECTIVES
        self.pair_sign = -1.0 if self.model.objective_sense == "max" else 1.0
        self.available = [cid not in model.excluded for cid in model.order]
        self.cand_by_pos = sorted(self.problem.candidates, key=lambda c: c.id)
        self.rules = self.problem.location_rules
        self.rule_match = [
            [self.available[i] and rule.matches(self.cand_by_pos[i]) for i in range(self.m)]
            for rule in self.rules
        ]
        # suffix_rule[r][i]: available matches of rule r at positions >= i.
        self.suffix_rule = [
            [sum(marks[i:]) for i in range(self.m + 1)] for marks in self.rule_match
        ]
        self.deadline = time.monotonic() + time_limit
        self.timed_out = False
        self.nodes = 0
        self.best_value: float | None = None
        self.best_chosen: tuple[int, ...] | None = None
        if self.nearest:
            # suffix_min[j][i]: best allowed latency among positions >= i.
            self.suffix_min = []
            for j in range(len(self.problem.demands)):
                mins = [float("inf")] * (self.m + 1)
                for i in range(self.m - 1, -1, -1):
                    v = self.model.lat[j][i] if self.available[i] and self.model.allowed[j][i] else float("inf")
                    mins[i] = min(v, mins[i + 1])
                self.suffix_min.append(mins)

    def run(self) -> None:
        zone_used: dict[str, int] = {}
        demand_best = (
            [float("inf")] * len(self.problem.demands) if self.nearest else []
        )
        self._visit(0, [], zone_used, demand_best)

    def _visit(self, i: int, chosen: list[int], zone_used: dict[str, int], demand_best: list[float]) -> None:
        if self.timed_out:
            return
        self.nodes += 1
        if time.monotonic() > self.deadline:
            self.timed_out = True
            return
        if not self._can_complete(i, chosen):
            return
        bound = self._bound(i, chosen, demand_best)
        if bound is None:
            return
        # Strictly-worse only: equal-bound subtrees may hold an equal-value
        # solution that wins the lexicographic tie-break.
        if self.best_value is not None and bound > self.best_value:
            return
        if i == self.m:
            self._leaf(chosen)
            return
        zone = self.model.zone_of[i]
        if (
            self.available[i]
            and len(chosen) < self.n
            and zone_used.get(zone, 0) < self.problem.zone_cap
        ):
            chosen.append(i)
            zone_used[zone] = zone_used.get(zone, 0) + 1
            if self.nearest:
                saved = demand_best[:]
                for j in range(len(demand_best)):
                    if self.model.allowed[j][i] and self.model.lat[j][i] < demand_best[j]:
                        demand_best[j] = self.model.lat[j][i]
                self._visit(i + 1, chosen, zone_used, demand_best)
                demand_best[:] = saved
            else:
                self._visit(i + 1, chosen, zone_used, demand_best)
            zone_used[zone] -= 1
            if zone_used[zone] == 0:
                del zone_used[zone]
            chosen.pop()
        self._visit(i + 1, chosen, zone_used, demand_best)

    def _can_complete(self, i: int, chosen: list[int]) -> bool:
        remaining = sum(1 for t in range(i, self.m) if self.available[t])
        if self.exactly and len(chosen) + remaining < self.n:
            return False
        for r in range(len(self.rules)):
            matched = sum(1 for t in chosen if self.rule_match[r][t])
            if matched + self.suffix_rule[r][i] < self.rules[r].min_count:
                return False
        return True

    def _bound(self, i: int, chosen: list[int], demand_best: list[float]) -> float | None:
        """Admissible lower bound on any completion; None prunes outright."""
        if self.nearest:
            total = 0.0
            for j, d in enumerate(self.problem.demands):
                best = min(demand_best[j], self.suffix_min[j][i])
                if best == float("inf"):
                    return None
                total += d.weight * best
            return total
        if self.pairwise:
            return self._pairwise_bound(i, chosen)
        current = _ordered_sum(self.model.lin_coeff[t] for t in chosen)
        if not self.exactly:
            return current
        rem = self.n - len(chosen)
        if rem <= 0:
            return current
        tail = sorted(self.model.lin_coeff[t] for t in range(i, self.m) if self.available[t])
        return current + sum(tail[:rem])

    def _pairwise_bound(self, i: int, chosen: list[int]) -> float:
        current = self.pair_sign * _ordered_sum(
            self.model.dist[chosen[a]][chosen[b]]
            for a in range(len(chosen))
            for b in range(a + 1, len(chosen))
        )
        rem = self.n - len(chosen)
        if rem <= 0:
            return current
        tail = [t for t in range(i, self.m) if self.available[t]]
        pool = []
        for idx, t in enumerate(tail):
            for c in chosen:
                pool.append(self.pair_sign * self.model.dist[c][t])
            for t2 in tail[idx + 1 :]:
                pool.append(self.pair_sign * self.model.dist[t][t2])
        pool.sort()
        future_pairs = rem * (rem - 1) // 2 + rem * len(chosen)
        if self.exactly:
            return current + sum(pool[:future_pairs])
        return current + sum(v for v in pool[:future_pairs] if v < 0)

    def _leaf(self, chosen: list[int]) -> None:
        if self.exactly and len(chosen) != self.n:
            return
        for r, rule in enumerate(self.rules):
            if sum(1 for t in chosen if self.rule_match[r][t]) < rule.min_count:
                return
        value = self._evaluate(chosen)
        if value is None:
            return
        if (
            self.best_value is None
            or value < self.best_value
            or (value == self.best_value and tuple(chosen) < self.best_chosen)
        ):
            self.best_value = value
            self.best_chosen = tuple(chosen)

    def _evaluate(self, chosen: list[int]) -> float | None:
        if self.pairwise:
            return self.pair_sign * _ordered_sum(
                self.model.dist[chosen[a]][chosen[b]]
                for a in range(len(chosen))
                for b in range(a + 1, len(chosen))
            )
        if self.nearest:
            total = 0.0
            for j, d in enumerate(self.problem.demands):
                best = None
                for t in chosen:
                    if self.model.allowed[j][t] and (best is None or self.model.lat[j][t] < best):
                        best = self.model.lat[j][t]
                if best is None:
                    return None
                total += d.weight * best
            return total
        return _ordered_sum(self.model.lin_coeff[t] for t in chosen)

    def assignment_for(self, chosen: tuple[int, ...]) -> dict[str, str]:
        if not self.nearest:
            return {}
        out: dict[str, str] = {}
        for j, d in enumerate(self.problem.demands):
            best = None
            best_t = None
            for t in chosen:
                if self.model.allowed[j][t] and (best is None or self.model.lat[j][t] < best):
                    best = self.model.lat[j][t]
                    best_t = t
            out[d.id] = self.model.order[best_t]
        return out


def solve(model: IlpModel, time_limit: float = 60.0) -> PlacementSolution:
    """Solve the model exactly by branch-and-bound.

    The returned proof is "optimal" (certified), "infeasible" (certified,
    only when the search ran to completion), or "time_limit" with the
    best incumbent found. Ties break to the lexicographically smallest
    chosen id set.
    """
    started = time.monotonic()
    search = _Search(model, time_limit)
    search.run()
    elapsed = time.monotonic() - started
    if search.best_chosen is None:
        proof = "time_limit" if search.timed_out else "infeasible"
        return PlacementSolution(
            chosen=(),
            objective_value=None,
            assignment={},
            proof=proof,
            nodes_explored=search.nodes,
            wall_time_s=elapsed,
        )
    value = search.best_value
    if model.objective_sense == "max":
        value = -value
    return PlacementSolution(
        chosen=tuple(model.order[t] for t in search.best_chosen),
        objective_value=value,
        assignment=search.assignment_for(search.best_chosen),
        proof="time_limit" if search.timed_out else "optimal",
        nodes_explored=search.nodes,
        wall_time_s=elapsed,
    )


def solve_problem(problem: PlacementProblem, time_limit: float = 60.0) -> PlacementSolution:
    """Convenience wrapper: build the model, then solve it."""
    return solve(build_ilp(problem), time_limit=time_limit)


def solve_pairwise(problem: PlacementProblem, time_limit: float = 60.0) -> PlacementSolution:
    """Solve a min/max pairwise-distance selection (n >= 2 enforced upstream)."""
    if problem.objective not in PAIRWISE_OBJECTIVES:
        raise ValueError(f"solve_pairwise needs a pairwise objective, got {problem.objective!r}")
    return solve_problem(problem, time_limit=time_limit)


def check_feasible(problem: PlacementProblem, chosen: Sequence[str]) -> tuple[bool, list[str]]:
    """Independent constraint check for a chosen set; never consults the solver.

    Returns (ok, violations). Checks cardinality, zone caps, location
    rules, and latency-bound semantics for the problem's objective.
    """
    violations: list[str] = []
    by_id = {c.id: c for c in problem.candidates}
    unknown = sorted(set(chosen) - set(by_id))
    if unknown:
        return False, [f"unknown candidate ids: {unknown}"]
    picked = [by_id[cid] for cid in sorted(set(chosen))]
    if len(set(chosen)) != len(list(chosen)):
        violations.append("duplicate ids in chosen set")

    n = problem.select_count.n
    if problem.select_count.mode == "exactly" and len(picked) != n:
        violations.append(f"cardinality: {len(picked)} chosen, exactly {n} required")
    if problem.select_count.mode == "at_most" and len(picked) > n:
        violations.append(f"cardinality: {len(picked)} chosen, at most {n} allowed")

    per_zone: dict[str, int] = {}
    for c in picked:
        key = problem.zone_key(c)
        per_zone[key] = per_zone.get(key, 0) + 1
    for zone, used in sorted(per_zone.items()):
        if used > problem.zone_cap:
            violations.append(f"zone cap: {used} chosen in zone {zone!r}, cap {problem.zone_cap}")

    for r, rule in enumerate(problem.location_rules):
        matched = sum(1 for c in picked if rule.matches(c))
        if matched < rule.min_count:
            violations.append(
                f"location rule {r} ({rule.describe()}): {matched} matched, {rule.min_count} required"
            )

    bounds = dict(problem.latency_bounds or {})
    if bounds:
        lat = latency_matrix(problem)
        order = sorted(problem.candidates, key=lambda c: c.id)
        index = {c.id: i for i, c in enumerate(order)}
        if problem.objective == "min_weighted_nearest":
            for j, d in enumerate(problem.demands):
                if d.id not in bounds:
                    continue
                if not any(lat[j][index[c.id]] <= bounds[d.id] for c in picked):
                    violations.append(f"latency: demand {d.id!r} has no chosen candidate within its bound")
        else:
            for j, d in enumerate(problem.demands):
                if d.id not in bounds:
                    continue
                for c in picked:
                    if lat[j][index[c.id]] > bounds[d.id]:
                        violations.append(
                            f"latency: candidate {c.id!r} violates demand {d.id!r} bound"
                        )
    if problem.objective == "min_weighted_nearest" and problem.demands and not picked:
        violations.append("nearest objective requires at least one chosen candidate")
    return (not violations, violations)


def problem_from_dict(doc: Mapping) -> PlacementProblem:
    """Build a problem from the JSON problem-file layout."""
    try:
        candidates = tuple(
            Candidate(
                id=str(c["id"]),
                geo=GeoPoint(float(c["lat"]), float(c["lon"])),
                zone=(str(c["zone"]) if c.get("zone") is not None else None),
                cost=(float(c["cost"]) if c.get("cost") is not None else None),
                country=(str(c["country"]) if c.get("country") is not None else None),
            )
            for c in doc["candidates"]
        )
        demands = tuple(
            DemandPoint(
                id=str(d["id"]),
                geo=GeoPoint(float(d["lat"]), float(d["lon"])),
                weight=float(d.get("weight", 1.0)),
            )
            for d in doc.get("demands", [])
        )
        sc = doc.get("select_count", {})
        select_count = SelectCount(mode=str(sc.get("mode", "exactly")), n=int(sc.get("n", 1)))
        rules = tuple(_rule_from_dict(r) for r in doc.get("location_rules", []))
        latency_bounds = (
            {str(k): float(v) for k, v in doc["latency_bounds"].items()}
            if doc.get("latency_bounds")
            else None
        )
        override = (
            {
                str(dk): {str(ck): float(cv) for ck, cv in row.items()}
                for dk, row in doc["latency_override"].items()
            }
            if doc.get("latency_override")
            else None
        )
        return PlacementProblem(
            candidates=candidates,
            demands=demands,
            objective=str(doc["objective"]),
            select_count=select_count,
            zone_cap=int(doc.get("zone_cap", 1)),
            location_rules=rules,
            latency_bounds=latency_bounds,
            latency_override=override,
        )
    except KeyError as exc:
        raise MalformedDocument(f"bad placement problem: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"bad placement problem: {exc}") from exc


def _rule_from_dict(doc: Mapping) -> LocationRule:
    predicate = doc["predicate"]
    if len(predicate) != 1:
        raise ValueError(f"predicate must have exactly one key, got {sorted(predicate)}")
    kind, value = next(iter(predicate.items()))
    if kind == "bbox":
        value = tuple(float(v) for v in value)
    elif kind == "country_codes":
        value = frozenset(str(v) for v in value)
    else:
        value = str(value)
    return LocationRule(kind=kind, value=value, min_count=int(doc["min_count"]))


def load_problem(path) -> PlacementProblem:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON in {path}: {exc}") from exc
    return problem_from_dict(doc)


def resolve_candidate_zones(problem: PlacementProblem, registry: WasgRegistry) -> PlacementProblem:
    """Fill missing candidate zones by polygon containment against a registry."""
    from .overlap import RegionIndex

    zones = iter(RegionIndex(registry).resolve([c.geo for c in problem.candidates if c.zone is None]))
    candidates = tuple(
        c if c.zone is not None else Candidate(
            id=c.id, geo=c.geo, zone=next(zones), cost=c.cost, country=c.country
        )
        for c in problem.candidates
    )
    return PlacementProblem(
        candidates=candidates,
        demands=problem.demands,
        objective=problem.objective,
        select_count=problem.select_count,
        zone_cap=problem.zone_cap,
        location_rules=problem.location_rules,
        latency_bounds=problem.latency_bounds,
        latency_override=problem.latency_override,
    )


def solution_to_dict(solution: PlacementSolution, include_wall_time: bool = False) -> dict:
    """JSON layout for a solution; wall time is volatile and off by default."""
    doc = {
        "chosen": list(solution.chosen),
        "objective_value": solution.objective_value,
        "assignment": dict(sorted(solution.assignment.items())),
        "proof": solution.proof,
        "solve_stats": {"nodes_explored": solution.nodes_explored},
    }
    if include_wall_time:
        doc["solve_stats"]["wall_time_s"] = solution.wall_time_s
    return doc
