"""Grid-resilient placement: problem model, 0-1 program, exact solver.

A placement problem selects candidate sites under a cardinality rule, a
per-grid zone cap (cap 1 means fully grid-disjoint), location minimums,
and latency bounds, minimizing one of five objectives. The model holds
the solver's tables and writes its 0-1 program as LP text on demand.
The bundled solver is an exact depth-first branch-and-bound over the
selection variables with admissible bounds, so every "optimal" verdict
is certified and ties break to the lexicographically smallest chosen
id set. It runs on an explicit stack, and every node reads tables that
``solve`` builds once (``_Search``), so no node scans the candidates
after it; each bound is summed left to right in ascending order, which
fixes the search tree and ``nodes_explored`` on every Python.

Objective values are summed in a documented deterministic order:
demands in their listed order, candidates and candidate pairs in
ascending id order. Candidates without a zone count as singleton zones.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import accumulate, combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import MalformedDocument, UnsatisfiableStructure
from .geo import GeoPoint, _ordered_sum, haversine_km, pairwise_latency_ms
from .grid_model import WasgRegistry, _json_list, _json_number, _json_str, _load_document

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
        if self.cost is not None and not 0 <= self.cost < math.inf:
            raise ValueError(f"candidate {self.id!r}: cost {self.cost!r} not finite and non-negative")


@dataclass(frozen=True)
class DemandPoint:
    """A located user population contributing weighted latency."""

    id: str
    geo: GeoPoint
    weight: float

    def __post_init__(self) -> None:
        if not 0 <= self.weight < math.inf:
            raise ValueError(f"demand {self.id!r}: weight {self.weight!r} not finite and non-negative")


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
            for demand_id, bound in self.latency_bounds.items():
                if not math.isfinite(bound):
                    raise ValueError(f"latency_bounds ({demand_id!r}): {bound!r} not finite")
        if self.latency_override is not None:
            for d in self.demands:
                row = self.latency_override.get(d.id)
                if row is None:
                    raise ValueError(f"latency_override missing demand {d.id!r}")
                for c in self.candidates:
                    if c.id not in row:
                        raise ValueError(f"latency_override missing entry ({d.id!r}, {c.id!r})")
                    # Negative latencies would break the solver's bounds, which
                    # assume adding a candidate never lowers a sum.
                    if not 0 <= row[c.id] < math.inf:
                        raise ValueError(
                            f"latency_override ({d.id!r}, {c.id!r}): {row[c.id]!r} not finite and non-negative"
                        )

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


@dataclass
class IlpModel:
    """The solver's tables for one problem, each indexed by position in ``order``.

    ``dump()`` writes the 0-1 program these tables stand for as LP text.
    """

    problem: PlacementProblem
    order: tuple[str, ...]
    objective_sense: str
    excluded: frozenset[str]
    zone_of: tuple[str, ...]
    lin_coeff: tuple[float, ...]
    lat: tuple[tuple[float, ...], ...]
    allowed: tuple[tuple[bool, ...], ...]
    dist: tuple[tuple[float, ...], ...]
    # rule_match[r][i]: candidate i is not excluded and matches location rule r.
    rule_match: tuple[tuple[bool, ...], ...]

    def dump(self) -> str:
        """LP-style text: objective, tagged constraints, bounds, binaries."""
        problem, order = self.problem, self.order
        x = [f"x[{cid}]" for cid in order]
        aux: list[str] = []  # the continuous variables
        pairs: list[tuple[int, int]] = []
        if problem.objective == "min_weighted_nearest":
            # y[demand,candidate]: the demand is served by the candidate.
            aux = [f"y[{d.id},{cid}]" for d in problem.demands for cid in order]
            objective = zip(aux, (d.weight * v for d, row in zip(problem.demands, self.lat) for v in row))
        elif problem.objective in PAIRWISE_OBJECTIVES:
            # z[a,b]: both candidates of the pair are selected.
            pairs = list(combinations(range(len(order)), 2))
            aux = [f"z[{order[a]},{order[b]}]" for a, b in pairs]
            objective = zip(aux, (self.dist[a][b] for a, b in pairs))
        else:
            objective = zip(x, self.lin_coeff)
        lines = [f"\\ placement model: objective={problem.objective}"]
        lines.append("Maximize" if self.objective_sense == "max" else "Minimize")
        lines.append(" obj: " + _poly(list(objective)))
        lines.append("Subject To")
        lines.extend(f" {tag}: {_poly(terms)} {sense} {rhs}" for tag, terms, sense, rhs in self._rows(x, aux, pairs))
        if aux:
            lines.append("Bounds")
            lines.extend(f" 0 <= {v} <= 1" for v in aux)
        lines.append("Binaries")
        lines.append(" " + " ".join(x))
        lines.append("End")
        return "\n".join(lines) + "\n"

    def _rows(self, x: list[str], aux: list[str], pairs: list[tuple[int, int]]):
        """(tag, terms, sense, integer rhs) of every constraint, in dump order."""
        problem, order, cap = self.problem, self.order, self.problem.zone_cap
        sense = "==" if problem.select_count.mode == "exactly" else "<="
        yield "select_count", [(v, 1) for v in x], sense, problem.select_count.n
        by_zone: dict[str, list[int]] = {}
        for i, zone in enumerate(self.zone_of):
            by_zone.setdefault(zone, []).append(i)
        for zone in sorted(by_zone):
            members = by_zone[zone]
            if len(members) <= cap:
                continue
            if cap > 1:
                yield f"zone_cap[{zone}]", [(x[i], 1) for i in members], "<=", cap
                continue
            for a, b in combinations(members, 2):
                yield f"zone_conflict[{zone}:{order[a]},{order[b]}]", [(x[a], 1), (x[b], 1)], "<=", 1
        for i, cid in enumerate(order):
            if cid in self.excluded:
                yield f"latency_exclude[{cid}]", [(x[i], 1)], "<=", 0
        for r, (rule, marks) in enumerate(zip(problem.location_rules, self.rule_match)):
            terms = [(v, 1) for v, hit in zip(x, marks) if hit]
            yield f"location[{r}:{rule.describe()}]", terms, ">=", rule.min_count
        if problem.objective == "min_weighted_nearest":
            m = len(order)
            for j, d in enumerate(problem.demands):
                y = aux[j * m : (j + 1) * m]
                yield f"assign[{d.id}]", [(v, 1) for v in y], "==", 1
                for i, cid in enumerate(order):
                    yield f"link[{d.id},{cid}]", [(y[i], 1), (x[i], -1)], "<=", 0
                    if not self.allowed[j][i]:
                        yield f"latency_bound[{d.id},{cid}]", [(y[i], 1)], "==", 0
        for z, (a, b) in zip(aux, pairs):
            pair = f"{order[a]},{order[b]}"
            yield f"pair_lb[{pair}]", [(x[a], 1), (x[b], 1), (z, -1)], "<=", 1
            yield f"pair_ub_a[{pair}]", [(z, 1), (x[a], -1)], "<=", 0
            yield f"pair_ub_b[{pair}]", [(z, 1), (x[b], -1)], "<=", 0


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
    """Compute the solver's tables for a placement problem.

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
    nearest = problem.objective == "min_weighted_nearest"

    lat = tuple(tuple(row) for row in latency_matrix(problem))
    bounds = dict(problem.latency_bounds or {})
    allowed = tuple(
        tuple(lat[j][i] <= bounds[d.id] if d.id in bounds else True for i in range(len(cands)))
        for j, d in enumerate(problem.demands)
    )
    # A bound excludes violating candidates for the whole problem, except
    # under the nearest objective, where it only forbids assignments.
    excluded = frozenset(
        cid for i, cid in enumerate(order) if bounds and not nearest and not all(row[i] for row in allowed)
    )

    rule_match = tuple(
        tuple(cid not in excluded and rule.matches(c) for cid, c in zip(order, cands))
        for rule in problem.location_rules
    )
    for r, (rule, marks) in enumerate(zip(problem.location_rules, rule_match)):
        if sum(marks) < rule.min_count:
            raise UnsatisfiableStructure(
                f"location rule {r} ({rule.describe()}) needs {rule.min_count} matches "
                f"but only {sum(marks)} candidates qualify"
            )
        if rule.min_count > n:
            raise UnsatisfiableStructure(
                f"location rule {r} ({rule.describe()}) needs {rule.min_count} selections "
                f"but at most {n} can be selected"
            )

    if problem.select_count.mode == "exactly":
        by_zone: dict[str, int] = {}
        for cid, zone in zip(order, zone_of):
            by_zone[zone] = by_zone.get(zone, 0) + (cid not in excluded)
        capacity = sum(min(problem.zone_cap, free) for free in by_zone.values())
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

    coeff: tuple[float, ...] = ()
    if problem.objective == "min_weighted_sum_all":
        coeff = tuple(
            _ordered_sum(d.weight * lat[j][i] for j, d in enumerate(problem.demands))
            for i in range(len(order))
        )
    elif problem.objective == "min_cost":
        coeff = tuple(float(c.cost) for c in cands)
    dist = distance_matrix(problem) if problem.objective in PAIRWISE_OBJECTIVES else []
    return IlpModel(
        problem=problem,
        order=order,
        objective_sense="max" if problem.objective == "max_pairwise_distance_sum" else "min",
        excluded=excluded,
        zone_of=zone_of,
        lin_coeff=coeff,
        lat=lat,
        allowed=allowed,
        dist=tuple(tuple(row) for row in dist),
        rule_match=rule_match,
    )


def _suffix_sums(flags: Sequence[bool]) -> list[int]:
    """counts[i]: the true flags at positions >= i, for i in 0..len(flags)."""
    return list(accumulate(reversed(flags), initial=0))[::-1]


def _tail_minima(values: Sequence[float], available: Sequence[bool], k: int) -> list[list[float]]:
    """tails[i]: the k smallest available values at positions >= i, ascending."""
    tails: list[list[float]] = [[]]
    for v, free in zip(reversed(values), reversed(available)):
        tails.append(sorted(tails[-1] + [v])[:k] if free else tails[-1])
    return tails[::-1]


def _pair_tables(dist, available: Sequence[bool], k: int):
    """(pairs, rows): the k smallest pair distances of each tail, ascending.

    pairs[i] is taken over the available pairs i <= t < u, and
    rows[c][i - c - 1] over dist[c][t] for the available t >= i > c.
    """
    m = len(dist)
    rows = [_tail_minima(dist[c][c + 1 :], available[c + 1 :], k) for c in range(m)]
    pairs: list[list[float]] = [[]]
    for t in reversed(range(m)):
        pairs.append(sorted(pairs[-1] + rows[t][0])[:k] if available[t] else pairs[-1])
    return pairs[::-1], rows


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
    """Depth-first branch-and-bound over the x variables, on an explicit stack.

    Nodes are visited in the order of the recursion this replaces: at
    position i, choose i (when it may be chosen), then skip it. A node
    reads tables built here once per solve, so it scans no tail:
    suffix counts of available candidates and of rule matches, rule hit
    counters kept on choose and undo, and per objective:

    - nearest: a (m+1, D+1) suffix minimum of the latency columns (inf
      where a demand may not be assigned), the chosen set's best
      latencies as one array, and a leading zero-weight column, so that
      ``np.add.accumulate`` sums as ``total = 0.0; total += w * best``;
    - linear: the chosen set's running sum and the n cheapest available
      coefficients of each tail;
    - pairwise: the chosen set's pair sum, the K = n(n-1)/2 best tail
      pairs of each tail, and each candidate's K best distances to it.

    Every bound is the value the scans gave, summed left to right in
    ascending order, so the tree, ``nodes_explored`` and every tie-break
    are those of the scans.
    """

    def __init__(self, model: IlpModel, time_limit: float):
        self.model = model
        problem = self.problem = model.problem
        m = self.m = len(model.order)
        n = self.n = problem.select_count.n
        self.exactly = problem.select_count.mode == "exactly"
        self.nearest = problem.objective == "min_weighted_nearest"
        self.pairwise = problem.objective in PAIRWISE_OBJECTIVES
        self.available = available = [cid not in model.excluded for cid in model.order]
        zones = {zone: k for k, zone in enumerate(dict.fromkeys(model.zone_of))}
        self.zone_of = [zones[zone] for zone in model.zone_of]
        self.zone_used = [0] * len(zones)
        self.rules_of = [[r for r, marks in enumerate(model.rule_match) if marks[i]] for i in range(m)]
        self.min_count = [rule.min_count for rule in problem.location_rules]
        self.hits = [0] * len(self.min_count)
        # suffix_free[i], suffix_rule[r][i]: available candidates, and available matches of rule r, at positions >= i.
        self.suffix_free = _suffix_sums(available)
        self.suffix_rule = [_suffix_sums(marks) for marks in model.rule_match]
        self.deadline = time.monotonic() + time_limit
        self.timed_out = False
        self.nodes = 0
        self.best_value: float | None = None
        self.best_chosen: tuple[int, ...] | None = None
        self.chosen: list[int] = []
        # current[-1]: the chosen set's best latency per demand (nearest) or its value.
        self.current: list
        if self.nearest:
            shape = (len(problem.demands), m)
            lat = np.array(model.lat, dtype=np.float64).reshape(shape)
            ok = np.array(model.allowed, dtype=bool).reshape(shape) & np.array(available, dtype=bool)
            cols = np.zeros((m + 1, shape[0] + 1))
            cols[:m, 1:] = np.where(ok, lat, np.inf).T
            cols[m, 1:] = np.inf
            self.cols = cols
            self.smin = np.minimum.accumulate(cols[::-1], axis=0)[::-1]
            self.weights = np.array([0.0] + [d.weight for d in problem.demands], dtype=np.float64)
            self.current = [cols[m]]
            self._bound = self._nearest_bound
        elif self.pairwise:
            self.pair_sign = sign = -1.0 if model.objective_sense == "max" else 1.0
            signed = [[sign * v for v in row] for row in model.dist]
            self.current = [sign * 0.0]  # the empty set's value, signed as every pair sum is
            self.tail_pairs, self.tail_rows = _pair_tables(signed, available, n * (n - 1) // 2)
            self._bound = self._pairwise_bound
        else:
            self.current = [0.0]
            self.tail_min = _tail_minima(model.lin_coeff, available, n)
            self._bound = self._linear_bound

    def run(self) -> None:
        m, n, cap = self.m, self.n, self.problem.zone_cap
        chosen, zone_of, zone_used = self.chosen, self.zone_of, self.zone_used
        # A nearest bound meets 0 * inf (a weightless demand that no candidate is
        # left to serve) and may overflow: it tests its total, not numpy's flags.
        with np.errstate(invalid="ignore", over="ignore"):
            stack = [0]  # a position i to visit, or ~i to undo the choice of i
            while stack:
                i = stack.pop()
                if i < 0:
                    self._undo(~i)
                    continue
                self.nodes += 1
                if time.monotonic() > self.deadline:
                    self.timed_out = True
                    return
                if not self._can_complete(i):
                    continue
                bound = self._bound(i)
                # Strictly-worse only: equal-bound subtrees may hold an equal-value
                # solution that wins the lexicographic tie-break.
                if bound is None or (self.best_value is not None and bound > self.best_value):
                    continue
                if i == m:
                    self._leaf(bound if self.nearest else self.current[-1])
                    continue
                stack.append(i + 1)
                if self.available[i] and len(chosen) < n and zone_used[zone_of[i]] < cap:
                    stack += (~i, i + 1)
                    self._choose(i)

    def _choose(self, i: int) -> None:
        chosen = self.chosen
        chosen.append(i)
        self.zone_used[self.zone_of[i]] += 1
        for r in self.rules_of[i]:
            self.hits[r] += 1
        if self.nearest:
            self.current.append(np.minimum(self.current[-1], self.cols[i]))
        elif self.pairwise:
            # In (a, b) order, signed after the sum, as the reported value is.
            dist = self.model.dist
            pairs = (dist[a][b] for k, a in enumerate(chosen) for b in chosen[k + 1 :])
            self.current.append(self.pair_sign * _ordered_sum(pairs))
        else:
            self.current.append(self.current[-1] + self.model.lin_coeff[i])

    def _undo(self, i: int) -> None:
        self.chosen.pop()
        self.zone_used[self.zone_of[i]] -= 1
        for r in self.rules_of[i]:
            self.hits[r] -= 1
        self.current.pop()

    def _can_complete(self, i: int) -> bool:
        if self.exactly and len(self.chosen) + self.suffix_free[i] < self.n:
            return False
        for hits, suffix, need in zip(self.hits, self.suffix_rule, self.min_count):
            if hits + suffix[i] < need:
                return False
        return True

    def _nearest_bound(self, i: int) -> float | None:
        """Admissible lower bound on any completion; None prunes outright."""
        best = np.minimum(self.current[-1], self.smin[i])
        total = float(np.add.accumulate(self.weights * best)[-1])
        # A demand no chosen or later candidate may serve makes the total inf or nan.
        if not total < math.inf and np.isinf(best).any():
            return None
        return total

    def _linear_bound(self, i: int) -> float:
        rem = self.n - len(self.chosen)
        if not self.exactly or rem <= 0:
            return self.current[-1]
        return self.current[-1] + _ordered_sum(self.tail_min[i][:rem])

    def _pairwise_bound(self, i: int) -> float:
        chosen = self.chosen
        rem = self.n - len(chosen)
        if rem <= 0:
            return self.current[-1]
        # The k best of the tail pairs and of the chosen-to-tail pairs are among these lists' first k.
        k = rem * (rem - 1) // 2 + rem * len(chosen)
        pool = self.tail_pairs[i][:k]
        for c in chosen:
            pool += self.tail_rows[c][i - c - 1][:k]
        pool.sort()
        if self.exactly:
            return self.current[-1] + _ordered_sum(pool[:k])
        return self.current[-1] + _ordered_sum(v for v in pool[:k] if v < 0)

    def _leaf(self, value: float) -> None:
        # _can_complete has seen to the cardinality and the location rules.
        chosen = tuple(self.chosen)
        if (
            self.best_value is None
            or value < self.best_value
            or (value == self.best_value and chosen < self.best_chosen)
        ):
            self.best_value = value
            self.best_chosen = chosen

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
    chosen id set. ``time_limit`` is in seconds: 0 or more, ``inf`` for none.
    """
    if not time_limit >= 0:
        raise ValueError(f"time limit must be >= 0 seconds, got {time_limit!r}")
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
                id=_json_str(c["id"], "candidate id"),
                geo=GeoPoint(_json_number(c["lat"], "candidate lat"), _json_number(c["lon"], "candidate lon")),
                zone=(_json_str(c["zone"], "candidate zone") if c.get("zone") is not None else None),
                cost=(_json_number(c["cost"], "candidate cost") if c.get("cost") is not None else None),
                country=(_json_str(c["country"], "candidate country") if c.get("country") is not None else None),
            )
            for c in _json_list(doc["candidates"], "candidates")
        )
        demands = tuple(
            DemandPoint(
                id=_json_str(d["id"], "demand id"),
                geo=GeoPoint(_json_number(d["lat"], "demand lat"), _json_number(d["lon"], "demand lon")),
                weight=_json_number(d.get("weight", 1.0), "demand weight"),
            )
            for d in _json_list(doc.get("demands", []), "demands")
        )
        sc = _object(doc.get("select_count", {}), "select_count")
        n = _json_number(sc.get("n", 1), "select_count n", integer=True)
        select_count = SelectCount(mode=_json_str(sc.get("mode", "exactly"), "select_count mode"), n=n)
        rules = tuple(_rule_from_dict(r) for r in _json_list(doc.get("location_rules", []), "location_rules"))
        # An absent, null or empty object means none; any other non-object is refused.
        latency_bounds = {
            str(k): _json_number(v, f"latency_bounds[{k!r}]")
            for k, v in _optional_object(doc, "latency_bounds").items()
        } or None
        override = {
            str(dk): {
                str(ck): _json_number(cv, f"latency_override[{dk!r}][{ck!r}]")
                for ck, cv in _object(row, f"latency_override[{dk!r}]").items()
            }
            for dk, row in _optional_object(doc, "latency_override").items()
        } or None
        return PlacementProblem(
            candidates=candidates,
            demands=demands,
            objective=_json_str(doc["objective"], "objective"),
            select_count=select_count,
            zone_cap=_json_number(doc.get("zone_cap", 1), "zone_cap", integer=True),
            location_rules=rules,
            latency_bounds=latency_bounds,
            latency_override=override,
        )
    except KeyError as exc:
        raise MalformedDocument(f"bad placement problem: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedDocument(f"bad placement problem: {exc}") from exc


def _object(value, what: str) -> Mapping:
    """``value`` if it is a JSON object; TypeError (so MalformedDocument) if not."""
    if not isinstance(value, Mapping):
        raise TypeError(f"{what} is not an object")
    return value


def _optional_object(doc: Mapping, key: str) -> Mapping:
    """``doc[key]`` if it is a JSON object, {} if absent or null; TypeError if anything else."""
    value = doc.get(key)
    return {} if value is None else _object(value, key)


def _rule_from_dict(doc: Mapping) -> LocationRule:
    predicate = _object(doc["predicate"], "location rule predicate")
    if len(predicate) != 1:
        raise ValueError(f"predicate must have exactly one key, got {sorted(predicate)}")
    kind, value = next(iter(predicate.items()))
    if kind == "bbox":
        value = tuple(_json_number(v, "bbox") for v in _json_list(value, "bbox"))
    elif kind == "country_codes":
        value = frozenset(_json_str(v, "country code") for v in _json_list(value, "country_codes"))
    else:
        value = _json_str(value, f"{kind} predicate")
    return LocationRule(kind=kind, value=value, min_count=_json_number(doc["min_count"], "min_count", integer=True))


def load_problem(path) -> PlacementProblem:
    return problem_from_dict(_load_document(path))


def resolve_candidate_zones(problem: PlacementProblem, registry: WasgRegistry) -> PlacementProblem:
    """Fill missing candidate zones by polygon containment against a registry."""
    from .overlap import _zones_of

    zones = iter(_zones_of([c.geo for c in problem.candidates if c.zone is None], registry))
    candidates = tuple(c if c.zone is not None else replace(c, zone=next(zones)) for c in problem.candidates)
    return replace(problem, candidates=candidates)


def solution_to_dict(solution: PlacementSolution) -> dict:
    """JSON layout for a solution; the volatile wall time is left out."""
    return {
        "chosen": list(solution.chosen),
        "objective_value": solution.objective_value,
        "assignment": dict(sorted(solution.assignment.items())),
        "proof": solution.proof,
        "solve_stats": {"nodes_explored": solution.nodes_explored},
    }
