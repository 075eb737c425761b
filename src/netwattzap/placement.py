"""Grid-resilient placement: problem model, 0-1 program, exact solver.

A placement problem selects candidate sites under a cardinality rule, a
per-grid zone cap (cap 1 means fully grid-disjoint), location minimums,
and latency bounds, minimizing one of five objectives. The model holds
the solver's tables and writes its 0-1 program as LP text on demand.
The bundled solver is an exact depth-first branch-and-bound over the
selection variables with admissible bounds, so every "optimal" verdict
is certified and ties break to the lexicographically smallest chosen
id set. It runs on an explicit stack, and every node reads tables that
``_search`` builds once, so no node scans the candidates after it;
each bound is summed left to right in ascending order, which fixes the
search tree and ``nodes_explored`` on every Python.

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
from .overlap import _zones_of

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

    def zone_key(self, candidate: Candidate) -> str | tuple[str]:
        """Grid id, or for a candidate outside every grid a singleton key no grid id can equal."""
        return candidate.zone if candidate.zone is not None else (candidate.id,)


def latency_matrix(problem: PlacementProblem) -> np.ndarray:
    """The (demands, candidates) latency array in ms, candidates in ascending id order."""
    order = sorted(problem.candidates, key=lambda c: c.id)
    if problem.latency_override is None:
        return pairwise_latency_ms([d.geo for d in problem.demands], [c.geo for c in order])
    rows = [[problem.latency_override[d.id][c.id] for c in order] for d in problem.demands]
    return np.array(rows, dtype=float).reshape(len(problem.demands), len(order))


def distance_matrix(problem: PlacementProblem) -> list[list[float]]:
    """Candidate-by-candidate haversine km, ascending id order on both axes."""
    order = sorted(problem.candidates, key=lambda c: c.id)
    return [[haversine_km(a.geo, b.geo) for b in order] for a in order]


@dataclass
class IlpModel:
    """The solver's tables for one problem, each indexed by position in ``order``.

    ``lat``, ``allowed`` and ``available`` are numpy arrays; ``dump()``
    writes the 0-1 program these tables stand for as LP text.
    """

    problem: PlacementProblem
    order: tuple[str, ...]
    # available[i]: no latency bound excludes candidate i from selection.
    available: np.ndarray
    zone_of: tuple[str | tuple[str], ...]  # PlacementProblem.zone_key
    lin_coeff: tuple[float, ...]
    lat: np.ndarray  # (demands, candidates) float, latency_matrix
    allowed: np.ndarray  # lat within the demand's bound, (demands, candidates) bool
    dist: tuple[tuple[float, ...], ...]
    # rule_match[r][i]: candidate i is available and matches location rule r.
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
            # Python floats: under numpy 2, repr(np.float64(x)) is not repr(x).
            objective = zip(aux, (d.weight * v for d, row in zip(problem.demands, self.lat.tolist()) for v in row))
        elif problem.objective in PAIRWISE_OBJECTIVES:
            # z[a,b]: both candidates of the pair are selected.
            pairs = list(combinations(range(len(order)), 2))
            aux = [f"z[{order[a]},{order[b]}]" for a, b in pairs]
            objective = zip(aux, (self.dist[a][b] for a, b in pairs))
        else:
            objective = zip(x, self.lin_coeff)
        lines = [f"\\ placement model: objective={problem.objective}"]
        lines.append("Maximize" if problem.objective == "max_pairwise_distance_sum" else "Minimize")
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
        by_zone: dict = {}
        for i, zone in enumerate(self.zone_of):
            by_zone.setdefault(zone, []).append(i)
        # Singleton keys have one member, never over cap: the rest are grid ids.
        for zone, members in sorted((z, members) for z, members in by_zone.items() if len(members) > cap):
            if cap > 1:
                yield f"zone_cap[{zone}]", [(x[i], 1) for i in members], "<=", cap
                continue
            for a, b in combinations(members, 2):
                yield f"zone_conflict[{zone}:{order[a]},{order[b]}]", [(x[a], 1), (x[b], 1)], "<=", 1
        for i, free in enumerate(self.available.tolist()):
            if not free:
                yield f"latency_exclude[{order[i]}]", [(x[i], 1)], "<=", 0
        for r, (rule, marks) in enumerate(zip(problem.location_rules, self.rule_match)):
            terms = [(v, 1) for v, hit in zip(x, marks) if hit]
            yield f"location[{r}:{rule.describe()}]", terms, ">=", rule.min_count
        if problem.objective == "min_weighted_nearest":
            m = len(order)
            for j, (d, allowed) in enumerate(zip(problem.demands, self.allowed.tolist())):
                y = aux[j * m : (j + 1) * m]
                yield f"assign[{d.id}]", [(v, 1) for v in y], "==", 1
                for i, cid in enumerate(order):
                    yield f"link[{d.id},{cid}]", [(y[i], 1), (x[i], -1)], "<=", 0
                    if not allowed[i]:
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

    lat = latency_matrix(problem)
    bounds = problem.latency_bounds or {}
    limit = np.array([bounds.get(d.id, math.inf) for d in problem.demands], dtype=float)
    allowed = lat <= limit[:, None]
    # A bound excludes violating candidates for the whole problem, except
    # under the nearest objective, where it only forbids assignments.
    available = np.ones(len(order), dtype=bool) if nearest else allowed.all(axis=0)
    avail = available.tolist()

    rule_match = tuple(
        tuple(ok and rule.matches(c) for ok, c in zip(avail, cands)) for rule in problem.location_rules
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
        by_zone: dict = {}
        for ok, zone in zip(avail, zone_of):
            by_zone[zone] = by_zone.get(zone, 0) + ok
        capacity = sum(min(problem.zone_cap, free) for free in by_zone.values())
        if capacity < n:
            raise UnsatisfiableStructure(
                f"zone cap {problem.zone_cap} over {len(by_zone)} zones admits at most "
                f"{capacity} selections but exactly {n} are required"
            )

    if nearest:
        for d, ok in zip(problem.demands, allowed.any(axis=1).tolist()):
            if not ok:
                raise UnsatisfiableStructure(
                    f"demand {d.id!r}: no candidate satisfies its latency bound"
                )

    coeff: tuple[float, ...] = ()
    if problem.objective == "min_weighted_sum_all":
        coeff = tuple(
            _ordered_sum(d.weight * v for d, v in zip(problem.demands, column)) for column in lat.T.tolist()
        )
    elif problem.objective == "min_cost":
        coeff = tuple(float(c.cost) for c in cands)
    dist = distance_matrix(problem) if problem.objective in PAIRWISE_OBJECTIVES else []
    return IlpModel(
        problem=problem,
        order=order,
        available=available,
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


def _search(model: IlpModel, deadline: float) -> tuple[int, float | None, tuple[int, ...] | None, bool]:
    """Depth-first branch-and-bound over the x variables, in one loop on an explicit stack.

    Returns (nodes, best value, best chosen positions, timed out); the
    value is signed to minimize. Nodes are visited in the order of the
    recursion this replaces: at position i, choose i (when it may be
    chosen), then skip it. The tables are built once, so a node calls no
    helper and scans no tail: suffix counts of available candidates and
    of rule matches, rule hit counters kept on choose and undo, and per
    objective:

    - nearest: a (D+1, m+1) suffix minimum of the latency columns (inf
      where a demand may not be assigned) under a zero-weight row, so
      that ``np.add.accumulate`` sums each column as ``total = 0.0;
      total += w * best``. Each choice tables, in one numpy pass, the
      bound of every later position for the new chosen set, and a node
      reads its bound there;
    - linear: the chosen set's running sum and the running sums of the n
      cheapest available coefficients of each tail;
    - pairwise: the chosen set's pair sum, the K = n(n-1)/2 best tail
      pairs of each tail, and each candidate's K best distances to it.

    Every bound is the value the scans gave, summed left to right in
    ascending order, so the tree, the node count and every tie-break
    are those of the scans.
    """
    problem, inf = model.problem, math.inf
    m, n, cap = len(model.order), problem.select_count.n, problem.zone_cap
    exactly = problem.select_count.mode == "exactly"
    nearest = problem.objective == "min_weighted_nearest"
    pairwise = problem.objective in PAIRWISE_OBJECTIVES
    available = model.available.tolist()
    zones = {zone: k for k, zone in enumerate(dict.fromkeys(model.zone_of))}
    zone_of = [zones[zone] for zone in model.zone_of]
    zone_used = [0] * len(zones)
    rules_of = [[r for r, marks in enumerate(model.rule_match) if marks[i]] for i in range(m)]
    hits = [0] * len(problem.location_rules)
    # suffix_free[i]: available candidates at positions >= i; short[r][i]: the
    # hits of rule r below which its available matches at positions >= i fall short.
    suffix_free = _suffix_sums(available)
    short = [
        [rule.min_count - s for s in _suffix_sums(marks)]
        for rule, marks in zip(problem.location_rules, model.rule_match)
    ]
    # cur: the chosen set's best latency per demand (nearest) or its value.
    if nearest:
        # cols[:, i]: candidate i's latency per demand under a zero row; cols[:, m]: none.
        cols = np.full((len(model.lat) + 1, m + 1), np.inf)
        cols[0] = 0.0
        cols[1:, :m] = np.where(model.allowed & model.available, model.lat, np.inf)
        smin = np.minimum.accumulate(cols[:, ::-1], axis=1)[:, ::-1]
        weights = np.array([0.0] + [d.weight for d in problem.demands])[:, None]

        def bounds(cur, i):
            """The bounds at positions i..m, read at ``[position - m - 1]``; None prunes outright."""
            best = np.minimum(cur, smin[:, i:])
            totals = np.add.accumulate(weights * best)[-1]
            table = totals.tolist()
            # A demand no chosen or later candidate may serve makes the total inf or nan.
            if not sum(table) < inf:
                table = np.where((totals < inf) | ~np.isinf(best).any(axis=0), totals, None).tolist()
            return table

        cur = cols[:, m:]
    elif pairwise:
        sign = -1.0 if problem.objective == "max_pairwise_distance_sum" else 1.0
        dist = model.dist
        tail_pairs, tail_rows = _pair_tables([[sign * v for v in row] for row in dist], available, n * (n - 1) // 2)
        cur = sign * 0.0  # the empty set's value, signed as every pair sum is
    else:
        coeff, cur = model.lin_coeff, 0.0
        tail_sums = [list(accumulate(tail, initial=0.0)) for tail in _tail_minima(coeff, available, n)]
    monotonic = time.monotonic
    nodes, best_value, best_chosen, table, timed_out = 0, None, None, None, False
    chosen: list[int] = []
    saved = []  # (cur, table) before each choice in chosen
    # A nearest bound meets 0 * inf (a weightless demand that no candidate is
    # left to serve) and may overflow: it tests its total, not numpy's flags.
    with np.errstate(invalid="ignore", over="ignore"):
        if nearest:
            table = bounds(cur, 0)
        stack = [0]  # a position i to visit, or ~i to undo the choice of i
        while stack:
            i = stack.pop()
            if i < 0:
                i = ~i
                chosen.pop()
                zone_used[zone_of[i]] -= 1
                for r in rules_of[i]:
                    hits[r] -= 1
                cur, table = saved.pop()
                continue
            nodes += 1
            if monotonic() > deadline:
                timed_out = True
                break
            k = len(chosen)
            if exactly and k + suffix_free[i] < n or short and any(h < s[i] for h, s in zip(hits, short)):
                continue
            rem = n - k
            if nearest:
                bound = table[i - m - 1]
            elif rem <= 0 or not (exactly or pairwise):
                bound = cur
            elif pairwise:
                # The size best tail and chosen-to-tail pairs are among these lists' first.
                size = rem * (rem - 1) // 2 + rem * k
                pool = tail_pairs[i][:size]
                for c in chosen:
                    pool += tail_rows[c][i - c - 1][:size]
                pool.sort()
                total = 0.0
                for v in pool[:size]:
                    if exactly or v < 0:
                        total += v
                bound = cur + total
            else:
                bound = cur + tail_sums[i][rem]
            # Strictly-worse only: equal-bound subtrees may hold an equal-value
            # solution that wins the lexicographic tie-break.
            if bound is None or (best_value is not None and bound > best_value):
                continue
            if i == m:
                # The checks above have seen to the cardinality and the location rules.
                value, picked = bound if nearest else cur, tuple(chosen)
                if best_value is None or value < best_value or (value == best_value and picked < best_chosen):
                    best_value, best_chosen = value, picked
                continue
            stack.append(i + 1)
            if available[i] and rem > 0 and zone_used[zone_of[i]] < cap:
                stack += (~i, i + 1)
                saved.append((cur, table))
                chosen.append(i)
                zone_used[zone_of[i]] += 1
                for r in rules_of[i]:
                    hits[r] += 1
                if nearest:
                    cur = np.minimum(cur, cols[:, i : i + 1])
                    table = bounds(cur, i + 1)
                elif pairwise:
                    # In (a, b) order, signed after the sum, as the reported value is.
                    total = 0.0
                    for a, c in enumerate(chosen):
                        for b in chosen[a + 1 :]:
                            total += dist[c][b]
                    cur = sign * total
                else:
                    cur += coeff[i]
    return nodes, best_value, best_chosen, timed_out


def solve(model: IlpModel, time_limit: float = 60.0) -> PlacementSolution:
    """Solve the model exactly by branch-and-bound.

    The returned proof is "optimal" (certified), "infeasible" (certified,
    only when the search ran to completion), or "time_limit" with the
    best incumbent found. Ties break to the lexicographically smallest
    chosen id set. ``time_limit`` is in seconds: 0 or more, ``inf`` for none.
    A best value past the float range, which JSON cannot carry, raises ValueError.
    """
    if not time_limit >= 0:
        raise ValueError(f"time limit must be >= 0 seconds, got {time_limit!r}")
    started = time.monotonic()
    nodes, value, picked, timed_out = _search(model, started + time_limit)
    elapsed = time.monotonic() - started
    if value is not None and model.problem.objective == "max_pairwise_distance_sum":
        value = -value
    if value is not None and not math.isfinite(value):
        # Only a minimized value overflows; an optimal one means that every feasible set's value does.
        raise ValueError(f"objective {model.problem.objective}: best value {value!r} is past the float range")
    assignment = {}
    if picked and model.problem.objective == "min_weighted_nearest":
        # Each demand's lowest latency, the earliest chosen position on a tie. A solution
        # has a chosen candidate within each demand's bound, so the nearest one is within it.
        nearest = model.lat[:, list(picked)].argmin(axis=1).tolist()
        assignment = {d.id: model.order[picked[k]] for d, k in zip(model.problem.demands, nearest)}
    return PlacementSolution(
        chosen=tuple(model.order[t] for t in picked or ()),
        objective_value=value,
        assignment=assignment,
        proof="time_limit" if timed_out else "infeasible" if picked is None else "optimal",
        nodes_explored=nodes,
        wall_time_s=elapsed,
    )


def solve_problem(problem: PlacementProblem, time_limit: float = 60.0) -> PlacementSolution:
    """Convenience wrapper: build the model, then solve it."""
    return solve(build_ilp(problem), time_limit=time_limit)


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
