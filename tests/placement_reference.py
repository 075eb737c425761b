"""Slow reference placement search: the recursive branch-and-bound with per-node scans.

This is the search ``netwattzap.placement`` used before its tables and
its explicit stack. It is kept as written, except that its two bound
sums are ``_ordered_sum`` instead of the built-in ``sum()``: from Python
3.12, ``sum()`` of floats is compensated, and the reference must round
as the library does on every Python. It reads the model's latency
arrays as lists of Python floats, and the availability mask as a list.
The differential tests hold the fast search to it node for node: same
chosen set, objective value, assignment, proof and ``nodes_explored``.
The assignment comes from ``ReferenceSearch.assignment_for``, so the
library's ``argmin`` is held to the scalar loop too.

``objective_value`` and ``check_feasible`` recompute a chosen set's
value and check its constraints from the problem alone, without the
solver's model.
"""

from __future__ import annotations

import time
from typing import Sequence
from unittest import mock

from netwattzap import placement
from netwattzap.placement import (
    PAIRWISE_OBJECTIVES,
    IlpModel,
    PlacementProblem,
    PlacementSolution,
    _ordered_sum,
    distance_matrix,
    latency_matrix,
)


class ReferenceSearch:
    """Depth-first branch-and-bound state over the x variables."""

    def __init__(self, model: IlpModel, deadline: float):
        self.model = model
        self.lat = model.lat.tolist()
        self.allowed = model.allowed.tolist()
        self.problem = model.problem
        self.m = len(model.order)
        self.n = self.problem.select_count.n
        self.exactly = self.problem.select_count.mode == "exactly"
        self.nearest = self.problem.objective == "min_weighted_nearest"
        self.pairwise = self.problem.objective in PAIRWISE_OBJECTIVES
        self.pair_sign = -1.0 if self.problem.objective == "max_pairwise_distance_sum" else 1.0
        self.available = model.available.tolist()
        self.rules = self.problem.location_rules
        self.rule_match = model.rule_match
        # suffix_rule[r][i]: available matches of rule r at positions >= i.
        self.suffix_rule = [
            [sum(marks[i:]) for i in range(self.m + 1)] for marks in self.rule_match
        ]
        self.deadline = deadline
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
                    v = self.lat[j][i] if self.available[i] and self.allowed[j][i] else float("inf")
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
                    if self.allowed[j][i] and self.lat[j][i] < demand_best[j]:
                        demand_best[j] = self.lat[j][i]
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
        return current + _ordered_sum(tail[:rem])

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
            return current + _ordered_sum(pool[:future_pairs])
        return current + _ordered_sum(v for v in pool[:future_pairs] if v < 0)

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
                    if self.allowed[j][t] and (best is None or self.lat[j][t] < best):
                        best = self.lat[j][t]
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
                if self.allowed[j][t] and (best is None or self.lat[j][t] < best):
                    best = self.lat[j][t]
                    best_t = t
            out[d.id] = self.model.order[best_t]
        return out


def solve(model: IlpModel, time_limit: float = 60.0) -> PlacementSolution:
    """``placement.solve`` with the reference search and assignment in place of the library's."""
    search = None

    def run(model: IlpModel, deadline: float):
        nonlocal search
        search = ReferenceSearch(model, deadline)
        search.run()
        return search.nodes, search.best_value, search.best_chosen, search.timed_out

    with mock.patch.object(placement, "_search", run):
        solution = placement.solve(model, time_limit=time_limit)
    if search.best_chosen is not None:
        solution.assignment = search.assignment_for(search.best_chosen)
    return solution


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
    lat = latency_matrix(problem).tolist()
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
    # Singleton keys count one pick, never over cap: the rest are grid ids.
    for zone, used in sorted((z, used) for z, used in per_zone.items() if used > problem.zone_cap):
        violations.append(f"zone cap: {used} chosen in zone {zone!r}, cap {problem.zone_cap}")

    for r, rule in enumerate(problem.location_rules):
        matched = sum(1 for c in picked if rule.matches(c))
        if matched < rule.min_count:
            violations.append(
                f"location rule {r} ({rule.describe()}): {matched} matched, {rule.min_count} required"
            )

    bounds = dict(problem.latency_bounds or {})
    if bounds:
        lat = latency_matrix(problem).tolist()
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
