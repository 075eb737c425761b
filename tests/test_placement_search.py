"""The placement search against ``placement_reference``, node for node.

Each drawn problem is solved by ``placement.solve`` and by the reference
recursion; the two JSON reports (chosen set, objective value, assignment,
proof and ``nodes_explored``) must be the same bytes. The problems mix
few candidate coordinates (co-located and mirrored sites), integer
costs, weights and override latencies, so equal values and equal bounds
are common:
pruning is strictly-worse, and a subtree whose value only ties the
incumbent must still be searched for the lexicographic tie-break.
Geographic latencies over many demands make sums whose last bit depends
on the summation order.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from netwattzap.errors import UnsatisfiableStructure
from netwattzap.geo import GeoPoint
from netwattzap.placement import (
    OBJECTIVES,
    PAIRWISE_OBJECTIVES,
    Candidate,
    DemandPoint,
    LocationRule,
    PlacementProblem,
    SelectCount,
    build_ilp,
    solution_to_dict,
    solve,
)

import placement_reference

COORDS = st.sampled_from([-30.0, 0.0, 10.0, 45.0])
RULES = st.sampled_from(
    [
        ("hemisphere", "northern"),
        ("hemisphere", "southern"),
        ("bbox", (-40.0, -40.0, 20.0, 20.0)),
        ("country_codes", frozenset({"US"})),
        ("country_codes", frozenset({"US", "DE"})),
    ]
)


@st.composite
def problems(draw, objective: str, mode: str, deep: bool = False) -> PlacementProblem:
    """A drawn problem; ``deep`` ones have 12-16 candidates and a weightless, latency-bounded first demand."""
    pairwise = objective in PAIRWISE_OBJECTIVES
    m = draw(st.integers(12, 16) if deep else st.integers(2 if pairwise else 1, 9), label="m")
    candidates = tuple(
        Candidate(
            id=f"c{i}",
            geo=GeoPoint(draw(COORDS), draw(COORDS)),
            zone=draw(st.sampled_from([None, "Z0", "Z1", "Z2"])),
            cost=float(draw(st.integers(0, 4))),
            country=draw(st.sampled_from([None, "US", "DE"])),
        )
        for i in range(m)
    )
    demands = tuple(
        DemandPoint(
            id=f"d{j}",
            geo=GeoPoint(draw(st.floats(-60.0, 60.0)), draw(st.floats(-150.0, 150.0))),
            weight=0 if deep and j == 0 else draw(st.integers(0, 4)),
        )
        for j in range(draw(st.sampled_from([2, 4, 9, 12] if deep else [0, 1, 2, 4, 9, 12]), label="demands"))
    )
    override = None
    if draw(st.booleans(), label="override"):
        override = {d.id: {c.id: float(draw(st.integers(0, 9))) for c in candidates} for d in demands}
    bounded = draw(st.lists(st.sampled_from([d.id for d in demands]), max_size=2, unique=True)) if demands else []
    if deep and "d0" not in bounded:
        bounded.append("d0")
    bounds = {d: draw(st.sampled_from([3.0, 6.0, 15.0, 30.0])) for d in bounded}
    rules = tuple(
        LocationRule(kind=kind, value=value, min_count=draw(st.integers(1, 2)))
        for kind, value in draw(st.lists(RULES, max_size=2), label="rules")
    )
    return PlacementProblem(
        candidates=candidates,
        demands=demands,
        objective=objective,
        select_count=SelectCount(mode=mode, n=draw(st.integers(2 if pairwise else 1, min(4, m)), label="n")),
        zone_cap=draw(st.integers(1, 2), label="zone_cap"),
        location_rules=rules,
        latency_bounds=bounds or None,
        latency_override=override,
    )


def report(solution) -> str:
    return json.dumps(solution_to_dict(solution), sort_keys=True)


@pytest.mark.parametrize("mode", ["exactly", "at_most"])
@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_search_matches_reference(objective, mode, data):
    problem = data.draw(problems(objective, mode), label="problem")
    try:
        model = build_ilp(problem)
    except UnsatisfiableStructure:
        return
    assert report(solve(model)) == report(placement_reference.solve(model))


@pytest.mark.parametrize("mode", ["exactly", "at_most"])
@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_deep_search_matches_reference(objective, mode, data):
    # Nearest bound tables span up to 17 positions, and a weightless demand left
    # without a candidate makes 0 * inf = nan, which must prune as the scans do.
    problem = data.draw(problems(objective, mode, deep=True), label="problem")
    try:
        model = build_ilp(problem)
    except UnsatisfiableStructure:
        reject()  # so that every counted example is searched
    assert report(solve(model)) == report(placement_reference.solve(model))


@pytest.mark.parametrize("weight", [0, 1])
def test_demand_left_without_candidates_prunes_before_any_incumbent(weight):
    # Only b may serve d1, so the first path (choose a, skip the rest) meets a
    # demand no candidate can serve before any incumbent exists.
    candidates = tuple(Candidate(id=cid, geo=GeoPoint(0.0, 0.0)) for cid in "abcd")
    problem = PlacementProblem(
        candidates=candidates,
        demands=(DemandPoint(id="d1", geo=GeoPoint(0.0, 0.0), weight=weight),),
        objective="min_weighted_nearest",
        select_count=SelectCount(mode="exactly", n=1),
        latency_bounds={"d1": 5.0},
        latency_override={"d1": {"a": 9.0, "b": 1.0, "c": 9.0, "d": 9.0}},
    )
    model = build_ilp(problem)
    solution = solve(model)
    assert solution.chosen == ("b",)
    assert report(solution) == report(placement_reference.solve(model))


def nearest_problem(mode: str, n: int, override: dict) -> PlacementProblem:
    """Nearest-objective problem over candidates a and b, one demand per override row."""
    return PlacementProblem(
        candidates=tuple(Candidate(id=cid, geo=GeoPoint(0.0, 0.0), zone=cid) for cid in "ab"),
        demands=tuple(DemandPoint(id=did, geo=GeoPoint(0.0, 0.0), weight=1.0) for did in override),
        objective="min_weighted_nearest",
        select_count=SelectCount(mode=mode, n=n),
        latency_override=override,
    )


@pytest.mark.parametrize(
    "problem, chosen, assignment",
    [
        # No demand: the empty set (at_most) has nothing to assign, nor has a chosen one.
        (nearest_problem("at_most", 2, {}), (), {}),
        (nearest_problem("exactly", 1, {}), ("a",), {}),
        # d1 is as near to a as to b: the earlier chosen position wins the tie.
        (nearest_problem("exactly", 2, {"d1": {"a": 5.0, "b": 5.0}, "d2": {"a": 7.0, "b": 1.0}}), ("a", "b"),
         {"d1": "a", "d2": "b"}),
    ],
    ids=["no_demands_at_most", "no_demands_exactly", "tie_at_equal_latency"],
)
def test_nearest_assignment_matches_reference(problem, chosen, assignment):
    model = build_ilp(problem)
    solution = solve(model)
    assert (solution.chosen, solution.assignment) == (chosen, assignment)
    assert report(solution) == report(placement_reference.solve(model))
