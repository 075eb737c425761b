"""``solve()`` reports against recorded digests.

``solve_digests.json`` holds, per problem, the sha256 of
``json.dumps(solution_to_dict(solve(model)), sort_keys=True)``, or the
``UnsatisfiableStructure`` message ``build_ilp`` raises. The report holds
the chosen set, the objective value, the assignment, the proof and
``nodes_explored``, so the digests pin the search tree node for node. The
problems are those of ``test_placement_dump.py``: the 120 random ones of
``TestRandomInstances``, the five seed-1 ``resilience_sweep`` problems and
the four problems of the placement demo.

Rewrite the digests only when the search is meant to change:

    PYTHONPATH=src python tests/test_solve_digests.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from netwattzap import placement
from netwattzap.errors import UnsatisfiableStructure

from test_placement_dump import all_problems

DIGESTS = Path(__file__).with_name("solve_digests.json")


def outcome(problem) -> dict:
    try:
        model = placement.build_ilp(problem)
    except UnsatisfiableStructure as exc:
        return {"unsatisfiable": str(exc)}
    report = json.dumps(placement.solution_to_dict(placement.solve(model)), sort_keys=True)
    return {"sha256": hashlib.sha256(report.encode()).hexdigest()}


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    return all_problems(tmp_path_factory.mktemp("sweep"))


def test_solve_matches_recorded_digests(problems):
    expected = json.loads(DIGESTS.read_text())
    assert len(expected) == 129
    assert sorted(problems) == sorted(expected)
    for name, problem in problems.items():
        assert outcome(problem) == expected[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: outcome(p) for name, p in sorted(all_problems(Path(tmp)).items())}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
