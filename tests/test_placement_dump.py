"""``IlpModel.dump()`` text against recorded digests, and its declarations.

``dump_digests.json`` holds, per problem, the sha256 of the LP text or
the ``UnsatisfiableStructure`` message ``build_ilp`` raises. The problems
are the 120 random ones of ``TestRandomInstances`` (``random.Random(2024)``),
the five seed-1 ``resilience_sweep`` problems of ``bench/gen.py`` and the
four problems that ``demos/04_resilient_placement.py`` solves.

Rewrite the digests only when the LP text is meant to change:

    PYTHONPATH=src python tests/test_placement_dump.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from netwattzap import placement
from netwattzap.errors import UnsatisfiableStructure

from conftest import numpy_simd
from test_placement import random_problem

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("dump_digests.json")


def sweep_problems(out: Path) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import gen
    finally:
        sys.path.pop(0)
    gen.gen_resilience_sweep(1, out)
    return {f"sweep_{p.stem[len('problem_'):]}": placement.load_problem(p) for p in sorted(out.glob("problem_*.json"))}


def demo_problems() -> dict:
    """The problems the placement demo hands to ``solve_problem``, in call order."""
    seen = []
    solve_problem = placement.solve_problem

    def recording(problem, *args, **kwargs):
        seen.append(problem)
        return solve_problem(problem, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(placement, "solve_problem", recording)
        runpy.run_path(str(ROOT / "demos" / "04_resilient_placement.py"))
    return {f"demo_{k}": problem for k, problem in enumerate(seen, 1)}


def all_problems(out: Path) -> dict:
    rng = random.Random(2024)
    problems = {f"random_{k:03d}": random_problem(rng) for k in range(120)}
    problems.update(sweep_problems(out))
    problems.update(demo_problems())
    return problems


def outcome(problem) -> dict:
    try:
        text = placement.build_ilp(problem).dump()
    except UnsatisfiableStructure as exc:
        return {"unsatisfiable": str(exc)}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    return all_problems(tmp_path_factory.mktemp("sweep"))


def test_dump_matches_recorded_digests(problems):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == 129
    assert sorted(problems) == sorted(expected)
    for name, problem in problems.items():
        assert outcome(problem) == expected[name], (name, numpy_simd())


DECLARED = re.compile(r"^ 0 <= (\S+) <= 1$")


def test_every_dumped_variable_is_declared(problems):
    dumped = 0
    for name, problem in problems.items():
        try:
            text = placement.build_ilp(problem).dump()
        except UnsatisfiableStructure:
            continue
        lines = text.splitlines()
        binaries_at = lines.index("Binaries")
        bounds_at = lines.index("Bounds") if "Bounds" in lines else binaries_at
        # The objective line, then one " tag: terms sense rhs" line per row.
        rows = [lines[lines.index("Subject To") - 1]] + lines[lines.index("Subject To") + 1 : bounds_at]
        used = set(re.findall(r"[xyz]\[[^\]]*\]", " ".join(row.split(": ", 1)[1] for row in rows)))
        continuous = {DECLARED.match(line).group(1) for line in lines[bounds_at + 1 : binaries_at]}
        binaries = set(lines[binaries_at + 1].split())
        assert lines[-1] == "End", name
        assert not continuous & binaries, name
        assert used <= continuous | binaries, (name, sorted(used - continuous - binaries))
        dumped += 1
    assert dumped > 100


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = {name: outcome(p) for name, p in sorted(all_problems(Path(tmp)).items())}
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
