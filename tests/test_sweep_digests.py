"""Failure-scenario reports of the seed-1 resilience sweep against recorded digests.

``sweep_digests.json`` holds, per scenario, the sha256 of
``json.dumps({"flow": ..., "unavailability": ...}, sort_keys=True)`` over
the ``flow_reduction`` and ``unavailability`` reports of that scenario.
The inputs are those that ``bench/child.py`` builds for the
``resilience_sweep`` workload from ``bench/gen.py``'s seed-1 output: the
grid graph, the registry, the statistics, the zoned components and all
60 scenarios (the benchmark times and checks one chunk of 10 per seed).

Rewrite the digests only when a report is meant to change:

    PYTHONPATH=src python tests/test_sweep_digests.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import netwattzap as nz
from netwattzap.failure import scenario_from_dict

from conftest import numpy_simd
from test_connectivity import sweep_inputs

DIGESTS = Path(__file__).with_name("sweep_digests.json")


def sweep_digests(out: Path) -> dict[str, str]:
    """Scenario name -> sha256 of its two reports, over ``gen.gen_resilience_sweep(1, out)``."""
    pair_counts, failure_sets = sweep_inputs(out)
    graph = nz.build_graph(pair_counts)
    registry = nz.load_registry(out / "wasg.geojson")
    stats = nz.aggregate_stats(registry, nz.parse_stats(out / "stats.csv"))
    components = [
        nz.InfraComponent(id=cid, kind=kind, geo=nz.GeoPoint(lat, lon), zone=zone,
                          attrs=(("az_count", az),) if az else ())
        for cid, kind, lat, lon, zone, az in json.loads((out / "components.json").read_text(encoding="utf-8"))
    ]
    digests = {}
    docs = json.loads((out / "scenarios.json").read_text(encoding="utf-8"))
    for scenario, failed in zip(map(scenario_from_dict, docs), failure_sets, strict=True):
        report = {
            "flow": nz.flow_reduction(graph, failed).to_dict(),
            "unavailability": nz.unavailability(scenario, registry, components=components, stats=stats).to_dict(),
        }
        digests[scenario.name] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return digests


def test_sweep_matches_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == 60
    actual = sweep_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name, digest in actual.items():
        assert digest == expected[name], (name, numpy_simd())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = sweep_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
