"""Failure scenarios and unavailability fractions."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from netwattzap.errors import UnknownWasg
from netwattzap.failure import (
    FailureScenario,
    load_scenario,
    resolve_scenario,
    scenario_from_dict,
    unavailability,
)
from netwattzap.geo import GeoPoint
from netwattzap.grid_model import AdminStatRecord, WasgRegistry, aggregate_stats
from netwattzap.ingest import NODE_DTYPE, CleaningReport, InfraComponent, ParsedTopology
from netwattzap.overlap import TopologyTally, resolve_components, tally_topology

from conftest import link_rows, square_region


def regional(*ids, name="test"):
    return FailureScenario(name=name, mode="regional", failed=frozenset(ids))


def storm(threshold, name="storm"):
    return FailureScenario(name=name, mode="latitude_band", threshold_deg=threshold)


class TestScenarioValidation:
    def test_regional_needs_ids(self):
        with pytest.raises(ValueError):
            FailureScenario(name="x", mode="regional")

    def test_band_needs_threshold(self):
        with pytest.raises(ValueError):
            FailureScenario(name="x", mode="latitude_band")
        with pytest.raises(ValueError):
            FailureScenario(name="x", mode="latitude_band", threshold_deg=95.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            FailureScenario(name="x", mode="sideways", failed=frozenset({"A"}))

    def test_json_round_trip(self, tmp_path):
        for doc, scenario in (
            ({"name": "test", "mode": "regional", "failed": ["W02", "W01"]}, regional("W01", "W02")),
            ({"name": "storm", "mode": "latitude_band", "threshold_deg": 40.0}, storm(40.0)),
        ):
            path = tmp_path / "s.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert load_scenario(path) == scenario

    def test_from_dict_layouts(self):
        s = scenario_from_dict({"name": "eu out", "mode": "regional", "failed": ["EU"]})
        assert s.failed == frozenset({"EU"})
        s = scenario_from_dict({"name": "ss", "mode": "latitude_band", "threshold_deg": 40})
        assert s.threshold_deg == 40.0


class TestResolveScenario:
    def test_regional_identity(self, synthetic_registry):
        assert resolve_scenario(regional("W03"), synthetic_registry) == {"W03"}

    def test_regional_unknown_id(self, synthetic_registry):
        with pytest.raises(UnknownWasg):
            resolve_scenario(regional("nope"), synthetic_registry)

    def test_band_polar_vs_equatorial(self):
        registry = WasgRegistry(
            [
                square_region("POLAR1", "P1", 0.0, 60.0, 8.0),
                square_region("POLAR2", "P2", 20.0, -70.0, 8.0),
                square_region("EQ", "EQ", 40.0, -4.0, 8.0),
            ]
        )
        assert resolve_scenario(storm(50.0), registry) == {"POLAR1", "POLAR2"}

    def test_band_thresholds_on_synthetic_registry(self, synthetic_registry):
        # Row B tops: 46, 50, 54, 58, 62.
        assert resolve_scenario(storm(40.0), synthetic_registry) == {"W05", "W06", "W07", "W08", "W09"}
        assert resolve_scenario(storm(50.0), synthetic_registry) == {"W06", "W07", "W08", "W09"}
        assert resolve_scenario(storm(55.0), synthetic_registry) == {"W08", "W09"}

    def test_band_monotone_in_threshold(self, synthetic_registry):
        rng = random.Random(2)
        for _ in range(50):
            t1 = rng.uniform(1.0, 89.0)
            t2 = rng.uniform(t1, 89.0)
            wide = resolve_scenario(storm(t1), synthetic_registry)
            narrow = resolve_scenario(storm(t2), synthetic_registry)
            assert narrow <= wide


def _fixture_world(registry):
    components = [
        InfraComponent(id="i1", kind="ixp", geo=GeoPoint(9.0, -146.0)),      # W00
        InfraComponent(id="i2", kind="ixp", geo=GeoPoint(9.0, -106.0)),      # W01
        InfraComponent(id="i3", kind="ixp", geo=GeoPoint(-40.0, -60.0)),     # ocean
        InfraComponent(id="r1", kind="router", geo=GeoPoint(9.0, -146.0)),   # W00
        InfraComponent(id="d1", kind="datacenter", geo=GeoPoint(9.0, -146.0)),
        InfraComponent(id="d2", kind="datacenter", geo=GeoPoint(9.0, -106.0)),
        InfraComponent(id="d3", kind="datacenter", geo=GeoPoint(-40.0, -60.0)),
    ]
    return resolve_components(components, registry)


class TestUnavailability:
    def test_single_grid_total_loss(self):
        registry = WasgRegistry([square_region("ONLY", "O", 0.0, 0.0, 10.0, members=("C",))])
        components = resolve_components(
            [
                InfraComponent(id="i1", kind="ixp", geo=GeoPoint(5.0, 5.0)),
                InfraComponent(id="r1", kind="router", geo=GeoPoint(5.0, 5.0)),
                InfraComponent(id="d1", kind="datacenter", geo=GeoPoint(5.0, 5.0)),
            ],
            registry,
        )
        stats = aggregate_stats(registry, [AdminStatRecord(code="C", population=10, internet_users=8)])
        report = unavailability(regional("ONLY"), registry, components=components, stats=stats)
        assert report.fractions["ixps"] == 1.0
        assert report.fractions["routers"] == 1.0
        assert report.fractions["datacenter_zones"] == 1.0
        assert report.fractions["internet_users"] == 1.0

    @pytest.mark.parametrize("kind", ["ixp", "router", "datacenter"])
    def test_component_zone_missing_from_registry(self, kind):
        registry = WasgRegistry([square_region("ONLY", "O", 0.0, 0.0, 10.0)])
        components = [InfraComponent(id="c1", kind=kind, geo=GeoPoint(5.0, 5.0), zone="NOPE")]
        with pytest.raises(UnknownWasg, match="'NOPE'"):
            unavailability(regional("ONLY"), registry, components=components)

    def test_empty_failed_set_resolves_to_zero(self, synthetic_registry):
        components = _fixture_world(synthetic_registry)
        report = unavailability(storm(89.0), synthetic_registry, components=components)
        assert all(f == 0.0 for f in report.fractions.values())

    def test_fraction_denominators_include_unzoned(self, synthetic_registry):
        components = _fixture_world(synthetic_registry)
        report = unavailability(regional("W00"), synthetic_registry, components=components)
        assert report.fractions["ixps"] == pytest.approx(1 / 3)
        assert report.details["ixps"].fraction_zoned == pytest.approx(1 / 2)
        # Datacenter zones: W00, W01, plus one unzoned singleton.
        assert report.details["datacenter_zones"].total == 3
        assert report.fractions["datacenter_zones"] == pytest.approx(1 / 3)

    def test_link_unavailability_rules(self, synthetic_registry):
        nodes = np.array([
            (1, 9.0, -146.0),   # W00
            (2, 9.0, -106.0),   # W01
            (3, -40.0, -60.0),  # ocean
            (4, np.nan, np.nan),
        ], dtype=NODE_DTYPE)
        links = np.array([
            (1, 1, 2),  # both mapped, one end fails
            (2, 1, 3),  # one mapped (W00), fails with W00
            (3, 2, 3),  # one mapped (W01), survives
            (4, 3, 4),  # unmapped both ends, never fails
        ], dtype=np.int64)
        topo = ParsedTopology(nodes=nodes, links=link_rows(nodes["id"], links), report=CleaningReport())
        tally = tally_topology(topo, synthetic_registry)
        report = unavailability(regional("W00"), synthetic_registry, tally=tally)
        assert report.details["links"].unavailable == 2
        assert report.fractions["links"] == pytest.approx(2 / 4)
        # Three geolocated routers, one in W00 and one in open ocean.
        routers = report.details["routers"]
        assert (routers.unavailable, routers.total, routers.zoned_total) == (1, 3, 2)

    @pytest.mark.parametrize("field", ["routers", "pairs", "one_end"])
    def test_tally_zone_missing_from_registry(self, synthetic_registry, field):
        named = {"routers": {"NOPE": 2}, "pairs": {("NOPE", "W00"): 1}, "one_end": {"NOPE": 1}}
        tally = TopologyTally(counts={"both_mapped": 1, "one_mapped": 1, "none_mapped": 0}, pairs={}, one_end={})
        setattr(tally, field, named[field])
        with pytest.raises(UnknownWasg, match=r"^no region with id 'NOPE'$"):
            unavailability(regional("W00"), synthetic_registry, tally=tally)

    def test_superset_monotonicity(self, synthetic_registry, synthetic_components, synthetic_stats):
        components = resolve_components(synthetic_components, synthetic_registry)
        stats = aggregate_stats(synthetic_registry, synthetic_stats)
        rng = random.Random(6)
        ids = list(synthetic_registry.ids)
        for _ in range(30):
            small = set(rng.sample(ids, rng.randint(1, 5)))
            extra = set(rng.sample(ids, rng.randint(1, 5)))
            big = small | extra
            r_small = unavailability(
                regional(*small), synthetic_registry, components=components, stats=stats
            )
            r_big = unavailability(
                regional(*big), synthetic_registry, components=components, stats=stats
            )
            for metric, fraction in r_small.fractions.items():
                assert r_big.fractions[metric] >= fraction - 1e-12

    def test_disjoint_additivity_for_component_metrics(self, synthetic_registry, synthetic_components):
        components = resolve_components(synthetic_components, synthetic_registry)
        rng = random.Random(8)
        ids = list(synthetic_registry.ids)
        for _ in range(20):
            k = rng.randint(2, 6)
            sample = rng.sample(ids, k)
            cut = rng.randint(1, k - 1)
            s1, s2 = set(sample[:cut]), set(sample[cut:])
            r1 = unavailability(regional(*s1), synthetic_registry, components=components)
            r2 = unavailability(regional(*s2), synthetic_registry, components=components)
            r12 = unavailability(regional(*(s1 | s2)), synthetic_registry, components=components)
            for metric in ("ixps", "dns_roots", "routers"):
                assert r12.fractions[metric] == pytest.approx(
                    r1.fractions[metric] + r2.fractions[metric]
                )

    def test_report_serialization(self, synthetic_registry):
        components = _fixture_world(synthetic_registry)
        report = unavailability(regional("W00"), synthetic_registry, components=components)
        doc = report.to_dict()
        assert doc["scenario"] == "test"
        assert doc["failed_wasgs"] == ["W00"]
        assert set(doc["fractions"]) == set(doc["details"])
