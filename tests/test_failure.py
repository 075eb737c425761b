"""Failure scenarios and unavailability fractions."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwattzap.errors import UnknownWasg
from netwattzap.failure import (
    FailureScenario,
    MetricDetail,
    UnavailabilityReport,
    load_scenario,
    resolve_scenario,
    scenario_from_dict,
    unavailability,
)
from netwattzap.geo import GeoPoint
from netwattzap.grid_model import AdminStatRecord, AggregateResult, StatTotals, WasgRegistry, aggregate_stats
from netwattzap.ingest import COMPONENT_KINDS, NODE_DTYPE, CleaningReport, InfraComponent, ParsedTopology
from netwattzap.overlap import TopologyTally, az_collapse, resolve_components, tally_topology

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

    @pytest.mark.parametrize("kind", COMPONENT_KINDS)
    def test_component_zone_missing_from_registry(self, kind):
        registry = WasgRegistry([square_region("ONLY", "O", 0.0, 0.0, 10.0)])
        components = [InfraComponent(id="c1", kind=kind, geo=GeoPoint(5.0, 5.0), zone="NOPE")]
        with pytest.raises(UnknownWasg, match="'NOPE'"):
            unavailability(regional("ONLY"), registry, components=components)

    def test_smallest_missing_zone_is_named(self, synthetic_registry):
        # The kinds and the tally name missing zones in another order than their ids.
        components = [
            InfraComponent(id="i1", kind="ixp", geo=GeoPoint(5.0, 5.0), zone="NOPE_B"),
            InfraComponent(id="n1", kind="dns_root", geo=GeoPoint(5.0, 5.0), zone="NOPE_A"),
        ]
        counts = {"both_mapped": 0, "one_mapped": 1, "none_mapped": 0}
        tally = TopologyTally(counts=counts, pairs={}, one_end={"NOPE_C": 1})
        with pytest.raises(UnknownWasg, match=r"^no region with id 'NOPE_A'$"):
            unavailability(regional("W00"), synthetic_registry, components=components, tally=tally)

    def test_internet_users_cover_the_registry_grids(self, synthetic_registry):
        stats = AggregateResult(
            per_wasg={"W00": StatTotals(internet_users=3), "GONE": StatTotals(internet_users=5)},
            uncovered=StatTotals(internet_users=2),
            uncovered_codes=(),
            missing_codes=(),
        )
        d = unavailability(regional("W00"), synthetic_registry, stats=stats).details["internet_users"]
        assert (d.unavailable, d.total, d.zoned_total) == (3, 5, 3)

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


def recount_unavailability(scenario, registry, components=(), tally=None, stats=None) -> UnavailabilityReport:
    """Per-component recount: each metric counted on its own, as ``unavailability`` once did."""

    def check_zones(zones):
        for zone in sorted(set(zones) - {None}):
            registry.get(zone)

    failed = resolve_scenario(scenario, registry)
    if tally is not None:
        check_zones({*tally.routers, *tally.one_end, *itertools.chain.from_iterable(tally.pairs)})
    details = {}
    for kind, metric in (("ixp", "ixps"), ("dns_root", "dns_roots"), ("router", "routers")):
        per_zone = Counter(c.zone for c in components if c.kind == kind)
        if kind == "router" and tally is not None:
            per_zone.update(tally.routers)
            per_zone[None] += tally.routers_unzoned
        check_zones(per_zone)
        total = sum(per_zone.values())
        if total:
            unavailable = sum(n for zone, n in per_zone.items() if zone in failed)
            details[metric] = MetricDetail(unavailable=unavailable, total=total, zoned_total=total - per_zone[None])
    datacenters = [c for c in components if c.kind == "datacenter"]
    if datacenters:
        collapse = az_collapse(datacenters)
        check_zones(collapse.groups)
        details["datacenter_zones"] = MetricDetail(
            unavailable=sum(1 for zone in collapse.groups if zone in failed),
            total=collapse.zone_count,
            zoned_total=len(collapse.groups),
        )
    links_total = sum(tally.counts.values()) if tally is not None else 0
    if links_total:
        details["links"] = MetricDetail(
            unavailable=sum(c for (a, b), c in tally.pairs.items() if a in failed or b in failed)
            + sum(c for zone, c in tally.one_end.items() if zone in failed),
            total=links_total,
            zoned_total=tally.counts["both_mapped"] + tally.counts["one_mapped"],
        )
    if stats is not None:
        zoned_users = sum(t.internet_users for t in stats.per_wasg.values())
        details["internet_users"] = MetricDetail(
            unavailable=sum(stats.per_wasg[w].internet_users for w in failed if w in stats.per_wasg),
            total=stats.uncovered.internet_users + zoned_users,
            zoned_total=zoned_users,
        )
    return UnavailabilityReport(
        scenario=scenario.name,
        failed_wasgs=tuple(sorted(failed)),
        fractions={metric: d.fraction for metric, d in details.items()},
        details=details,
    )


# Four grids with their tops at latitudes 8, 18, 28 and 38, so latitude bands fail a few of them.
ORACLE_ZONES = ("G0", "G1", "G2", "G3")
ORACLE_REGISTRY = WasgRegistry(
    [square_region(z, f"A{i}", 20.0 * i, 10.0 * i, members=(f"C{i}",)) for i, z in enumerate(ORACLE_ZONES)]
)


@st.composite
def oracle_inputs(draw):
    zone = st.sampled_from(ORACLE_ZONES)
    placed = draw(st.lists(st.tuples(st.sampled_from(COMPONENT_KINDS), st.sampled_from((None,) + ORACLE_ZONES))))
    components = [InfraComponent(id=f"c{i}", kind=k, geo=GeoPoint(0.0, 0.0), zone=z) for i, (k, z) in enumerate(placed)]
    tally = None
    if draw(st.booleans()):
        count = st.integers(1, 10**6)
        pairs = draw(st.dictionaries(st.tuples(zone, zone).map(lambda p: tuple(sorted(p))), count))
        one_end = draw(st.dictionaries(zone, count))
        tally = TopologyTally(
            counts={"both_mapped": sum(pairs.values()), "one_mapped": sum(one_end.values()),
                    "none_mapped": draw(st.integers(0, 10))},
            pairs=dict(sorted(pairs.items())),
            one_end=one_end,
            routers=draw(st.dictionaries(zone, count)),
            routers_unzoned=draw(st.integers(0, 10)),
        )
    stats = None
    if draw(st.booleans()):
        codes = draw(st.lists(st.sampled_from(("C0", "C1", "C2", "C3", "X0", "X1")), unique=True))
        users = st.one_of(st.none(), st.integers(0, 10**20))
        records = []
        for code in codes:
            internet_users = draw(users)
            penetration = draw(st.floats(0.0, 1.0)) if internet_users is None else None
            records.append(AdminStatRecord(code, draw(st.integers(0, 10**20)), internet_users, penetration))
        stats = aggregate_stats(ORACLE_REGISTRY, records)
    scenario = draw(st.one_of(
        st.frozensets(zone, min_size=1).map(lambda failed: FailureScenario("r", "regional", failed)),
        st.floats(0.5, 89.5).map(lambda t: FailureScenario("b", "latitude_band", threshold_deg=t)),
    ))
    return scenario, components, tally, stats


@settings(max_examples=300, deadline=None)
@given(oracle_inputs())
def test_unavailability_matches_per_component_recount(inputs):
    scenario, components, tally, stats = inputs
    report = unavailability(scenario, ORACLE_REGISTRY, components=components, tally=tally, stats=stats).to_dict()
    expected = recount_unavailability(scenario, ORACLE_REGISTRY, components, tally, stats).to_dict()
    assert report == expected
    # Equal values of another type (1 == 1.0) would still change the report's bytes.
    for metric, numbers in expected["details"].items():
        assert {k: type(v) for k, v in report["details"][metric].items()} == {k: type(v) for k, v in numbers.items()}
