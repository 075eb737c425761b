"""Registry loading and statistics aggregation."""

from __future__ import annotations

import copy
import random

import pytest

from netwattzap.errors import DuplicateAbbrev, DuplicateMember, MalformedDocument, MissingStats, OpenRing
from netwattzap.grid_model import (
    AdminStatRecord,
    WasgRegion,
    WasgRegistry,
    aggregate_stats,
    load_registry,
    registry_to_geojson,
)

from conftest import build_registry, build_stats, square_ring


def feature(rid, abbrev, members, lon0=0.0, lat0=0.0, size=5.0, population=100, internet_users=50):
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [list(list(v) for v in square_ring(lon0, lat0, size))]},
        "properties": {
            "id": rid,
            "name": f"Grid {rid}",
            "abbrev": abbrev,
            "members": list(members),
            "population": population,
            "internet_users": internet_users,
            "area_km2": 1000.0,
        },
    }


def collection(*features):
    return {"type": "FeatureCollection", "features": list(features)}


class TestLoadRegistry:
    def test_two_disjoint_squares(self):
        doc = collection(
            feature("A", "A", ["US-TX"], lon0=0.0),
            feature("B", "B", ["MX"], lon0=20.0),
        )
        registry = load_registry(doc)
        assert len(registry) == 2
        assert registry.get("A").abbrev == "A"
        assert registry.region_of_member("MX").id == "B"
        assert registry.region_of_member("ZZ") is None

    def test_duplicate_member_rejected(self):
        doc = collection(
            feature("A", "A", ["US-TX"], lon0=0.0),
            feature("B", "B", ["US-TX"], lon0=20.0),
        )
        with pytest.raises(DuplicateMember):
            load_registry(doc)

    def test_duplicate_abbrev_rejected(self):
        doc = collection(
            feature("A", "X", ["US"], lon0=0.0),
            feature("B", "X", ["MX"], lon0=20.0),
        )
        with pytest.raises(DuplicateAbbrev):
            load_registry(doc)

    def test_open_ring_rejected(self):
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["geometry"]["coordinates"][0].pop()  # drop closing vertex
        with pytest.raises(OpenRing):
            load_registry(doc)

    def test_tiny_ring_rejected(self):
        doc = collection(feature("A", "A", ["US"]))
        ring = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        doc["features"][0]["geometry"]["coordinates"] = [ring]
        with pytest.raises(OpenRing):
            load_registry(doc)

    def test_parse_failures(self):
        with pytest.raises(MalformedDocument):
            load_registry('{"type": "FeatureCollection"')
        with pytest.raises(MalformedDocument):
            load_registry({"type": "Feature"})
        doc = collection(feature("A", "A", ["US"]))
        del doc["features"][0]["properties"]["abbrev"]
        with pytest.raises(MalformedDocument):
            load_registry(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_ring_coordinate_rejected(self, bad, axis):
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["geometry"]["coordinates"][0][2][axis] = bad
        with pytest.raises(MalformedDocument, match="non-finite ring coordinate"):
            load_registry(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_area_rejected(self, bad):
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["properties"]["area_km2"] = bad
        with pytest.raises(MalformedDocument, match="not finite"):
            load_registry(doc)

    def test_nan_area_region_cannot_be_built(self):
        # A NaN area would win the smallest-area tie-break: NaN < 5 and 5 < NaN are both false.
        with pytest.raises(ValueError, match="not finite"):
            WasgRegion(
                id="A", name="A", abbrev="A", members=frozenset(),
                boundary=((square_ring(0.0, 0.0, 4.0),),),
                population=0, internet_users=0, area_km2=float("nan"),
            )

    def test_infinite_population_rejected(self):
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["properties"]["population"] = float("inf")
        with pytest.raises(MalformedDocument):
            load_registry(doc)

    def test_users_exceeding_population_rejected(self):
        doc = collection(feature("A", "A", ["US"], population=10, internet_users=20))
        with pytest.raises(MalformedDocument):
            load_registry(doc)

    def test_multipolygon_supported(self):
        doc = collection(feature("A", "A", ["US"]))
        ring1 = [list(v) for v in square_ring(0.0, 0.0, 4.0)]
        ring2 = [list(v) for v in square_ring(10.0, 0.0, 4.0)]
        doc["features"][0]["geometry"] = {"type": "MultiPolygon", "coordinates": [[ring1], [ring2]]}
        registry = load_registry(doc)
        assert len(registry.get("A").boundary) == 2

    def test_load_is_idempotent_under_round_trip(self):
        registry = build_registry()
        round_tripped = load_registry(registry_to_geojson(registry))
        assert round_tripped == registry
        assert load_registry(registry_to_geojson(round_tripped)) == registry

    def test_file_source(self, tmp_path):
        import json

        path = tmp_path / "wasg.geojson"
        path.write_text(json.dumps(collection(feature("A", "A", ["US"]))), encoding="utf-8")
        assert len(load_registry(path)) == 1


class TestAdminStatRecord:
    def test_penetration_fallback_required(self):
        with pytest.raises(ValueError):
            AdminStatRecord(code="X", population=10)

    def test_penetration_range(self):
        with pytest.raises(ValueError):
            AdminStatRecord(code="X", population=10, penetration=1.5)

    def test_effective_users(self):
        assert AdminStatRecord(code="X", population=80, internet_users=60).effective_internet_users() == 60
        assert AdminStatRecord(code="X", population=60, penetration=0.5).effective_internet_users() == 30


class TestAggregateStats:
    def registry_two_grids(self):
        return load_registry(
            collection(
                feature("A", "A", ["C-S1"], lon0=0.0),
                feature("B", "B", ["C-S2"], lon0=20.0),
            )
        )

    def test_state_split_uses_national_penetration(self):
        # Country pop 100, penetration 0.5, split 60/40 across two grids.
        registry = self.registry_two_grids()
        stats = [
            AdminStatRecord(code="C-S1", population=60, penetration=0.5),
            AdminStatRecord(code="C-S2", population=40, penetration=0.5),
        ]
        result = aggregate_stats(registry, stats)
        assert result.per_wasg["A"].internet_users == 30
        assert result.per_wasg["B"].internet_users == 20

    def test_single_country_identity(self):
        registry = load_registry(collection(feature("A", "A", ["C"])))
        result = aggregate_stats(registry, [AdminStatRecord(code="C", population=80, internet_users=60)])
        assert result.per_wasg["A"].population == 80
        assert result.per_wasg["A"].internet_users == 60
        assert result.uncovered.population == 0

    def test_uncovered_remainder(self):
        registry = load_registry(collection(feature("A", "A", ["C"])))
        stats = [
            AdminStatRecord(code="C", population=80, internet_users=60),
            AdminStatRecord(code="Z1", population=10, internet_users=5),
            AdminStatRecord(code="Z2", population=7, internet_users=2),
        ]
        result = aggregate_stats(registry, stats)
        assert result.uncovered_codes == ("Z1", "Z2")
        assert result.uncovered.population == 17
        assert result.uncovered.internet_users == 7

    def test_exact_sum_invariant(self):
        registry = build_registry()
        stats = build_stats()
        result = aggregate_stats(registry, stats)
        total_pop = sum(t.population for t in result.per_wasg.values()) + result.uncovered.population
        total_users = sum(t.internet_users for t in result.per_wasg.values()) + result.uncovered.internet_users
        assert total_pop == sum(r.population for r in stats)
        assert total_users == sum(r.effective_internet_users() for r in stats)
        assert result.world_totals().population == total_pop

    def test_permutation_invariance(self):
        registry = build_registry()
        stats = build_stats()
        shuffled = stats[:]
        random.Random(9).shuffle(shuffled)
        assert aggregate_stats(registry, stats) == aggregate_stats(registry, shuffled)

    def test_missing_codes_lenient_vs_strict(self):
        registry = self.registry_two_grids()
        stats = [AdminStatRecord(code="C-S1", population=60, penetration=0.5)]
        result = aggregate_stats(registry, stats)
        assert result.missing_codes == ("C-S2",)
        assert result.per_wasg["B"].population == 0
        with pytest.raises(MissingStats) as err:
            aggregate_stats(registry, stats, strict=True)
        assert err.value.codes == ("C-S2",)

    def test_duplicate_codes_rejected(self):
        registry = self.registry_two_grids()
        stats = [
            AdminStatRecord(code="C-S1", population=60, penetration=0.5),
            AdminStatRecord(code="C-S1", population=10, penetration=0.5),
        ]
        with pytest.raises(ValueError):
            aggregate_stats(registry, stats)


class TestRegistryContainer:
    def test_iteration_sorted_and_lookup(self):
        registry = build_registry()
        ids = [region.id for region in registry]
        assert ids == sorted(ids)
        assert "W03" in registry
        assert registry.by_abbrev("B2").id == "W07"

    def test_unknown_lookup(self):
        from netwattzap.errors import UnknownWasg

        registry = build_registry()
        with pytest.raises(UnknownWasg):
            registry.get("nope")
        with pytest.raises(UnknownWasg):
            registry.by_abbrev("nope")

    def test_registry_rejects_duplicate_ids(self):
        region = build_registry().get("W00")
        other = copy.deepcopy(region)
        with pytest.raises(MalformedDocument):
            WasgRegistry([region, other])
