"""Registry loading and statistics aggregation."""

from __future__ import annotations

import copy
import gc
import io
import json
import pickle
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from netwattzap import grid_model
from netwattzap.errors import DuplicateAbbrev, DuplicateMember, MalformedDocument, MalformedRow, MissingStats, OpenRing
from netwattzap.grid_model import (
    AdminStatRecord,
    WasgRegion,
    WasgRegistry,
    _coerce_ring,
    _load_document,
    aggregate_stats,
    load_registry,
    registry_to_geojson,
)
from netwattzap.ingest import parse_stats
from netwattzap.overlap import RegionIndex

from conftest import build_registry, build_stats, square_region, square_ring


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

    def test_parse_failures(self, tmp_path):
        truncated = tmp_path / "truncated.geojson"
        truncated.write_text('{"type": "FeatureCollection"', encoding="utf-8")
        with pytest.raises(MalformedDocument, match="invalid JSON"):
            load_registry(truncated)
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

    @pytest.mark.parametrize("lon0, lat0", [(0.0, 80.0), (0.0, -95.0), (175.0, 0.0), (-185.0, 0.0)])
    def test_ring_coordinate_outside_range_rejected(self, lon0, lat0):
        doc = collection(feature("A", "A", ["US"], lon0=lon0, lat0=lat0, size=15.0))
        with pytest.raises(MalformedDocument, match="'A'.*outside lon"):
            load_registry(doc)

    def test_ring_on_range_limits_loads(self):
        registry = load_registry(collection(feature("A", "A", ["US"], lon0=165.0, lat0=75.0, size=15.0)))
        assert max(lat for _, lat in registry.get("A").boundary[0][0]) == 90.0

    def test_strip_round_every_longitude_loads(self):
        doc = collection(feature("A", "A", ["US"]))
        strip = [[-180.0, 10.0], [180.0, 10.0], [180.0, 20.0], [-180.0, 20.0], [-180.0, 10.0]]
        doc["features"][0]["geometry"]["coordinates"] = [strip]
        index = RegionIndex(load_registry(doc))
        lons, lats = np.array([-179.0, 0.0, 179.0, 0.0]), np.array([15.0, 15.0, 15.0, 25.0])
        assert index.resolve(lons, lats).tolist() == [0, 0, 0, 1]

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

    def test_pipe_in_id_rejected(self):
        # The overlap report keys grid pairs as "a|b": ("A|B", "C") and ("A", "B|C") would print alike.
        with pytest.raises(ValueError, match=r"^region 'A\|B': '\|' in an id"):
            square_region("A|B", "AB", 0.0, 0.0)
        with pytest.raises(MalformedDocument, match=r"^feature 1 \('B\|C'\): region 'B\|C': '\|' in an id"):
            load_registry(collection(feature("A", "A", ["US"]), feature("B|C", "B", ["CA"], lon0=10.0)))

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

    def test_null_geometry_loads_without_boundary(self):
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["geometry"] = None
        assert load_registry(doc).get("A").boundary == ()

    def test_multipolygon_without_polygon_loads_without_boundary(self):
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["geometry"] = {"type": "MultiPolygon", "coordinates": []}
        assert load_registry(doc).get("A").boundary == ()

    @pytest.mark.parametrize(
        "geometry",
        [{"type": "Polygon", "coordinates": []}, {"type": "MultiPolygon", "coordinates": [[]]}],
        ids=["polygon", "multi"],
    )
    def test_polygon_without_ring_rejected(self, geometry):
        # It used to load, and resolution then failed in np.concatenate.
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["geometry"] = geometry
        with pytest.raises(MalformedDocument, match="'A': polygon with no ring"):
            load_registry(doc)

    def test_multipolygon_and_no_geometry_serialize(self):
        ring1 = square_ring(0.0, 0.0, 4.0)
        ring2 = square_ring(10.0, 0.0, 4.0)
        multi = WasgRegion("M", "Multi", "M", frozenset(), ((ring1,), (ring2,)), 0, 0, 10.0)
        bare = WasgRegion("N", "None", "N", frozenset(), (), 0, 0, 0.0)
        registry = WasgRegistry([multi, bare])
        doc = registry_to_geojson(registry)
        assert [f["geometry"] for f in doc["features"]] == [
            {"type": "MultiPolygon", "coordinates": [[[list(v) for v in ring1]], [[list(v) for v in ring2]]]},
            None,
        ]
        assert load_registry(doc) == registry

    def test_load_is_idempotent_under_round_trip(self):
        registry = build_registry()
        round_tripped = load_registry(registry_to_geojson(registry))
        assert round_tripped == registry
        assert load_registry(registry_to_geojson(round_tripped)) == registry

    def test_file_source(self, tmp_path):
        path = tmp_path / "wasg.geojson"
        path.write_text(json.dumps(collection(feature("A", "A", ["US"]))), encoding="utf-8")
        assert len(load_registry(path)) == 1


def rings(registry):
    return [ring for region in registry for polygon in region.boundary for ring in polygon]


class TestRingFormat:
    """Every ring is one read-only (n, 2) float64 array, however the region was built."""

    @pytest.mark.parametrize("source", ["tuples", "json", "json_integers", "deepcopy", "pickle"])
    def test_rings_are_read_only_float64_arrays(self, source):
        if source == "tuples":
            registry = build_registry()
        elif source.startswith("json"):
            doc = collection(feature("A", "A", ["US"]), feature("B", "B", ["MX"], lon0=20.0))
            if source == "json_integers":
                doc["features"][0]["geometry"]["coordinates"] = [[[0, 0], [4, 0], [4, 4], [0, 0]]]
            registry = load_registry(doc)
        elif source == "deepcopy":
            registry = copy.deepcopy(build_registry())
        else:
            registry = pickle.loads(pickle.dumps(build_registry()))
        assert rings(registry)
        for ring in rings(registry):
            assert type(ring) is np.ndarray and ring.dtype == np.float64
            assert ring.ndim == 2 and ring.shape[1] == 2
            assert not ring.flags.writeable
            with pytest.raises(ValueError):
                ring[0, 0] = 1.0

    def test_region_does_not_hold_the_callers_array(self):
        vertices = np.array(square_ring(0.0, 0.0, 4.0))
        region = WasgRegion(
            id="A", name="A", abbrev="A", members=frozenset(), boundary=((vertices,),),
            population=0, internet_users=0, area_km2=1.0,
        )
        ring = region.boundary[0][0]
        assert not np.shares_memory(ring, vertices) and not ring.flags.writeable
        assert vertices.flags.writeable
        vertices[1, 0] = 9.0
        assert ring[1, 0] == 4.0

    def test_ring_loaded_from_a_path_is_the_decoders_array(self, tmp_path):
        path = tmp_path / "wasg.geojson"
        path.write_text(
            json.dumps(collection(feature("A", "A", ["US"]), feature("B", "B", ["MX"], lon0=20.0))), encoding="utf-8"
        )
        decoded, coerce_ring = [], grid_model._coerce_ring

        def coerce(raw):
            decoded.append(coerce_ring(raw))
            return decoded[-1]

        with mock.patch.object(grid_model, "_coerce_ring", coerce):
            registry = load_registry(path)
        assert len(decoded) == len(rings(registry)) == 2
        for ring, made in zip(rings(registry), decoded):
            assert np.shares_memory(ring, made)
            assert type(ring) is np.ndarray and not ring.flags.writeable

    def test_regions_compare_by_identity_and_registries_by_content(self):
        a, b = square_region("A", "A", 0.0, 0.0), square_region("A", "A", 0.0, 0.0)
        assert a != b and a == a
        assert len({a, b}) == 2
        assert WasgRegistry([a]) == WasgRegistry([b])
        assert WasgRegistry([a]) != WasgRegistry([square_region("A", "A", 0.0, 0.5)])

    @pytest.mark.parametrize(
        "ring",
        [
            [[0, 0], [4, 0], [4, 4], [0, 0]],
            [[2**53 + 1, 0.5], [-(2**63) - 1, 2**64 + 3], [10**30 + 7, -0.0], [-0.0, 0]],
            [[-0.0, -0.0], [1.5, -0.0], [0.1, 0.2], [-0.0, -0.0]],
            [(1, 2.5), [3, 4]],
        ],
        ids=["ints", "big_ints", "negative_zero", "tuple_point"],
    )
    def test_coerced_ring_is_numpys_array_of_the_points(self, ring):
        # One flat list must give the same floats as numpy on the nested points.
        coerced = _coerce_ring(ring)
        expected = np.array(ring, dtype=np.float64)
        assert coerced.dtype == np.float64 and coerced.shape == expected.shape
        assert coerced.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "ring",
        [[[0, 0], [1, 0, 5], [1, 1], [0, 0]], [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 0, 0]], [[0], [1], [1], [0]]],
        ids=["ragged", "three_coordinates", "one_coordinate"],
    )
    def test_points_that_are_not_pairs_keep_the_region_message(self, ring):
        with pytest.raises(ValueError) as built:
            WasgRegion(
                id="A", name="A", abbrev="A", members=frozenset(), boundary=((ring,),),
                population=0, internet_users=0, area_km2=1000.0,
            )
        doc = collection(feature("A", "A", ["US"]))
        doc["features"][0]["geometry"]["coordinates"] = [ring]
        with pytest.raises(MalformedDocument) as loaded:
            load_registry(doc)
        assert str(loaded.value) == f"feature 0 ('A'): {built.value}"

    @pytest.mark.parametrize(
        "ring, error",
        [
            ([], OpenRing),
            ([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], OpenRing),
            ([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0)], ValueError),
            ([(0.0,), (1.0,), (1.0,), (0.0,)], ValueError),
            ([(0.0, 0.0), (1.0, 0.0, 5.0), (1.0, 1.0), (0.0, 0.0)], ValueError),
            ([(0.0, 0.0), (1.0, 0.0), (1.0, 91.0), (0.0, 0.0)], ValueError),
            ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.5)], OpenRing),
        ],
        ids=["empty", "three_vertices", "three_coordinates", "one_coordinate", "ragged", "lat_91", "open"],
    )
    def test_region_built_in_python_checks_its_rings(self, ring, error):
        with pytest.raises(error):
            WasgRegion(
                id="A", name="A", abbrev="A", members=frozenset(), boundary=((ring,),),
                population=0, internet_users=0, area_km2=1.0,
            )


class Pairs(list):
    """A JSON object as its (key, value) pairs, so that a key can repeat."""


def dumps(value) -> str:
    """JSON text of ``value``; NaN and the infinities as the literals Python's decoder reads."""
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {dumps(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dumps, value)) + "]"
    return json.dumps(value)


def registry_outcome(source):
    """Each region with its rings' bytes, dtype, shape and write flag; or the error's type and text."""
    try:
        registry = load_registry(source)
    except MalformedDocument as exc:
        return type(exc).__name__, str(exc)
    return [
        (
            region.id, region.name, region.abbrev, sorted(region.members),
            region.population, region.internet_users, region.area_km2,
            [[(r.tobytes(), r.dtype.str, r.shape, r.flags.writeable) for r in polygon] for polygon in region.boundary],
        )
        for region in registry
    ]


# Mostly the boundary itself, so that most documents load.
PLACES = ["geometry"] * 4 + ["feature", "properties", "members", "document"]
# bool, string and null coordinates, an integer no float holds, and the NaN and infinity literals.
ODD_VALUES = [True, False, "1", None, 10**400, -(10**400), float("nan"), float("inf"), float("-inf")]
SQUARE = [[0, 0], [4, 0], [4, 4], [0, 0]]


def placed(geometry, place: str) -> Pairs:
    """A one-grid FeatureCollection holding the geometry-shaped ``geometry`` at ``place``.

    Anywhere but "geometry", the grid keeps a square boundary, and the
    placed object is one that ``load_registry`` does not read as a boundary.
    """
    shape = list(geometry) if isinstance(geometry, Pairs) else [("shape", geometry)]
    props = Pairs([("id", "A"), ("name", "A"), ("abbrev", "A"), ("members", ["US"]), ("area_km2", 1000.0)])
    if place == "properties":
        props += shape
    if place == "members":
        props[3] = ("members", ["US", geometry])
    square = {"type": "Polygon", "coordinates": [SQUARE]}
    grid = Pairs([("type", "Feature"), ("geometry", geometry if place == "geometry" else square), ("properties", props)])
    if place == "feature":
        grid += shape
    top = Pairs([("type", "FeatureCollection"), ("features", [grid])])
    return Pairs(top + shape) if place == "document" else top


@st.composite
def ring_values(draw):
    first = [draw(st.integers(-170, 170)), draw(st.integers(-80, 80))]
    middle = [
        [draw(st.floats(-180, 180) | st.integers(-180, 180)), draw(st.floats(-90, 90) | st.integers(-90, 90))]
        for _ in range(draw(st.integers(2, 4)))
    ]
    ring = [first, *middle, list(first)]
    change = draw(st.sampled_from(["none"] * 4 + ["coordinate", "point", "all_points", "ring"]))
    if change == "coordinate":
        ring[draw(st.integers(0, len(ring) - 1))][draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_VALUES))
    elif change == "point":
        i = draw(st.integers(0, len(ring) - 1))
        ring[i] = draw(st.sampled_from([ring[i][:1], ring[i] + [0], [], "p", None, 7, {}]))
    elif change == "all_points":
        ring = draw(st.sampled_from([[p[:1] for p in ring], [p + [0.5] for p in ring]]))
    elif change == "ring":
        ring = draw(st.sampled_from([*ODD_VALUES, []]))
    return ring


@st.composite
def geometries(draw):
    gtype = draw(st.sampled_from(["Polygon", "MultiPolygon"] * 3 + ["Point", None, "absent"]))
    if gtype == "absent":
        return draw(st.sampled_from([None, [1, 2], 3, "Polygon", Pairs()]))

    def polygon():
        return [draw(ring_values()) for _ in range(draw(st.sampled_from([1, 1, 2, 0])))]

    def coordinates():
        if draw(st.integers(0, 7)) == 0:
            return draw(st.sampled_from(ODD_VALUES))
        return [polygon() for _ in range(draw(st.sampled_from([1, 2, 0])))] if gtype == "MultiPolygon" else polygon()

    geometry = Pairs([("type", gtype), ("coordinates", coordinates())])
    if draw(st.booleans()):
        geometry.insert(draw(st.integers(0, 2)), ("coordinates", coordinates()))
    return geometry


class TestDecodeHook:
    """A registry file loads exactly as the same document, parsed first, does."""

    @settings(max_examples=150, deadline=None)
    @example(doc=placed({"type": "Polygon", "coordinates": [SQUARE, [[0.1, 1], [2, 0.3], [2, 2], [0.1, 1]]]}, "geometry"))
    @example(doc=placed({"type": "MultiPolygon", "coordinates": [[SQUARE], [[[9, 9], [9, 8], [8, 8], [9, 9]]]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[[0, 0], [4, True], [4, 4], [0, 0]]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[[0, 0], ["4", 0], [4, 4], [0, 0]]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": None}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[[0, 0], [4, None], [4, 4], [0, 0]]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[p + [1] for p in SQUARE]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[p[:1] for p in SQUARE]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[[0, 0], [10**400, 0], [4, 4], [0, 0]]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[[0, 0], [float("nan"), 0], [4, 4], [0, 0]]]}, "geometry"))
    @example(doc=placed({"type": "Polygon", "coordinates": [[[0, 0], [4, float("-inf")], [4, 4], [0, 0]]]}, "geometry"))
    @example(doc=placed(Pairs([("type", "Polygon"), ("coordinates", [SQUARE]), ("coordinates", None)]), "geometry"))
    @example(doc=placed(Pairs([("coordinates", None), ("type", "Polygon"), ("coordinates", [SQUARE])]), "geometry"))
    @example(doc=placed(Pairs([("type", "Polygon"), ("coordinates", [SQUARE])]), "feature"))
    @example(doc=placed(Pairs([("type", "MultiPolygon"), ("coordinates", [[SQUARE]])]), "properties"))
    @example(doc=placed(Pairs([("type", "Polygon"), ("coordinates", [SQUARE])]), "members"))
    @example(doc=placed(Pairs([("type", "Polygon"), ("coordinates", [SQUARE])]), "document"))
    @given(doc=st.builds(placed, geometries(), st.sampled_from(PLACES)))
    def test_path_loads_as_the_parsed_mapping(self, doc):
        text = dumps(doc)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "wasg.geojson"
            path.write_text(text, encoding="utf-8")
            assert registry_outcome(path) == registry_outcome(json.loads(text))


class TestLoadDocumentCollector:
    """The decode pauses the cyclic collector and leaves it as it found it, however it ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("ending", ["loaded", "unreadable", "invalid_json", "hook_raises"])
    def test_collector_state_is_restored(self, tmp_path, enabled, ending):
        path = tmp_path / "doc.json"
        path.write_text('{"a": {"b": 1}}' if ending != "invalid_json" else '{"a": ', encoding="utf-8")
        seen = []

        def hook(obj):
            seen.append(gc.isenabled())
            if ending == "hook_raises":
                raise RuntimeError("hook")
            return obj

        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if ending == "loaded":
                assert _load_document(path, hook) == {"a": {"b": 1}}
            else:
                with pytest.raises(RuntimeError if ending == "hook_raises" else MalformedDocument):
                    _load_document(tmp_path / "missing.json" if ending == "unreadable" else path, hook)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert not any(seen)


def test_registry_decode_peak_memory_is_bounded_by_the_file(tmp_path):
    # 43 grids of 1,000 distinct vertices each: more than 1 MiB of ring text.
    # Each grid keeps to one hemisphere of longitude, so no edge crosses the antimeridian.
    rng = random.Random(7)
    features = []
    for i in range(43):
        side = 1 if i % 2 else -1
        ring = [[round(side * rng.uniform(5, 175), 6), round(rng.uniform(-80, 80), 6)] for _ in range(1000)]
        features.append(feature(f"G{i:02d}", f"G{i:02d}", [f"M{i}"]))
        features[-1]["geometry"]["coordinates"] = [ring + ring[:1]]
    path = tmp_path / "wasg.geojson"
    path.write_text(json.dumps(collection(*features)), encoding="utf-8")
    size = path.stat().st_size
    assert size >= 2**20
    tracemalloc.start()
    try:
        registry = load_registry(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(registry) == 43
    assert peak <= 3 * size, f"peak {peak} B for a {size} B file"


@st.composite
def antimeridian_boxes(draw):
    """(west, east, south, north): a box that runs east from lon west > 0 across 180 to lon east < 0.

    One of west and east may lie on the antimeridian itself, but not both: a box from 180 to -180 is a
    strip round every longitude.
    """
    west = draw(st.floats(1.0, 179.5) | st.just(180.0))
    east = draw(st.floats(-179.5, west - 180.5) | st.just(-180.0))
    assume(west < 180.0 or east > -180.0)
    south = draw(st.floats(-85.0, 80.0))
    return west, east, south, south + draw(st.floats(0.5, 5.0))


def box_ring(lon0, lon1, south, north, reverse):
    ring = [[lon0, south], [lon1, south], [lon1, north], [lon0, north], [lon0, south]]
    return ring[::-1] if reverse else ring


class TestAntimeridian:
    """A ring edge across the antimeridian is refused; the same ring split at +-180 loads."""

    @settings(max_examples=60, deadline=None)
    @given(box=antimeridian_boxes(), reverse=st.booleans())
    # One vertex on the antimeridian: such a ring used to load and resolve lon 0 inside.
    @example(box=(180.0, -178.0, -18.0, -16.0), reverse=False)
    @example(box=(178.0, -180.0, -18.0, -16.0), reverse=True)
    def test_unsplit_ring_is_refused(self, box, reverse):
        west, east, south, north = box
        doc = collection(feature("A", "A", ["US"]), feature("FJ", "FJ", ["FJ"], lon0=30.0))
        doc["features"][1]["geometry"] = {
            "type": "MultiPolygon",
            "coordinates": [[SQUARE], [box_ring(west, east, south, north, reverse)]],
        }
        with pytest.raises(MalformedDocument) as refused:
            load_registry(doc)
        assert str(refused.value) == (
            "feature 1 ('FJ'): region 'FJ': polygon 1 ring 0 has an edge spanning more than 180 degrees"
            " of longitude; split rings that cross the antimeridian at lon +-180"
        )

    @settings(max_examples=60, deadline=None)
    @given(box=antimeridian_boxes(), reverse=st.booleans())
    def test_ring_split_at_the_antimeridian_loads_and_resolves(self, box, reverse):
        west, east, south, north = box
        doc = collection(feature("FJ", "FJ", ["FJ"]))
        doc["features"][0]["geometry"] = {
            "type": "MultiPolygon",
            "coordinates": [
                [box_ring(west, 180.0, south, north, reverse)],
                [box_ring(-180.0, east, south, north, reverse)],
            ],
        }
        index = RegionIndex(load_registry(doc))
        lat = (south + north) / 2
        lons = np.array([(west + 180.0) / 2, (east - 180.0) / 2, 0.0, (west + east) / 2])
        assert index.resolve(lons, np.full(4, lat)).tolist() == [0, 0, 1, 1]


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


def _feature_with(**properties):
    doc = feature("A", "A", ["US"])
    doc["properties"].update(properties)
    return collection(doc)


@pytest.mark.parametrize(
    "load, error, message",
    [
        (
            lambda: load_registry(_feature_with(population=-1)),
            MalformedDocument,
            "feature 0 ('A'): region 'A': negative population figures",
        ),
        (
            lambda: load_registry(_feature_with(area_km2=0)),
            MalformedDocument,
            "feature 0 ('A'): region 'A': area_km2 must be positive when a boundary is present",
        ),
        (
            lambda: parse_stats(io.StringIO("code,population,internet_users,penetration,area_km2\nUS,10,-1,,\n")),
            MalformedRow,
            "row 2: stat 'US': negative internet_users",
        ),
        (lambda: load_registry(io.StringIO("{}")), MalformedDocument, "unsupported document source type StringIO"),
    ],
    ids=["negative_population", "zero_area", "negative_users", "open_file"],
)
def test_refused_input_names_its_cause(load, error, message):
    with pytest.raises(error) as err:
        load()
    assert str(err.value) == message


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

    def test_areas_sum_left_to_right(self):
        # Ten codes of 0.1 km2 add up to 0.9999999999999999 left to right;
        # a compensated sum (Python 3.12's sum(), math.fsum) gives 1.0.
        grid = [f"G{i}" for i in range(10)]
        outside = [f"X{i}" for i in range(10)]
        registry = WasgRegistry([square_region("A", "A", 0.0, 0.0, members=grid)])
        stats = [AdminStatRecord(code=code, population=1, internet_users=1, area_km2=0.1) for code in grid + outside]
        result = aggregate_stats(registry, stats)
        assert result.per_wasg["A"].area_km2 == 0.9999999999999999
        assert result.uncovered.area_km2 == 0.9999999999999999

    def test_areas_sum_in_sorted_code_order(self):
        # 1.0 first absorbs each 2**-53 (round half to even); the small ones
        # first add up to 5 ulps of 1.0 and survive. "A" sorts before "B*".
        small = [f"B{i}" for i in range(10)]
        registry = WasgRegistry([square_region("G", "G", 0.0, 0.0, members=["A", *small])])
        stats = [AdminStatRecord(code=code, population=1, internet_users=1, area_km2=2.0**-53) for code in small]
        stats.append(AdminStatRecord(code="A", population=1, internet_users=1, area_km2=1.0))
        outside = [
            AdminStatRecord(code=f"Z{r.code}", population=1, internet_users=1, area_km2=r.area_km2) for r in stats
        ]
        result = aggregate_stats(registry, stats + outside)
        assert result.per_wasg["G"].area_km2 == 1.0
        assert result.uncovered.area_km2 == 1.0
        assert 2.0**-53 * 10 + 1.0 != 1.0

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

    def test_registry_equality_is_by_content(self):
        assert build_registry() == build_registry()
        # Against anything else __eq__ returns NotImplemented, so == falls back to identity.
        registry = build_registry()
        assert registry.__eq__(registry_to_geojson(registry)) is NotImplemented
        assert registry != registry_to_geojson(registry)

    def test_registry_rejects_duplicate_ids(self):
        region = build_registry().get("W00")
        other = copy.deepcopy(region)
        with pytest.raises(MalformedDocument):
            WasgRegistry([region, other])
