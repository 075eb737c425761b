"""The three JSON document loaders on wrong-shaped input.

Any one node of a valid registry, scenario or problem document is
replaced by arbitrary JSON; the loader must then return or raise a
``NetWattZapError``, never another exception. A list node replaced by a
string must raise ``MalformedDocument``: iterated, it would load its
characters. So must a number node replaced by its string form or a
boolean, which ``float()`` would parse.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netwattzap.errors import MalformedDocument, NetWattZapError
from netwattzap.failure import load_scenario
from netwattzap.grid_model import load_registry, registry_to_geojson
from netwattzap.placement import load_problem

from conftest import build_registry

REGISTRY = registry_to_geojson(build_registry())
REGISTRY["features"] = REGISTRY["features"][:2]

SCENARIO = {"name": "s", "mode": "regional", "failed": ["W00"], "threshold_deg": 40.0}

PROBLEM = {
    "candidates": [
        {"id": "c1", "lat": 10.0, "lon": 10.0, "zone": "Z1", "cost": 1.0, "country": "US"},
        {"id": "c2", "lat": -20.0, "lon": 20.0, "zone": "Z2", "cost": 2.0},
    ],
    "demands": [{"id": "d1", "lat": 0.0, "lon": 0.0, "weight": 2.0}],
    "select_count": {"mode": "exactly", "n": 1},
    "zone_cap": 1,
    "location_rules": [
        {"predicate": {"bbox": [0.0, 0.0, 30.0, 30.0]}, "min_count": 1},
        {"predicate": {"country_codes": ["US"]}, "min_count": 1},
        {"predicate": {"hemisphere": "northern"}, "min_count": 1},
    ],
    "latency_bounds": {"d1": 500.0},
    "latency_override": {"d1": {"c1": 10.0, "c2": 20.0}},
    "objective": "min_cost",
}

LOADERS = {
    "registry": (load_registry, REGISTRY),
    "scenario": (load_scenario, SCENARIO),
    "problem": (load_problem, PROBLEM),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


def node_paths(doc, prefix=()):
    """Key paths of every node of a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from node_paths(child, prefix + (key,))


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "doc.json"


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_documents_load(name, doc_path):
    loader, doc = LOADERS[name]
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    loader(doc_path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@pytest.mark.parametrize(
    "text", ["", "[1, 2", '"a string"', "[" * 100_000 + "]" * 100_000], ids=["empty", "truncated", "string", "deep"]
)
def test_bad_json_is_malformed_document(name, doc_path, text):
    doc_path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedDocument):
        LOADERS[name][0](doc_path)


@pytest.mark.parametrize(
    "name, path, value",
    [("problem", ("select_count", "n"), float("inf")), ("scenario", ("threshold_deg",), 10**400)],
)
def test_number_overflow_is_malformed_document(name, path, value, doc_path):
    loader, doc = LOADERS[name]
    doc_path.write_text(json.dumps(replaced(doc, path, value)), encoding="utf-8")
    with pytest.raises(MalformedDocument):
        loader(doc_path)


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("scenario", ("failed",), "W00"),
        ("problem", ("location_rules", 1, "predicate", "country_codes"), "US"),
        ("problem", ("location_rules", 0, "predicate", "bbox"), "1234"),
        ("registry", ("features", 0, "properties", "members"), "MX"),
    ],
)
def test_string_for_a_list_is_malformed_document(name, path, value, doc_path):
    loader, doc = LOADERS[name]
    doc_path.write_text(json.dumps(replaced(doc, path, value)), encoding="utf-8")
    with pytest.raises(MalformedDocument, match="is not a list"):
        loader(doc_path)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), text=st.text(max_size=6))
def test_any_list_node_swapped_for_a_string_is_malformed_document(name, doc_path, data, text):
    loader, doc = LOADERS[name]
    lists = [path for path in node_paths(doc) if isinstance(node_at(doc, path), list)]
    path = data.draw(st.sampled_from(lists), label="path")
    doc_path.write_text(json.dumps(replaced(doc, path, text)), encoding="utf-8")
    with pytest.raises(MalformedDocument):
        loader(doc_path)


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("scenario", ("threshold_deg",), "40", "threshold_deg is not a number"),
        ("problem", ("candidates", 0, "lat"), "10", "candidate lat is not a number"),
        ("problem", ("candidates", 0, "lat"), True, "candidate lat is not a number"),
        ("problem", ("select_count", "n"), "1", "select_count n is not a number"),
        ("problem", ("select_count", "n"), 1.5, "select_count n is not an integer"),
        ("problem", ("zone_cap",), 1.9, "zone_cap is not an integer"),
        ("registry", ("features", 0, "geometry", "coordinates", 0, 1), ["1", "2"], "ring coordinate is not a number"),
    ],
)
def test_wrong_number_type_is_malformed_document(name, path, value, message, doc_path):
    loader, doc = LOADERS[name]
    doc_path.write_text(json.dumps(replaced(doc, path, value)), encoding="utf-8")
    with pytest.raises(MalformedDocument, match=message):
        loader(doc_path)


def test_integral_float_loads_as_an_integer(doc_path):
    doc = replaced(replaced(PROBLEM, ("select_count", "n"), 1.0), ("zone_cap",), 2.0)
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    problem = load_problem(doc_path)
    assert (problem.select_count.n, problem.zone_cap) == (1, 2)
    assert type(problem.select_count.n) is int and type(problem.zone_cap) is int


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_number_node_swapped_for_its_string_or_a_boolean_is_malformed_document(name, doc_path, data):
    loader, doc = LOADERS[name]
    numbers = [
        path
        for path in node_paths(doc)
        if isinstance(node_at(doc, path), (int, float)) and not isinstance(node_at(doc, path), bool)
    ]
    path = data.draw(st.sampled_from(numbers), label="path")
    value = data.draw(st.sampled_from([str(node_at(doc, path)), True, False]), label="value")
    doc_path.write_text(json.dumps(replaced(doc, path, value)), encoding="utf-8")
    with pytest.raises(MalformedDocument):
        loader(doc_path)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_missing_file_is_malformed_document(name, tmp_path):
    with pytest.raises(MalformedDocument, match="cannot read"):
        LOADERS[name][0](tmp_path / "absent.json")


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=json_values)
def test_any_node_replaced_returns_or_raises_toolkit_error(name, doc_path, data, value):
    loader, doc = LOADERS[name]
    path = data.draw(st.sampled_from(list(node_paths(doc))), label="path")
    doc_path.write_text(json.dumps(replaced(doc, path, value)), encoding="utf-8")
    try:
        loader(doc_path)
    except NetWattZapError:
        pass
