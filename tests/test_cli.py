"""End-to-end CLI tests: pipelines, exit codes, and byte-determinism."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from netwattzap.cli import main
from netwattzap.grid_model import WasgRegistry, registry_to_geojson

from conftest import build_cli_workspace, build_registry, square_region, square_ring
from test_placement import deep_min_cost_doc

ROOT = Path(__file__).resolve().parents[1]

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Files for a three-grid path topology plus placement/scenario inputs."""
    root = tmp_path_factory.mktemp("cli")
    build_cli_workspace(root)
    return root


class TestValidate:
    def test_clean_fixture_exits_zero(self, workspace, capsys):
        code = main(
            [
                "validate",
                "--wasg", str(workspace / "wasg.geojson"),
                "--stats", str(workspace / "stats.csv"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
                "--scenario", str(workspace / "scenario_regional.json"),
                "--problem", str(workspace / "problem.json"),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["status"] == "clean"

    def test_open_ring_exits_two_and_names_error(self, workspace, capsys):
        code = main(["validate", "--wasg", str(workspace / "wasg_openring.geojson")])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert any("OpenRing" in v for v in out["violations"])

    @pytest.mark.parametrize(
        "path, value",
        [
            (("geometry", "coordinates", 0, 1, 0), float("nan")),
            (("geometry", "coordinates", 0, 2, 1), float("inf")),
            (("properties", "area_km2"), float("nan")),
            (("properties", "area_km2"), float("-inf")),
            (("properties", "population"), float("inf")),
        ],
    )
    def test_non_finite_registry_number_is_one_error_line(self, workspace, tmp_path, capsys, path, value):
        doc = json.loads((workspace / "wasg.geojson").read_text(encoding="utf-8"))
        target = doc["features"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        bad = tmp_path / "wasg_non_finite.geojson"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["overlap", "--wasg", str(bad), "--components", f"ixp={workspace / 'ixps.csv'}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: MalformedDocument: ")
        assert err.count("\n") == 1

    def test_ring_outside_coordinate_range_exits_two(self, workspace, tmp_path, capsys):
        # A ring reaching lat 95 used to load and validate as "clean".
        doc = json.loads((workspace / "wasg.geojson").read_text(encoding="utf-8"))
        region = doc["features"][0]["properties"]["id"]
        doc["features"][0]["geometry"] = {
            "type": "Polygon",
            "coordinates": [[[0.0, 80.0], [10.0, 80.0], [10.0, 95.0], [0.0, 95.0], [0.0, 80.0]]],
        }
        bad = tmp_path / "wasg_polar.geojson"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["validate", "--wasg", str(bad)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["status"] == "violations"
        assert any(v.startswith("MalformedDocument: ") and repr(region) in v for v in out["violations"])

    @pytest.mark.parametrize(
        "geometry",
        [{"type": "Polygon", "coordinates": []}, {"type": "MultiPolygon", "coordinates": [[]]}],
        ids=["polygon", "multi"],
    )
    def test_polygon_without_ring_is_a_violation(self, workspace, tmp_path, capsys, geometry):
        # It used to load, and the overlap sampler then aborted validate with a ValueError.
        doc = json.loads((workspace / "wasg.geojson").read_text(encoding="utf-8"))
        region = doc["features"][0]["properties"]["id"]
        doc["features"][0]["geometry"] = geometry
        bad = tmp_path / "wasg_ringless.geojson"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["validate", "--wasg", str(bad)])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["status"] == "violations"
        assert out["violations"] == [
            f"MalformedDocument: feature 0 ({region!r}): region {region!r}: polygon with no ring"
        ]

    def test_duplicate_candidate_ids_exit_two(self, workspace, capsys):
        code = main(["validate", "--problem", str(workspace / "problem_dup.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert any("unique" in v for v in out["violations"])

    def test_warnings_exit_one(self, workspace, capsys):
        # Stats cover only a subset of member codes.
        partial = workspace / "stats_partial.csv"
        partial.write_text(
            "code,population,internet_users,penetration,area_km2\nM00A,1,1,,\n", encoding="utf-8"
        )
        code = main(
            ["validate", "--wasg", str(workspace / "wasg.geojson"), "--stats", str(partial)]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out["status"] == "warnings"

    def test_skipped_row_and_dangling_link_warnings_exit_one(self, workspace, tmp_path, capsys):
        components = tmp_path / "c.csv"
        components.write_text(
            "id,kind,lat,lon,weight,attrs_json\nix1,ixp,9.0,-146.0,,\nix2,ixp,,,,\n", encoding="utf-8"
        )
        (tmp_path / "n").write_text("node N1: 10.0.0.1\nnode N2: 10.0.0.2\n", encoding="utf-8")
        (tmp_path / "l").write_text("link L1: N1 N2\nlink L2: N2 N9\n", encoding="utf-8")
        code = main(
            [
                "validate",
                "--components", f"ixp={components}",
                "--nodes", str(tmp_path / "n"),
                "--links", str(tmp_path / "l"),
            ]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 1
        assert out == {
            "status": "warnings",
            "violations": [],
            "warnings": sorted(
                [f"{components}: row 3 skipped (missing geolocation)", "1 links reference undefined nodes"]
            ),
        }

    @pytest.mark.parametrize("flag", ["--stats", "--nodes"])
    def test_missing_input_file_is_a_violation(self, tmp_path, capsys, flag):
        missing = tmp_path / "missing"
        code = main(["validate", flag, str(missing)])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 2
        assert captured.err == ""
        assert out["status"] == "violations"
        assert out["violations"] == [f"FileNotFoundError: [Errno 2] No such file or directory: {str(missing)!r}"]

    @pytest.mark.parametrize("kind", ["nodes", "components"])
    def test_undecodable_input_is_a_violation(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"node N1: 1.2.3.4\n\xff\n")
        args = ["--nodes", str(path)] if kind == "nodes" else ["--components", f"ixp={path}"]
        code = main(["validate", *args])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 2
        assert captured.err == ""
        assert out["status"] == "violations"
        assert len(out["violations"]) == 1
        assert out["violations"][0].startswith("UnicodeDecodeError: ")


class TestOverlap:
    def test_each_point_resolved_once(self, workspace, tmp_path, monkeypatch):
        # 3 IXPs plus 3 geolocated routers: the routers feed both the links and
        # the router counts, from one resolution.
        from netwattzap import overlap

        resolved = []
        resolve = overlap.RegionIndex.resolve

        def counting(self, lons, lats):
            resolved.append(len(lons))
            return resolve(self, lons, lats)

        monkeypatch.setattr(overlap.RegionIndex, "resolve", counting)
        out = tmp_path / "report.json"
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert sorted(resolved) == [3, 3]
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coverage"]["router"] == {"zoned": 3, "total": 3}
        assert report["link_categories"]["both_mapped"] == 3

    def test_coverage_two_of_three(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coverage"]["ixp"] == {"zoned": 2, "total": 3}
        assert report["per_wasg"]["W00"]["ixp"] == 1
        assert report["uncovered"]["ixp"] == 1

    def test_missing_geo_file_is_clear_error(self, workspace, capsys):
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "nope.geo"),
                "--links", str(workspace / "topo.links"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "nope.geo" in err

    def test_cumulative_query_prints_k(self, workspace, tmp_path, capsys):
        for metric in ("ixp", "ixps"):  # plural alias accepted
            code = main(
                [
                    "overlap",
                    "--wasg", str(workspace / "wasg.geojson"),
                    "--components", f"ixp={workspace / 'ixps.csv'}",
                    "--out", str(tmp_path / "r.json"),
                    "--metric", metric,
                    "--cumulative", "0.65",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "smallest k" in out and ": 2" in out

    def test_unknown_metric_rejected(self, workspace, tmp_path, capsys):
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--out", str(tmp_path / "r.json"),
                "--metric", "teapots",
                "--cumulative", "0.5",
            ]
        )
        assert code == 2
        assert "unknown metric" in capsys.readouterr().err

    @pytest.mark.parametrize("metric, fraction", [("teapots", "0.5"), ("ixp", "1.5"), (None, "0.5")])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_bad_cumulative_query_writes_no_report(self, workspace, tmp_path, capsys, metric, fraction, to_file):
        out = tmp_path / "r.json"
        args = ["overlap", "--wasg", str(workspace / "wasg.geojson"), "--components", f"ixp={workspace / 'ixps.csv'}"]
        args += ["--cumulative", fraction] + (["--metric", metric] if metric else [])
        args += ["--out", str(out)] if to_file else []
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.startswith("error: ValueError: ")
        assert captured.err.count("\n") == 1

    def test_csv_format(self, workspace, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("table,a,b,value\n")
        assert "pair_counts,W00,W01,2" in text

    def test_bad_component_spec(self, workspace, capsys):
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", "nonsense",
            ]
        )
        assert code == 2
        assert "KIND=PATH" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_component_weight_is_one_error_line(self, workspace, tmp_path, capsys, bad):
        path = tmp_path / "ixps_non_finite.csv"
        path.write_text(f"id,kind,lat,lon,weight,attrs_json\nix1,ixp,9.0,-146.0,{bad},\n", encoding="utf-8")
        code = main(["overlap", "--wasg", str(workspace / "wasg.geojson"), "--components", f"ixp={path}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedRow: ")
        assert captured.err.count("\n") == 1

    def test_nan_stats_area_is_one_error_line(self, workspace, tmp_path, capsys):
        # A NaN area used to exit 0 and write "area_km2": NaN into the JSON report.
        rows = (workspace / "stats.csv").read_text(encoding="utf-8").splitlines()
        rows[1] = rows[1].rsplit(",", 1)[0] + ",nan"
        path = tmp_path / "stats_nan.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--stats", str(path),
                "--out", str(tmp_path / "r.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: MalformedRow: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "shape",
        ["registry_array", "features_number", "feature_string", "geometry_array", "properties_bool"],
    )
    def test_wrong_shaped_registry_is_one_error_line(self, workspace, tmp_path, capsys, shape):
        doc = json.loads((workspace / "wasg.geojson").read_text(encoding="utf-8"))
        if shape == "registry_array":
            doc = [doc]
        elif shape == "features_number":
            doc["features"] = 7
        elif shape == "feature_string":
            doc["features"][0] = "W00"
        elif shape == "geometry_array":
            doc["features"][0]["geometry"] = [1, 2]
        else:
            doc["features"][0]["properties"] = True
        bad = tmp_path / "wasg_wrong_shape.geojson"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["overlap", "--wasg", str(bad), "--components", f"ixp={workspace / 'ixps.csv'}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ")
        assert captured.err.count("\n") == 1
        code = main(["validate", "--wasg", str(bad)])
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert code == 2
        assert len(violations) == 1 and violations[0].startswith("MalformedDocument: ")


class TestFailureCommand:
    def test_single_grid_all_fractions_one(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "failure",
                "--wasg", str(workspace / "wasg_single.geojson"),
                "--scenario", str(workspace / "scenario_single.json"),
                "--components", f"ixp={workspace / 'ixps_single.csv'}",
                "--components", f"datacenter={workspace / 'dcs_single.csv'}",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["failed_wasgs"] == ["A"]
        assert all(f == 1.0 for f in report["fractions"].values())

    def test_band_scenario_failed_set(self, workspace, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "failure",
                "--wasg", str(workspace / "wasg.geojson"),
                "--scenario", str(workspace / "scenario_band.json"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["failed_wasgs"] == ["W06", "W07", "W08", "W09"]

    def test_geojson_output_lists_failed_polygons(self, workspace, tmp_path):
        out = tmp_path / "failed.geojson"
        code = main(
            [
                "failure",
                "--wasg", str(workspace / "wasg.geojson"),
                "--scenario", str(workspace / "scenario_regional.json"),
                "--format", "geojson",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [f["properties"]["id"] for f in doc["features"]] == ["W01"]

    def test_geojson_output_keeps_a_failed_multipolygon(self, tmp_path):
        doc = json.loads(json.dumps(registry_to_geojson(build_registry())))
        feature = doc["features"][1]
        ring = feature["geometry"]["coordinates"][0]
        islands = [[[lon + 0.5, lat + 20.0] for lon, lat in ring]]
        feature["geometry"] = {"type": "MultiPolygon", "coordinates": [[ring], islands]}
        (tmp_path / "wasg.geojson").write_text(json.dumps(doc), encoding="utf-8")
        (tmp_path / "s.json").write_text(
            json.dumps({"name": "x", "mode": "regional", "failed": ["W01"]}), encoding="utf-8"
        )
        out = tmp_path / "failed.geojson"
        code = main(
            [
                "failure",
                "--wasg", str(tmp_path / "wasg.geojson"),
                "--scenario", str(tmp_path / "s.json"),
                "--format", "geojson",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8")) == {"type": "FeatureCollection", "features": [feature]}

    def test_unknown_wasg_in_scenario(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "mode": "regional", "failed": ["ZZ"]}), encoding="utf-8")
        code = main(
            [
                "failure",
                "--wasg", str(workspace / "wasg.geojson"),
                "--scenario", str(bad),
            ]
        )
        assert code == 2
        assert "UnknownWasg" in capsys.readouterr().err


class TestConnectivity:
    def test_path_graph_middle_failure(self, workspace, tmp_path):
        out = tmp_path / "flows.json"
        code = main(
            [
                "connectivity",
                "--wasg", str(workspace / "wasg.geojson"),
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
                "--scenario", str(workspace / "scenario_regional.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["scenario"] == "fail W01"
        assert report["mean_reduction"] == 1.0
        assert report["pairs"] == [
            {"u": "W00", "v": "W02", "flow_before": 1, "flow_after": 0, "reduction": 1.0}
        ]

    def test_csv_pairs_table(self, workspace, tmp_path):
        out = tmp_path / "flows.csv"
        code = main(
            [
                "connectivity",
                "--wasg", str(workspace / "wasg.geojson"),
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
                "--scenario", str(workspace / "scenario_regional.json"),
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == "u,v,flow_before,flow_after,reduction\nW00,W02,1,0,1.0\n"

    @pytest.mark.parametrize(
        "fmt, expected",
        [
            ("json", '{\n  "failed": [],\n  "mean_reduction": 0.0,\n  "pairs": [],\n  "scenario": "fail B"\n}\n'),
            ("csv", "u,v,flow_before,flow_after,reduction\n"),
        ],
        ids=["json", "csv"],
    )
    def test_no_inter_grid_link_gives_empty_report(self, tmp_path, capsys, fmt, expected):
        # N1 and N2 in grid A, N3 without geolocation: the grid graph has no node.
        registry = WasgRegistry([square_region("A", "A", 0.0, 0.0), square_region("B", "B", 20.0, 0.0)])
        (tmp_path / "wasg.geojson").write_text(json.dumps(registry_to_geojson(registry)), encoding="utf-8")
        (tmp_path / "n").write_text("node N1: 10.0.0.1\nnode N2: 10.0.0.2\nnode N3: 10.0.0.3\n", encoding="utf-8")
        (tmp_path / "g").write_text(
            "node.geo N1: XX YY ZZ City 4.0 4.0\nnode.geo N2: XX YY ZZ City 5.0 5.0\n", encoding="utf-8"
        )
        (tmp_path / "l").write_text("link L1: N1 N2\nlink L2: N2 N3\n", encoding="utf-8")
        (tmp_path / "s.json").write_text(
            json.dumps({"name": "fail B", "mode": "regional", "failed": ["B"]}), encoding="utf-8"
        )
        code = main(
            [
                "connectivity",
                "--wasg", str(tmp_path / "wasg.geojson"),
                "--nodes", str(tmp_path / "n"),
                "--geo", str(tmp_path / "g"),
                "--links", str(tmp_path / "l"),
                "--scenario", str(tmp_path / "s.json"),
                "--format", fmt,
            ]
        )
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (0, expected, "")

    def test_requires_topology(self, workspace, capsys):
        code = main(
            [
                "connectivity",
                "--wasg", str(workspace / "wasg.geojson"),
                "--scenario", str(workspace / "scenario_regional.json"),
            ]
        )
        assert code == 2
        assert "--nodes" in capsys.readouterr().err


class TestPlace:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["demand_weight", "candidate_cost", "latency_bounds", "latency_override"],
    )
    def test_non_finite_number_is_one_error_line(self, workspace, tmp_path, capsys, field, bad):
        doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
        if field == "demand_weight":
            doc["demands"][0]["weight"] = bad
        elif field == "candidate_cost":
            doc["candidates"][0]["cost"] = bad
        elif field == "latency_bounds":
            doc["latency_bounds"] = {"d1": bad}
        else:
            doc["latency_override"]["d1"]["c2"] = bad
        path = tmp_path / "problem_non_finite.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["place", "--problem", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ")
        assert captured.err.count("\n") == 1

    def test_negative_latency_override_is_one_error_line(self, workspace, tmp_path, capsys):
        doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
        doc["latency_override"]["d1"]["c2"] = -10.0
        path = tmp_path / "problem_negative.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["place", "--problem", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ") and "non-negative" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "shape",
        [
            "select_count",
            "latency_bounds",
            "latency_bounds_empty_list",
            "latency_override",
            "latency_override_row",
            "predicate",
        ],
    )
    def test_wrong_shaped_problem_is_one_error_line(self, workspace, tmp_path, capsys, shape):
        doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
        if shape == "select_count":
            doc["select_count"] = [2]
        elif shape == "latency_bounds":
            doc["latency_bounds"] = [500.0]
        elif shape == "latency_bounds_empty_list":  # falsy: it used to load as "no bounds"
            doc["latency_bounds"] = []
        elif shape == "latency_override":
            doc["latency_override"] = [1]
        elif shape == "latency_override_row":
            doc["latency_override"]["d1"] = [10.0, 20.0, 30.0]
        else:
            doc["location_rules"] = [{"predicate": ["hemisphere"], "min_count": 1}]
        path = tmp_path / "problem_wrong_shape.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["place", "--problem", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ")
        assert captured.err.count("\n") == 1

    def test_objective_overflowing_off_the_optimum_solves(self, tmp_path):
        problem = {
            "candidates": [
                {"id": c, "lat": 0.0, "lon": 0.0, "cost": cost} for c, cost in (("a", 1), ("b", 1e308), ("c", 1e308))
            ],
            "select_count": {"mode": "exactly", "n": 2},
            "objective": "min_cost",
        }
        path, out = tmp_path / "problem.json", tmp_path / "solution.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        assert main(["place", "--problem", str(path), "--out", str(out)]) == 0
        solution = json.loads(out.read_text(encoding="utf-8"))
        assert (solution["chosen"], solution["objective_value"], solution["proof"]) == (["a", "b"], 1e308, "optimal")

    def test_eq_fixture(self, workspace, tmp_path):
        out = tmp_path / "solution.json"
        code = main(["place", "--problem", str(workspace / "problem.json"), "--out", str(out)])
        assert code == 0
        solution = json.loads(out.read_text(encoding="utf-8"))
        assert solution["chosen"] == ["c1", "c3"]
        assert solution["objective_value"] == 40.0
        assert solution["proof"] == "optimal"
        assert "wall_time_s" not in solution["solve_stats"]

    def test_zone_resolution_from_registry(self, workspace, tmp_path):
        problem = {
            "candidates": [
                {"id": "a", "lat": 9.0, "lon": -146.0},
                {"id": "b", "lat": 9.5, "lon": -145.0},
                {"id": "c", "lat": 9.0, "lon": -106.0},
            ],
            "demands": [{"id": "d", "lat": 9.0, "lon": -146.0, "weight": 1.0}],
            "select_count": {"mode": "exactly", "n": 2},
            "zone_cap": 1,
            "objective": "min_weighted_sum_all",
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        out = tmp_path / "s.json"
        code = main(
            [
                "place",
                "--problem", str(path),
                "--wasg", str(workspace / "wasg.geojson"),
                "--out", str(out),
            ]
        )
        assert code == 0
        solution = json.loads(out.read_text(encoding="utf-8"))
        # a and b share W00 once zones are resolved, so the pair must split.
        assert solution["chosen"] == ["a", "c"]

    def test_geojson_output(self, workspace, tmp_path):
        out = tmp_path / "chosen.geojson"
        code = main(
            [
                "place",
                "--problem", str(workspace / "problem.json"),
                "--format", "geojson",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [f["properties"]["id"] for f in doc["features"]] == ["c1", "c3"]

    def test_infeasible_reported_not_crash(self, workspace, tmp_path):
        problem = {
            "candidates": [
                {"id": "a", "lat": 1.0, "lon": 1.0, "zone": "Z"},
                {"id": "b", "lat": 2.0, "lon": 2.0, "zone": "Z"},
            ],
            "select_count": {"mode": "exactly", "n": 2},
            "zone_cap": 1,
            "objective": "min_weighted_sum_all",
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        code = main(["place", "--problem", str(path)])
        # Structural infeasibility is a dataset error: nonzero with message.
        assert code == 2


class TestDeepPlacement:
    def test_one_level_per_candidate_solves(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(deep_min_cost_doc()), encoding="utf-8")
        code = main(["place", "--problem", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        solution = json.loads(captured.out)
        assert solution["proof"] == "optimal"
        assert solution["chosen"] == ["c0000", "c0879"]


class TestNonStringWhereStringExpected:
    """A number, boolean, null or list for a JSON string is refused, not turned into text."""

    @pytest.mark.parametrize(
        "where, value",
        [
            ("registry_id", True),
            ("registry_member", None),
            ("scenario_failed", 1),
            ("candidate_id", 5),
            ("objective", ["min_cost"]),
        ],
    )
    def test_one_error_line(self, workspace, tmp_path, capsys, where, value):
        wasg = workspace / "wasg.geojson"
        bad = tmp_path / f"{where}.json"
        if where.startswith("registry"):
            doc = json.loads(wasg.read_text(encoding="utf-8"))
            props = doc["features"][0]["properties"]
            if where == "registry_id":
                props["id"] = value
            else:
                props["members"][0] = value
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["overlap", "--wasg", str(bad), "--components", f"ixp={workspace / 'ixps.csv'}"]
        elif where == "scenario_failed":
            bad.write_text(json.dumps({"name": "x", "mode": "regional", "failed": [value]}), encoding="utf-8")
            argv = ["failure", "--wasg", str(wasg), "--scenario", str(bad)]
        else:
            doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
            if where == "candidate_id":
                doc["candidates"][0]["id"] = value
            else:
                doc["objective"] = value
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["place", "--problem", str(bad)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ")
        assert "is not a string" in captured.err
        assert captured.err.count("\n") == 1


class TestStringWhereListExpected:
    """A JSON string where a list belongs is refused, not iterated by character."""

    @pytest.mark.parametrize("where", ["scenario_failed", "registry_members", "country_codes", "bbox"])
    def test_one_error_line(self, workspace, tmp_path, capsys, where):
        wasg = workspace / "wasg.geojson"
        bad = tmp_path / f"{where}.json"
        if where == "scenario_failed":
            bad.write_text(json.dumps({"name": "x", "mode": "regional", "failed": "W01"}), encoding="utf-8")
            argv = ["failure", "--wasg", str(wasg), "--scenario", str(bad)]
        elif where == "registry_members":
            doc = json.loads(wasg.read_text(encoding="utf-8"))
            doc["features"][0]["properties"]["members"] = "MX"
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["overlap", "--wasg", str(bad), "--components", f"ixp={workspace / 'ixps.csv'}"]
        else:
            doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
            value = "US" if where == "country_codes" else "1234"
            doc["location_rules"] = [{"predicate": {where: value}, "min_count": 1}]
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["place", "--problem", str(bad)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ")
        assert captured.err.count("\n") == 1


class TestWrongNumberType:
    """A string, a boolean or (where an integer belongs) a fraction for a JSON number is refused."""

    @pytest.mark.parametrize(
        "where, value",
        [
            ("threshold_deg", "40"),
            ("ring_point", ["1", "2"]),
            ("lat", "10"),
            ("lat", True),
            ("n", "1"),
            ("n", 1.5),
            ("zone_cap", 1.9),
        ],
    )
    def test_one_error_line(self, workspace, tmp_path, capsys, where, value):
        wasg = workspace / "wasg.geojson"
        bad = tmp_path / f"{where}.json"
        if where == "threshold_deg":
            bad.write_text(json.dumps({"name": "x", "mode": "latitude_band", "threshold_deg": value}), encoding="utf-8")
            argv = ["failure", "--wasg", str(wasg), "--scenario", str(bad)]
        elif where == "ring_point":
            doc = json.loads(wasg.read_text(encoding="utf-8"))
            doc["features"][0]["geometry"]["coordinates"][0][1] = value
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["overlap", "--wasg", str(bad), "--components", f"ixp={workspace / 'ixps.csv'}"]
        else:
            doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
            if where == "lat":
                doc["candidates"][0]["lat"] = value
            elif where == "n":
                doc["select_count"]["n"] = value
            else:
                doc["zone_cap"] = value
            bad.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["place", "--problem", str(bad)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedDocument: ")
        assert captured.err.count("\n") == 1


class TestCsvCellsTheParsersRefuse:
    """A cell over the csv module's field limit, an attrs_json nested past the
    decoder's stack, or a boolean az_count is one MalformedRow, not a traceback."""

    COMPONENT_HEADER = "id,kind,lat,lon,weight,attrs_json\n"

    @pytest.mark.parametrize(
        "where",
        ["component_field_limit", "stats_field_limit", "deep_attrs_json", "bool_az_count"],
    )
    def test_one_error_line_and_one_violation(self, workspace, tmp_path, capsys, where):
        wasg = str(workspace / "wasg.geojson")
        components = workspace / "ixps.csv"
        stats = None
        bad = tmp_path / f"{where}.csv"
        if where == "stats_field_limit":
            rows = (workspace / "stats.csv").read_text(encoding="utf-8").splitlines()
            rows[1] += "y" * 140_000
            bad.write_text("\n".join(rows) + "\n", encoding="utf-8")
            stats = bad
        else:
            attrs = {
                "component_field_limit": "x" * 140_000,
                "deep_attrs_json": "[" * 60_000 + "]" * 60_000,
                "bool_az_count": '"{""az_count"": true}"',
            }[where]
            bad.write_text(f"{self.COMPONENT_HEADER}ix1,ixp,9.0,-146.0,1,{attrs}\n", encoding="utf-8")
            components = bad
        argv = ["--wasg", wasg, "--components", f"ixp={components}"] + (["--stats", str(stats)] if stats else [])
        code = main(["overlap"] + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: MalformedRow: row 2: ")
        assert captured.err.count("\n") == 1
        code = main(["validate"] + argv)
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert code == 2
        assert len(violations) == 1 and violations[0].startswith("MalformedRow: ")


class TestDeterminism:
    def _run_twice(self, argv_base, tmp_path, name):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"{name}_{i}"
            assert main(argv_base + ["--out", str(out)]) in (0, 1)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_all_commands_byte_identical(self, workspace, tmp_path):
        self._run_twice(
            [
                "validate",
                "--wasg", str(workspace / "wasg.geojson"),
                "--stats", str(workspace / "stats.csv"),
                "--seed", "3",
            ],
            tmp_path,
            "validate",
        )
        self._run_twice(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
            ],
            tmp_path,
            "overlap",
        )
        self._run_twice(
            [
                "failure",
                "--wasg", str(workspace / "wasg.geojson"),
                "--scenario", str(workspace / "scenario_band.json"),
                "--components", f"ixp={workspace / 'ixps.csv'}",
                "--stats", str(workspace / "stats.csv"),
            ],
            tmp_path,
            "failure",
        )
        self._run_twice(
            [
                "connectivity",
                "--wasg", str(workspace / "wasg.geojson"),
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
                "--scenario", str(workspace / "scenario_regional.json"),
            ],
            tmp_path,
            "connectivity",
        )
        self._run_twice(
            ["place", "--problem", str(workspace / "problem.json")],
            tmp_path,
            "place",
        )


# Runs each CLI argv in one process, then one distribution report of
# components in zones the registry lacks; prints the outcomes as JSON.
_HASH_PROBE = """
import contextlib, io, json, sys
from netwattzap.cli import main
from netwattzap.errors import UnknownWasg
from netwattzap.geo import GeoPoint
from netwattzap.grid_model import load_registry
from netwattzap.ingest import InfraComponent
from netwattzap.overlap import distribution_report

results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([main(argv), out.getvalue(), err.getvalue()])
zones = ["NOPE3", "NOPE1", "NOPE4", "NOPE2"]
try:
    distribution_report(
        [InfraComponent(id=z, kind="ixp", geo=GeoPoint(0.0, 0.0), zone=z) for z in zones], load_registry(sys.argv[2])
    )
except UnknownWasg as exc:
    results.append(str(exc))
print(json.dumps(results))
"""


def test_error_texts_name_the_smallest_code_under_any_hash_seed(workspace, tmp_path):
    doc = json.loads((workspace / "wasg.geojson").read_text(encoding="utf-8"))
    for f in doc["features"][:2]:
        f["properties"]["members"] = ["X3", "X1", "X4", "X2"]
    dup = tmp_path / "wasg_dup.geojson"
    dup.write_text(json.dumps(doc), encoding="utf-8")
    scenario = tmp_path / "scenario_unknown.json"
    scenario.write_text(
        json.dumps({"name": "s", "mode": "regional", "failed": ["NOPE3", "NOPE1", "NOPE4", "NOPE2"]}), encoding="utf-8"
    )
    wasg = str(workspace / "wasg.geojson")
    runs = [
        ["validate", "--wasg", str(dup)],
        ["validate", "--wasg", wasg, "--scenario", str(scenario)],
        ["failure", "--wasg", wasg, "--scenario", str(scenario)],
    ]
    outputs = set()
    for seed in range(5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", _HASH_PROBE, json.dumps(runs), wasg],
            capture_output=True, text=True, env=env, check=True,
            encoding="utf-8",
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
    (dup_run, scenario_run, failure_run, zones_error) = json.loads(outputs.pop())
    first, second = (f["properties"]["id"] for f in doc["features"][:2])
    assert dup_run[0] == 2
    assert json.loads(dup_run[1])["violations"] == [
        f"DuplicateMember: member code 'X1' claimed by both {first!r} and {second!r}"
    ]
    assert scenario_run[0] == 2
    assert json.loads(scenario_run[1])["violations"] == ["UnknownWasg: scenario 's' fails unknown grid 'NOPE1'"]
    assert failure_run == [2, "", "error: UnknownWasg: scenario 's' fails unknown grid 'NOPE1'\n"]
    assert zones_error == "no region with id 'NOPE1'"


class TestFormatGuard:
    def test_unsupported_format_rejected(self, workspace, capsys):
        code = main(
            ["place", "--problem", str(workspace / "problem.json"), "--format", "csv"]
        )
        assert code == 2
        assert "not supported" in capsys.readouterr().err


def _path_topology_files(root, ids) -> list[str]:
    """Three grids in a row named ``ids``, a router in each, links 1-2 and 2-3; the flags naming the files."""
    features = [
        {
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [[list(v) for v in square_ring(20.0 * i, 0.0, 8.0)]]},
            "properties": {"id": rid, "name": rid, "abbrev": f"A{i}", "members": [], "area_km2": 1000.0},
        }
        for i, rid in enumerate(ids)
    ]
    (root / "wasg.geojson").write_text(
        json.dumps({"type": "FeatureCollection", "features": features}), encoding="utf-8"
    )
    (root / "n").write_text("node N1: 10.0.0.1\nnode N2: 10.0.0.2\nnode N3: 10.0.0.3\n", encoding="utf-8")
    (root / "g").write_text(
        "".join(f"node.geo N{i + 1}: XX YY ZZ City 4.0 {20.0 * i + 4.0}\n" for i in range(3)), encoding="utf-8"
    )
    (root / "l").write_text("link L1: N1 N2\nlink L2: N2 N3\n", encoding="utf-8")
    (root / "s.json").write_text(
        json.dumps({"name": "fail the third", "mode": "regional", "failed": [ids[2]]}), encoding="utf-8"
    )
    files = {"wasg": "wasg.geojson", "nodes": "n", "geo": "g", "links": "l"}
    return [arg for flag, name in files.items() for arg in (f"--{flag}", str(root / name))]


class TestCsvQuoting:
    @pytest.mark.parametrize("command", ["overlap", "connectivity"])
    def test_id_with_comma_and_quote_is_one_field(self, tmp_path, capsys, command):
        tricky = 'NA,"E"'
        argv = [command, *_path_topology_files(tmp_path, ["G01", tricky, "Z"]), "--format", "csv"]
        if command == "connectivity":
            argv += ["--scenario", str(tmp_path / "s.json")]
        assert main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert {len(row) for row in rows} == {len(rows[0])}
        expected = ["pair_counts", "G01", tricky, "1"] if command == "overlap" else ["G01", tricky, "1", "1", "0.0"]
        assert expected in rows


class TestPipeInGridId:
    def test_one_error_line(self, tmp_path, capsys):
        # Pairs ("A|B", "C") and ("A", "B|C") would share the report key "A|B|C".
        files = _path_topology_files(tmp_path, ["A", "B|C", "D"])
        assert main(["overlap", *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: MalformedDocument: feature 1 ('B|C'): region 'B|C': '|' in an id, "
            "where it joins the grid pairs of overlap reports\n"
        )
        assert main(["validate", *files]) == 2
        assert [v.split(":")[0] for v in json.loads(capsys.readouterr().out)["violations"]] == ["MalformedDocument"]


class TestGeometryErrorsNameTheirFeature:
    @pytest.mark.parametrize(
        "geometry, message",
        [([1, 2], "geometry is not an object"), ({"type": "Point", "coordinates": [1, 2]}, "unsupported geometry type 'Point'")],
        ids=["not_an_object", "point"],
    )
    def test_one_error_line_and_one_violation(self, tmp_path, capsys, geometry, message):
        files = _path_topology_files(tmp_path, ["A", "B", "C"])
        wasg = tmp_path / "wasg.geojson"
        doc = json.loads(wasg.read_text(encoding="utf-8"))
        doc["features"][0]["geometry"] = geometry
        wasg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["overlap", *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: MalformedDocument: feature 0 ('A'): {message}\n"
        assert main(["validate", *files]) == 2
        assert json.loads(capsys.readouterr().out)["violations"] == [f"MalformedDocument: feature 0 ('A'): {message}"]


class TestExitContract:
    @pytest.mark.parametrize("error", [MemoryError(), MemoryError("no room for 10^9 links")])
    def test_memory_error_is_one_error_line(self, workspace, monkeypatch, capsys, error):
        from netwattzap import cli

        def exhausted(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "parse_topology", exhausted)
        code = main(
            [
                "overlap",
                "--wasg", str(workspace / "wasg.geojson"),
                "--nodes", str(workspace / "topo.nodes"),
                "--geo", str(workspace / "topo.geo"),
                "--links", str(workspace / "topo.links"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: MemoryError: {error}\n"

    def test_other_exceptions_keep_their_traceback(self, workspace, monkeypatch):
        from netwattzap import cli

        def broken(*args, **kwargs):
            raise KeyError("a bug")

        monkeypatch.setattr(cli, "parse_topology", broken)
        with pytest.raises(KeyError, match="a bug"):
            main(["connectivity", "--wasg", str(workspace / "wasg.geojson"), "--nodes", str(workspace / "topo.nodes"),
                  "--geo", str(workspace / "topo.geo"), "--links", str(workspace / "topo.links"),
                  "--scenario", str(workspace / "scenario_regional.json")])


STATS_HEADER = "code,population,internet_users,penetration,area_km2\n"


class TestStatisticsPastTheFloatRange:
    """A count that float() cannot hold is one MalformedRow, not an OverflowError traceback."""

    HUGE = "9" * 401

    @pytest.mark.parametrize(
        "cells",
        [f"{HUGE},1000,,5000", f"1000,{HUGE},,5000", f"{HUGE},,0.5,5000"],
        ids=["population", "internet_users", "penetration"],
    )
    def test_one_error_line_and_one_violation(self, workspace, tmp_path, capsys, cells):
        path = tmp_path / "huge.csv"
        path.write_text(f"{STATS_HEADER}M00A,{cells}\n", encoding="utf-8")
        argv = ["--wasg", str(workspace / "wasg.geojson"), "--stats", str(path)]
        code = main(["overlap", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: MalformedRow: row 2: stat 'M00A': population or internet users past the float range\n"
        code = main(["validate", *argv])
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert code == 2
        assert violations == ["MalformedRow: row 2: stat 'M00A': population or internet users past the float range"]


class TestDuplicateStatisticsCode:
    """A code on two rows of the statistics is refused on its second row, naming the first."""

    ERROR = "MalformedRow: row 22: duplicate code 'M00A', first on row 2"

    @pytest.fixture
    def duplicated(self, workspace, tmp_path):
        rows = (workspace / "stats.csv").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "dup.csv"
        path.write_text("\n".join(rows + [rows[1]]) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("with_wasg", [False, True])
    def test_validate_reports_one_violation(self, workspace, duplicated, capsys, with_wasg):
        wasg = ["--wasg", str(workspace / "wasg.geojson")] if with_wasg else []
        code = main(["validate", *wasg, "--stats", str(duplicated)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        assert json.loads(captured.out)["violations"] == [self.ERROR]

    def test_overlap_is_one_error_line(self, workspace, duplicated, capsys):
        code = main(["overlap", "--wasg", str(workspace / "wasg.geojson"), "--stats", str(duplicated)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {self.ERROR}\n"


class TestStatisticsSumPastTheFloatRange:
    """Records that each fit a float but sum past its range, in one grid or outside every grid."""

    BIG = "1" + "0" * 308

    @pytest.mark.parametrize(
        "codes, where",
        [(("M00A", "M00B"), "of grid 'W00'"), (("X1", "X2"), "outside every grid")],
        ids=["grid", "uncovered"],
    )
    def test_one_error_line_and_one_violation(self, workspace, tmp_path, capsys, codes, where):
        path = tmp_path / "big.csv"
        path.write_text(STATS_HEADER + "".join(f"{code},{self.BIG},1,,\n" for code in codes), encoding="utf-8")
        error = f"ValueError: statistics {where}: population or internet users past the float range"
        argv = ["--wasg", str(workspace / "wasg.geojson"), "--stats", str(path)]
        for command in (["overlap"], ["failure", "--scenario", str(workspace / "scenario_regional.json")]):
            code = main([*command, *argv])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {error}\n")
        code = main(["validate", *argv])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["violations"] == [error]


    @pytest.mark.parametrize(
        "cells, metric",
        [(f"{BIG},1,,", "population"), (f"1,{BIG},,", "internet_users"), ("1,1,,1e308", "area_km2")],
        ids=["population", "internet_users", "area_km2"],
    )
    def test_total_over_grids_is_one_error_line_and_one_violation(self, workspace, tmp_path, capsys, cells, metric):
        # Two grids, each within the float range, whose total is past it.
        path = tmp_path / "big.csv"
        path.write_text(STATS_HEADER + "".join(f"{code},{cells}\n" for code in ("M00A", "M01A")), encoding="utf-8")
        error = f"ValueError: statistics of all grids and outside them: {metric} total past the float range"
        argv = ["--wasg", str(workspace / "wasg.geojson"), "--stats", str(path)]
        for command in (["overlap"], ["failure", "--scenario", str(workspace / "scenario_regional.json")]):
            code = main([*command, *argv])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {error}\n")
        code = main(["validate", *argv])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["violations"] == [error]


class TestDuplicateComponentId:
    """An id on two rows of one component file is refused on its second row, naming the first."""

    def test_overlap_and_validate(self, workspace, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("id,kind,lat,lon,weight,attrs_json\nX1,ixp,5,5,,\nX1,ixp,5,5,,\n", encoding="utf-8")
        error = "row 3: duplicate id 'X1', first on row 2"
        argv = ["--wasg", str(workspace / "wasg.geojson"), "--components", f"ixp={path}"]
        code = main(["overlap", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: MalformedRow: {error}\n")
        code = main(["validate", *argv])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["violations"] == [f"MalformedRow: {path}: {error}"]


class TestByteOrderMark:
    """A CSV that starts with a UTF-8 byte-order mark, as spreadsheet exports do, reads as without it."""

    @pytest.mark.parametrize("marked", ["stats.csv", "ixps.csv"])
    def test_same_report_bytes(self, workspace, tmp_path, marked):
        reports = []
        for bom in (b"", b"\xef\xbb\xbf"):
            files = {name: workspace / name for name in ("stats.csv", "ixps.csv")}
            files[marked] = tmp_path / f"bom{len(bom)}_{marked}"
            files[marked].write_bytes(bom + (workspace / marked).read_bytes())
            out = tmp_path / f"report{len(bom)}.json"
            argv = ["--wasg", str(workspace / "wasg.geojson"), "--stats", str(files["stats.csv"])]
            argv += ["--components", f"ixp={files['ixps.csv']}", "--out", str(out)]
            assert main(["overlap", *argv]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestNonFiniteReportNumber:
    """A report number that overflows to infinity is one ValueError line; no report is written."""

    # Newer Pythons append the value to this message.
    PREFIX = "error: ValueError: Out of range float values are not JSON compliant"

    def run(self, argv, out, capsys, prefix=PREFIX):
        code = main([*argv, "--out", str(out)] if out else argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(prefix)
        assert captured.err.count("\n") == 1
        assert out is None or not out.exists()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_uncovered_area_sum(self, workspace, tmp_path, capsys, to_file):
        # Two codes outside every grid, each with a finite area, sum to an infinite uncovered area,
        # which the statistics' total check names before any report number is made.
        path = tmp_path / "vast.csv"
        path.write_text(f"{STATS_HEADER}X1,1,1,,1e308\nX2,1,1,,1e308\n", encoding="utf-8")
        argv = ["overlap", "--wasg", str(workspace / "wasg.geojson"), "--stats", str(path)]
        prefix = "error: ValueError: statistics of all grids and outside them: area_km2 total past the float range"
        self.run(argv, tmp_path / "r.json" if to_file else None, capsys, prefix)

    @pytest.mark.parametrize("to_file", [False, True])
    def test_place_objective(self, workspace, tmp_path, capsys, to_file):
        doc = json.loads((workspace / "problem.json").read_text(encoding="utf-8"))
        doc["demands"][0]["weight"] = 1e308
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        prefix = "error: ValueError: objective min_weighted_sum_all: best value inf is past the float range"
        self.run(["place", "--problem", str(path)], tmp_path / "r.json" if to_file else None, capsys, prefix)

    @pytest.mark.parametrize("objective", ["min_weighted_sum_all", "min_weighted_nearest", "min_cost"])
    def test_place_objective_of_every_set_past_the_float_range(self, tmp_path, capsys, objective):
        # Every feasible set's value overflows to inf, which used to be certified optimal.
        problem = {
            "candidates": [{"id": c, "lat": 40.0, "lon": lon, "cost": 1e308} for c, lon in (("a", 0.0), ("b", 20.0))],
            "demands": [{"id": d, "lat": -40.0, "lon": lon, "weight": 1e308} for d, lon in (("d1", 0.0), ("d2", 20.0))],
            "select_count": {"mode": "exactly", "n": 2 if objective == "min_cost" else 1},
            "objective": objective,
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem), encoding="utf-8")
        prefix = f"error: ValueError: objective {objective}: best value inf is past the float range\n"
        self.run(["place", "--problem", str(path)], tmp_path / "r.json", capsys, prefix)
