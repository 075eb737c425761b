"""CLI report bytes against recorded digests.

``cli_digests.json`` holds, per case, the sha256 of the report file that
``netwattzap <command> ... --out`` writes on the conftest CLI workspace
plus a few inputs built here: a ``router=`` component CSV, a topology
with routers that have no geolocation, share coordinates or sit outside
every grid, and a registry with overlapping regions. The cases cover
every report format of ``overlap``, ``failure`` and ``connectivity``,
topology routers mixed with CSV routers, and ``failure`` runs with a
topology and no ``--components`` (the ``routers`` metric appears only
when some router is geolocated).

Rewrite the digests only when a report is meant to change:

    PYTHONPATH=src python tests/test_cli_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
import tempfile
from pathlib import Path

from netwattzap.cli import main
from netwattzap.grid_model import WasgRegistry, registry_to_geojson

from conftest import SQUARES, build_cli_workspace, build_registry, numpy_simd, square_region

DIGESTS = Path(__file__).with_name("cli_digests.json")


def write_inputs(root: Path) -> None:
    """The conftest workspace plus the inputs only these cases use."""
    build_cli_workspace(root)
    rng = random.Random(20)

    # Routers from a CSV: two in W00, one in W02, one in open ocean.
    (root / "routers.csv").write_text(
        "id,kind,lat,lon,weight,attrs_json\n"
        "r1,router,9.5,-145.0,,\n"
        "r2,router,9.0,-146.0,,\n"
        "r3,router,7.0,-66.0,,\n"
        "r4,router,-40.0,-90.0,,\n",
        encoding="utf-8",
    )

    # 80 nodes: some multicast only (removed), some without geolocation,
    # many sharing one of a few city coordinates, some in open ocean.
    cities = [(lat0 + size / 2, lon0 + size / 2) for _, _, lon0, lat0, size in SQUARES]
    cities += [(-40.0, -100.0), (-35.5, 0.25)]
    nodes, geo = [], []
    for node_id in range(1, 81):
        fate = rng.random()
        if fate < 0.08:
            nodes.append(f"node N{node_id}: 224.0.0.{node_id}")
        else:
            nodes.append(f"node N{node_id}: 10.1.{node_id}.1 239.1.1.1")
        if fate < 0.08 or rng.random() >= 0.15:
            lat, lon = rng.choice(cities) if rng.random() < 0.7 else (rng.uniform(-50, 60), rng.uniform(-155, 20))
            geo.append(f"node.geo N{node_id}: XX YY ZZ City {lat!r} {lon!r}")
    geo.append("node.geo N999: XX YY ZZ Nowhere 1.0 2.0")
    links = [f"link L{i}: N{rng.randint(1, 80)} N{rng.randint(1, 80)}" for i in range(1, 301)]
    links.append("link L301: N1 N998")
    (root / "mixed.nodes").write_text("\n".join(nodes) + "\n", encoding="utf-8")
    (root / "mixed.geo").write_text("\n".join(rng.sample(geo, len(geo))) + "\n", encoding="utf-8")
    (root / "mixed.links").write_text("\n".join(links) + "\n", encoding="utf-8")

    # W10 overlaps W00 and W01's row; W11, smaller, overlaps W10 and W02.
    registry = WasgRegistry(
        list(build_registry())
        + [square_region("W10", "C0", -149.0, 6.0, 42.0), square_region("W11", "C1", -100.0, 8.0, 33.0)]
    )
    (root / "wasg_overlap.geojson").write_text(json.dumps(registry_to_geojson(registry)), encoding="utf-8")


def cases(root: Path) -> dict[str, list[str]]:
    wasg = ["--wasg", str(root / "wasg.geojson")]
    topo = ["--nodes", str(root / "topo.nodes"), "--geo", str(root / "topo.geo"), "--links", str(root / "topo.links")]
    mixed = ["--nodes", str(root / "mixed.nodes"), "--geo", str(root / "mixed.geo"), "--links", str(root / "mixed.links")]
    no_geo = ["--nodes", str(root / "mixed.nodes"), "--links", str(root / "mixed.links")]
    ixps = ["--components", f"ixp={root / 'ixps.csv'}"]
    routers = ["--components", f"router={root / 'routers.csv'}"]
    stats = ["--stats", str(root / "stats.csv")]
    band = ["--scenario", str(root / "scenario_band.json")]
    regional = ["--scenario", str(root / "scenario_regional.json")]
    out = {
        "overlap_topology": ["overlap", *wasg, *ixps, *topo],
        "overlap_router_csv_only": ["overlap", *wasg, *routers],
        "overlap_router_csv_and_topology": ["overlap", *wasg, *ixps, *routers, *stats, *mixed],
        "overlap_ungeolocated": ["overlap", *wasg, *mixed],
        "overlap_no_geo_file": ["overlap", *wasg, *no_geo],
        "overlap_overlapping_grids": ["overlap", "--wasg", str(root / "wasg_overlap.geojson"), *routers, *mixed],
        "failure_topology_only": ["failure", *wasg, *regional, *topo],
        "failure_ungeolocated_topology_only": ["failure", *wasg, *band, *mixed],
        "failure_no_geo_file": ["failure", *wasg, *regional, *no_geo],
        "failure_router_csv_and_topology": ["failure", *wasg, *band, *ixps, *routers, *stats, *mixed],
        "failure_components_only": ["failure", *wasg, *band, *ixps, *stats],
        "failure_overlapping_grids": ["failure", "--wasg", str(root / "wasg_overlap.geojson"), *band, *routers, *mixed],
        "connectivity_topology": ["connectivity", *wasg, *topo, *regional],
        "connectivity_mixed": ["connectivity", *wasg, *mixed, *band],
    }
    for name in ("overlap_topology", "overlap_router_csv_and_topology", "overlap_ungeolocated", "connectivity_mixed"):
        out[name + "_csv"] = out[name] + ["--format", "csv"]
    out["failure_router_csv_and_topology_geojson"] = out["failure_router_csv_and_topology"] + ["--format", "geojson"]
    return out


def digests(root: Path) -> dict[str, str]:
    write_inputs(root)
    recorded = {}
    for name, argv in sorted(cases(root).items()):
        report = root / f"{name}.out"
        assert main(argv + ["--out", str(report)]) == 0, name
        recorded[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    return recorded


def test_cli_reports_match_recorded_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert len(expected) == 19
    got = digests(tmp_path)
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], (name, numpy_simd())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
