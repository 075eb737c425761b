"""Shared synthetic fixtures: a 10-grid registry, components, and topology.

Everything is seeded and deterministic. The registry is two rows of
five disjoint squares: an equatorial row (W00-W04) and a high-latitude
row (W05-W09) whose tops span 46..62 degrees so latitude-threshold
scenarios bite progressively.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import settings

from netwattzap.geo import GeoPoint
from netwattzap.grid_model import AdminStatRecord, WasgRegion, WasgRegistry, registry_to_geojson
from netwattzap.ingest import NODE_DTYPE, InfraComponent

# A failing example prints its @reproduce_failure blob, so a failure seen
# only on one CI job's numpy can be replayed from its log.
settings.register_profile("repo", print_blob=True)
settings.load_profile("repo")


def square_ring(lon0: float, lat0: float, size: float):
    return (
        (lon0, lat0),
        (lon0 + size, lat0),
        (lon0 + size, lat0 + size),
        (lon0, lat0 + size),
        (lon0, lat0),
    )


def square_region(
    rid: str,
    abbrev: str,
    lon0: float,
    lat0: float,
    size: float = 8.0,
    members=(),
    population: int = 0,
    internet_users: int = 0,
) -> WasgRegion:
    return WasgRegion(
        id=rid,
        name=f"Grid {rid}",
        abbrev=abbrev,
        members=frozenset(members),
        boundary=((square_ring(lon0, lat0, size),),),
        population=population,
        internet_users=internet_users,
        area_km2=size * size * 111.0 * 111.0,
    )


# (id, abbrev, lon0, lat0, size); row B sizes 6 with staggered latitudes.
SQUARES = [
    ("W00", "A0", -150.0, 5.0, 8.0),
    ("W01", "A1", -110.0, 5.0, 8.0),
    ("W02", "A2", -70.0, 5.0, 8.0),
    ("W03", "A3", -30.0, 5.0, 8.0),
    ("W04", "A4", 10.0, 5.0, 8.0),
    ("W05", "B0", -150.0, 40.0, 6.0),
    ("W06", "B1", -110.0, 44.0, 6.0),
    ("W07", "B2", -70.0, 48.0, 6.0),
    ("W08", "B3", -30.0, 52.0, 6.0),
    ("W09", "B4", 10.0, 56.0, 6.0),
]


def build_registry() -> WasgRegistry:
    regions = [
        square_region(
            rid,
            abbrev,
            lon0,
            lat0,
            size,
            members=(f"M{idx:02d}A", f"M{idx:02d}B"),
        )
        for idx, (rid, abbrev, lon0, lat0, size) in enumerate(SQUARES)
    ]
    return WasgRegistry(regions)


@pytest.fixture(scope="session")
def synthetic_registry() -> WasgRegistry:
    return build_registry()


_KIND_PLAN = [("ixp", 150), ("dns_root", 100), ("router", 120), ("datacenter", 60), ("demand_point", 70)]


def build_components(seed: int = 7) -> list[InfraComponent]:
    """500 components; roughly 20% placed in open ocean (south of every grid)."""
    rng = random.Random(seed)
    components = []
    serial = 0
    for kind, count in _KIND_PLAN:
        for _ in range(count):
            serial += 1
            if rng.random() < 0.2:
                point = GeoPoint(lat=rng.uniform(-60.0, -20.0), lon=rng.uniform(-150.0, 20.0))
            else:
                _, _, lon0, lat0, size = rng.choice(SQUARES)
                point = GeoPoint(
                    lat=lat0 + rng.uniform(0.05, size - 0.05),
                    lon=lon0 + rng.uniform(0.05, size - 0.05),
                )
            weight = float(rng.randint(100, 5000)) if kind == "demand_point" else 1.0
            components.append(InfraComponent(id=f"k{serial:04d}", kind=kind, geo=point, weight=weight))
    return components


@pytest.fixture(scope="session")
def synthetic_components() -> list[InfraComponent]:
    return build_components()


def build_topology(seed: int = 11, n_nodes: int = 300, n_links: int = 2000):
    """Router nodes (some without geo) and random links between them.

    Nodes are a ``NODE_DTYPE`` array, as ``parse_topology`` returns them,
    and links a ``(k, 3)`` int64 array of link id, a and b, which
    ``link_rows`` turns into the rows ``parse_topology`` returns.
    """
    rng = random.Random(seed)
    nodes = []
    for node_id in range(1, n_nodes + 1):
        if rng.random() < 0.1:
            geo = None
        elif rng.random() < 0.2:
            geo = GeoPoint(lat=rng.uniform(-60.0, -20.0), lon=rng.uniform(-150.0, 20.0))
        else:
            _, _, lon0, lat0, size = rng.choice(SQUARES)
            geo = GeoPoint(
                lat=lat0 + rng.uniform(0.05, size - 0.05),
                lon=lon0 + rng.uniform(0.05, size - 0.05),
            )
        nodes.append((node_id, math.nan, math.nan) if geo is None else (node_id, geo.lat, geo.lon))
    links = []
    for link_id in range(1, n_links + 1):
        a = rng.randint(1, n_nodes)
        b = rng.randint(1, n_nodes)
        while b == a:
            b = rng.randint(1, n_nodes)
        links.append((link_id, a, b))
    return np.array(nodes, dtype=NODE_DTYPE), np.array(links, dtype=np.int64)


def link_rows(node_ids, links) -> np.ndarray:
    """``(k, 3)`` links of link id, a and b as ``ParsedTopology.links``: the rows of a and b in ``node_ids``."""
    ends = np.asarray(links, dtype=np.int64).reshape(-1, 3)[:, 1:]
    assert np.isin(ends, node_ids).all(), "a link end is not a node"
    return np.searchsorted(node_ids, ends)


def node_geo(nodes) -> dict[int, GeoPoint | None]:
    """Each node of a ``NODE_DTYPE`` array: its id and its point, None without geolocation."""
    return {
        node_id: None if math.isnan(lat) else GeoPoint(lat=lat, lon=lon)
        for node_id, lat, lon in nodes.tolist()
    }


@pytest.fixture(scope="session")
def synthetic_topology():
    return build_topology()


def build_stats() -> list[AdminStatRecord]:
    """Two records per grid member plus two codes outside every grid."""
    records = []
    for idx in range(10):
        records.append(
            AdminStatRecord(
                code=f"M{idx:02d}A", population=1_000_000 + idx * 10_000, internet_users=600_000 + idx * 5_000
            )
        )
        records.append(
            AdminStatRecord(code=f"M{idx:02d}B", population=500_000 + idx * 10_000, penetration=0.5)
        )
    records.append(AdminStatRecord(code="XX", population=300_000, internet_users=100_000))
    records.append(AdminStatRecord(code="YY", population=200_000, penetration=0.25))
    return records


@pytest.fixture(scope="session")
def synthetic_stats() -> list[AdminStatRecord]:
    return build_stats()


WASG_A_ONLY = {
    "type": "FeatureCollection",
    "features": [
        {
            "type": "Feature",
            "geometry": {
                "type": "Polygon",
                "coordinates": [[list(v) for v in square_ring(0.0, 0.0, 10.0)]],
            },
            "properties": {
                "id": "A",
                "name": "Grid A",
                "abbrev": "A",
                "members": ["C"],
                "population": 100,
                "internet_users": 80,
                "area_km2": 1000.0,
            },
        }
    ],
}


def build_cli_workspace(root) -> None:
    """Write the file inputs used by CLI and acceptance tests."""
    registry = build_registry()
    (root / "wasg.geojson").write_text(json.dumps(registry_to_geojson(registry)), encoding="utf-8")
    (root / "wasg_single.geojson").write_text(json.dumps(WASG_A_ONLY), encoding="utf-8")

    stats_rows = ["code,population,internet_users,penetration,area_km2"]
    for idx in range(10):
        stats_rows.append(f"M{idx:02d}A,1000000,600000,,5000")
        stats_rows.append(f"M{idx:02d}B,500000,,0.5,4000")
    (root / "stats.csv").write_text("\n".join(stats_rows) + "\n", encoding="utf-8")

    # 3 IXPs: W00, W01, and open ocean.
    (root / "ixps.csv").write_text(
        "id,kind,lat,lon,weight,attrs_json\n"
        "ix1,ixp,9.0,-146.0,,\n"
        "ix2,ixp,9.0,-106.0,,\n"
        "ix3,ixp,-40.0,-100.0,,\n",
        encoding="utf-8",
    )
    (root / "dcs_single.csv").write_text(
        "id,kind,lat,lon,weight,attrs_json\ndc1,datacenter,5.0,5.0,,\n", encoding="utf-8"
    )
    (root / "ixps_single.csv").write_text(
        "id,kind,lat,lon,weight,attrs_json\nix1,ixp,5.0,5.0,,\n", encoding="utf-8"
    )

    # Path topology over grids W00 - W01 - W02: routers per grid, links
    # only between adjacent grids.
    nodes = []
    geo = []
    centers = {1: (9.0, -146.0), 2: (9.0, -106.0), 3: (9.0, -66.0)}
    for node_id, (lat, lon) in centers.items():
        nodes.append(f"node N{node_id}: 10.0.0.{node_id}")
        geo.append(f"node.geo N{node_id}: XX YY ZZ City {lat} {lon}")
    links = ["link L1: N1 N2", "link L2: N2 N3", "link L3: N1 N2"]
    (root / "topo.nodes").write_text("\n".join(nodes) + "\n", encoding="utf-8")
    (root / "topo.geo").write_text("\n".join(geo) + "\n", encoding="utf-8")
    (root / "topo.links").write_text("\n".join(links) + "\n", encoding="utf-8")

    (root / "scenario_regional.json").write_text(
        json.dumps({"name": "fail W01", "mode": "regional", "failed": ["W01"]}), encoding="utf-8"
    )
    (root / "scenario_single.json").write_text(
        json.dumps({"name": "fail A", "mode": "regional", "failed": ["A"]}), encoding="utf-8"
    )
    (root / "scenario_band.json").write_text(
        json.dumps({"name": "storm", "mode": "latitude_band", "threshold_deg": 50.0}),
        encoding="utf-8",
    )

    (root / "problem.json").write_text(
        json.dumps(
            {
                "candidates": [
                    {"id": "c1", "lat": 10.0, "lon": 10.0, "zone": "Z1"},
                    {"id": "c2", "lat": 20.0, "lon": 20.0, "zone": "Z1"},
                    {"id": "c3", "lat": 30.0, "lon": 30.0, "zone": "Z2"},
                ],
                "demands": [{"id": "d1", "lat": 0.0, "lon": 0.0, "weight": 1.0}],
                "select_count": {"mode": "exactly", "n": 2},
                "zone_cap": 1,
                "objective": "min_weighted_sum_all",
                "latency_override": {"d1": {"c1": 10.0, "c2": 20.0, "c3": 30.0}},
            }
        ),
        encoding="utf-8",
    )
    (root / "problem_dup.json").write_text(
        json.dumps(
            {
                "candidates": [
                    {"id": "c1", "lat": 10.0, "lon": 10.0},
                    {"id": "c1", "lat": 20.0, "lon": 20.0},
                ],
                "select_count": {"mode": "exactly", "n": 1},
                "objective": "min_weighted_sum_all",
            }
        ),
        encoding="utf-8",
    )

    bad = json.loads(json.dumps(WASG_A_ONLY))
    bad["features"][0]["geometry"]["coordinates"][0].pop()
    (root / "wasg_openring.geojson").write_text(json.dumps(bad), encoding="utf-8")
