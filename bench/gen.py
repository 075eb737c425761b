"""Seeded input generators for the three benchmark workloads.

Every generator takes a seed and a directory, writes the files the
program reads, and returns the ground truth the correctness checks need
(expected zones, counts, failed grids).  The truth comes from how the
inputs were built, never from running the program.  Only Python's
``random.Random`` seeded with a string is used, so a seed gives the same
bytes on every platform and Python 3 version.

Geometry: grids sit in the cells of a 9 x 6 lon/lat lattice (40 x 23
degrees per cell), one grid per occupied cell.  Each outer ring is
star-shaped around its cell centre, so a point on the ray from the centre
through a boundary point B is inside exactly when it lies before B.  That
gives exact inside, outside and near-boundary points without a
point-in-polygon test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

COLS, ROWS = 9, 6
CELL_W, CELL_H = 40.0, 23.0
N_GRIDS = 43
BAND_DEG = 40.0
# Outer-ring radius ranges (lo, hi) as fractions of the half cell, for
# simple and complex registries.  Island centres sit ISLAND_OFFSET half cells
# out along the diagonals, so an island (radius at most 0.12) stays beyond
# OUTSIDE_S_MAX * hi; a hole stays within HOLE_FRAC * lo < INTERIOR_S_MIN * lo.
# The complex rings are small so that validate's 20,000 samples in the
# registry's bounding box hit few grid boxes: every operation of a
# repetition then takes under a second (see README.md, Machine drift).
R_SIMPLE = (0.30, 0.65)
R_COMPLEX = (0.11, 0.24)
INTERIOR_S_MIN, INTERIOR_S_MAX = 0.72, 0.97
OUTSIDE_S_MIN, OUTSIDE_S_MAX = 1.15, 1.40
HOLE_FRAC = 0.6
ISLAND_OFFSET = 0.45
NEAR_DELTA = 1e-4


def _r6(v: float) -> float:
    return round(v, 6)


class Grid:
    """One generated grid: cell centre, rings, and GeoJSON feature."""

    def __init__(self, idx, col, row):
        self.idx = idx
        self.id = f"G{idx:02d}"
        self.cx = -180.0 + CELL_W * (col + 0.5)
        self.cy = -60.0 + CELL_H * (row + 0.5)
        self.hw, self.hh = CELL_W / 2, CELL_H / 2
        self.outer: list = []
        self.hole: list | None = None
        self.islands: list = []
        self.island_centres: list = []

    def star(self, rng, k, lo, hi, cx=None, cy=None):
        cx = self.cx if cx is None else cx
        cy = self.cy if cy is None else cy
        terms = [(1.0 / j, j, rng.uniform(0, 2 * math.pi)) for j in range(1, 6)]
        norm = sum(a for a, _, _ in terms)
        mid, amp = (lo + hi) / 2, (hi - lo) / 2
        ring = []
        for i in range(k):
            th = 2 * math.pi * i / k
            wave = sum(a * math.sin(j * th + ph) for a, j, ph in terms) / norm
            r = min(hi, max(lo, mid + amp * (0.98 * wave + rng.uniform(-0.02, 0.02))))
            ring.append((_r6(cx + r * self.hw * math.cos(th)), _r6(cy + r * self.hh * math.sin(th))))
        ring.append(ring[0])
        return ring

    def rings(self):
        return [self.outer] + ([self.hole] if self.hole else []) + self.islands

    def vertices(self) -> int:
        return sum(len(r) for r in self.rings())

    def max_abs_lat(self) -> float:
        return max(abs(lat) for ring in self.rings() for _, lat in ring)

    def area_km2(self) -> float:
        def shoelace(ring):
            return abs(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in zip(ring, ring[1:]))) / 2

        deg2 = shoelace(self.outer) + sum(shoelace(r) for r in self.islands)
        deg2 -= shoelace(self.hole) if self.hole else 0.0
        return round(deg2 * 111.32 * 111.32 * math.cos(math.radians(self.cy)), 1)

    def _ray(self, rng, ring, s, cx=None, cy=None):
        cx = self.cx if cx is None else cx
        cy = self.cy if cy is None else cy
        i = rng.randrange(len(ring) - 1)
        t = rng.random()
        (x1, y1), (x2, y2) = ring[i], ring[i + 1]
        bx, by = x1 + t * (x2 - x1), y1 + t * (y2 - y1)
        return _r6(cy + s * (by - cy)), _r6(cx + s * (bx - cx))

    def inside(self, rng):
        """(lat, lon) strictly inside the grid, clear of its boundary and hole."""
        if self.islands and rng.random() < 0.1:
            i = rng.randrange(len(self.islands))
            return self._ray(rng, self.islands[i], rng.uniform(0.0, INTERIOR_S_MAX), *self.island_centres[i])
        return self._ray(rng, self.outer, rng.uniform(INTERIOR_S_MIN, INTERIOR_S_MAX))

    def near_boundary(self, rng, inside: bool):
        s = 1.0 - NEAR_DELTA if inside else 1.0 + NEAR_DELTA
        return self._ray(rng, self.outer, s)

    def outside(self, rng):
        """(lat, lon) in this grid's cell and bounding region but in no ring."""
        return self._ray(rng, self.outer, rng.uniform(OUTSIDE_S_MIN, OUTSIDE_S_MAX))

    def feature(self):
        polygons = [[self.outer] + ([self.hole] if self.hole else [])] + [[r] for r in self.islands]
        coords = [[[list(v) for v in ring] for ring in poly] for poly in polygons]
        geometry = (
            {"type": "Polygon", "coordinates": coords[0]}
            if len(coords) == 1
            else {"type": "MultiPolygon", "coordinates": coords}
        )
        return {
            "type": "Feature",
            "geometry": geometry,
            "properties": {
                "id": self.id,
                "name": f"Grid {self.id}",
                "abbrev": f"A{self.idx:02d}",
                "members": [f"M{self.idx:02d}a", f"M{self.idx:02d}b"],
                "population": 0,
                "internet_users": 0,
                "area_km2": self.area_km2(),
            },
        }


class World:
    """43 grids in distinct lattice cells plus the empty cells around them."""

    def __init__(self, rng, complex_rings: bool):
        cells = [(c, r) for r in range(ROWS) for c in range(COLS)]
        rng.shuffle(cells)
        self.grids = [Grid(i, c, r) for i, (c, r) in enumerate(sorted(cells[:N_GRIDS]))]
        self.empty = sorted(cells[N_GRIDS:])
        if complex_rings:
            # Ring sizes log-spaced over 200..5000 vertices, shuffled over grids.
            sizes = [round(200 * 25 ** (i / (N_GRIDS - 1))) for i in range(N_GRIDS)]
            rng.shuffle(sizes)
        else:
            sizes = [rng.randint(90, 110) for _ in range(N_GRIDS)]
        r_lo, r_hi = R_COMPLEX if complex_rings else R_SIMPLE
        for g, k in zip(self.grids, sizes):
            g.outer = g.star(rng, k, r_lo, r_hi)
        if complex_rings:
            multi = rng.sample(self.grids, 5)
            for g in multi[:4]:
                for qx, qy in rng.sample([(-1, -1), (-1, 1), (1, -1), (1, 1)], rng.randint(1, 3)):
                    icx, icy = g.cx + qx * ISLAND_OFFSET * g.hw, g.cy + qy * ISLAND_OFFSET * g.hh
                    g.islands.append(g.star(rng, rng.randint(60, 200), 0.06, 0.12, icx, icy))
                    g.island_centres.append((icx, icy))
            multi[4].hole = multi[4].star(rng, 120, 0.3 * r_lo, HOLE_FRAC * r_lo)
        self.by_id = {g.id: g for g in self.grids}
        # Lattice neighbours plus a few long-haul pairs: the sparse grid graph.
        pos = {(round((g.cx + 180) / CELL_W - 0.5), round((g.cy + 60) / CELL_H - 0.5)): g.id for g in self.grids}
        edges = set()
        for (c, r), gid in pos.items():
            for dc in (-1, 0, 1):
                for dr in (-1, 0, 1):
                    other = pos.get((c + dc, r + dr))
                    if other and other != gid:
                        edges.add(tuple(sorted((gid, other))))
        ids = [g.id for g in self.grids]
        while len(edges) < 300:
            a, b = rng.sample(ids, 2)
            edges.add(tuple(sorted((a, b))))
        self.edges = sorted(edges)
        self.neighbours = {gid: [] for gid in ids}
        for a, b in self.edges:
            self.neighbours[a].append(b)
            self.neighbours[b].append(a)

    def empty_point(self, rng):
        c, r = rng.choice(self.empty)
        lon = -180.0 + CELL_W * c + rng.uniform(0.5, CELL_W - 0.5)
        lat = -60.0 + CELL_H * r + rng.uniform(0.5, CELL_H - 0.5)
        return _r6(lat), _r6(lon)

    def nowhere(self, rng):
        return self.empty_point(rng) if rng.random() < 0.5 else rng.choice(self.grids).outside(rng)

    def band_failed(self, threshold):
        return sorted(g.id for g in self.grids if g.max_abs_lat() >= threshold)

    def write_registry(self, path):
        doc = {"type": "FeatureCollection", "features": [g.feature() for g in self.grids]}
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    def write_stats(self, rng, path):
        rows = ["code,population,internet_users,penetration,area_km2"]
        for g in self.grids:
            rows.append(f"M{g.idx:02d}a,{rng.randint(10**5, 10**8)},{rng.randint(10**4, 10**5)},,{rng.randint(10**3, 10**6)}")
            rows.append(f"M{g.idx:02d}b,{rng.randint(10**5, 10**7)},,{rng.randint(5, 95) / 100},")
        for code in ("XA", "XB", "XC"):
            rows.append(f"{code},{rng.randint(10**5, 10**7)},{rng.randint(10**4, 10**5)},,")
        Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")

    def vertex_summary(self):
        counts = sorted(g.vertices() for g in self.grids)
        return {"min": counts[0], "median": counts[len(counts) // 2], "max": counts[-1], "total": sum(counts)}


def _write_components(path, rows):
    lines = ["id,kind,lat,lon,weight,attrs_json"]
    for cid, kind, lat, lon, weight, attrs in rows:
        cell = json.dumps(attrs, sort_keys=True).replace('"', '""') if attrs else ""
        lines.append(f'{cid},{kind},{lat!r},{lon!r},{weight},"{cell}"' if attrs else f"{cid},{kind},{lat!r},{lon!r},{weight},")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json(path, doc):
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def _ipv4(rng):
    while True:
        first = rng.randint(1, 223)
        if first not in (10, 127):
            return f"{first}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(1, 254)}"


def _multicast(rng):
    return f"{rng.randint(224, 239)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.{rng.randint(0, 255)}"


def _ipv6(rng):
    return "2001:db8:" + ":".join(f"{rng.randint(0, 0xFFFF):x}" for _ in range(6))


# -- itdk_links --------------------------------------------------------------

ITDK_NODES = 1_700
ITDK_LINKS = 20_000
ITDK_CITIES = 500


def gen_itdk_links(seed: int, out: Path) -> dict:
    """ITDK-syntax topology on shared city coordinates, simple 43-grid registry."""
    rng = random.Random(f"itdk_links:{seed}")
    world = World(rng, complex_rings=False)
    world.write_registry(out / "wasg.geojson")
    world.write_stats(rng, out / "stats.csv")

    # Cities: 75 % inside a grid, the rest in no grid; Zipf-like popularity.
    cities = []
    for _ in range(ITDK_CITIES):
        if rng.random() < 0.75:
            g = rng.choice(world.grids)
            cities.append((g.inside(rng), g.id))
        else:
            cities.append((world.nowhere(rng), None))
    popularity = [1.0 / (i + 1) ** 0.8 for i in range(ITDK_CITIES)]

    node_lines = ["# synthetic ITDK nodes file", "# node N<id>: <interfaces>", ""]
    geo_lines = ["# synthetic ITDK geolocation file", ""]
    truth_report = dict.fromkeys(
        ("input_nodes", "removed_interfaces", "ipv6_interfaces", "removed_nodes",
         "input_links", "removed_links", "self_links", "dangling_links", "geo_for_unknown_nodes"), 0)
    zone_of = {}  # kept node id -> grid id or None
    removed = set()
    by_zone: dict = {}
    ungridded = []
    city_of = rng.choices(range(ITDK_CITIES), weights=popularity, k=ITDK_NODES)
    geolocated = []
    for node_id in range(1, ITDK_NODES + 1):
        if rng.random() < 0.01:
            ifaces = [_multicast(rng) for _ in range(rng.randint(1, 2))]
            truth_report["removed_interfaces"] += len(ifaces)
            truth_report["removed_nodes"] += 1
            removed.add(node_id)
        else:
            ifaces = [_ipv4(rng) for _ in range(rng.choice((1, 1, 1, 2, 3)))]
            if rng.random() < 0.02:
                ifaces.insert(rng.randrange(len(ifaces) + 1), _multicast(rng))
                truth_report["removed_interfaces"] += 1
            if rng.random() < 0.01:
                ifaces.append(_ipv6(rng))
                truth_report["ipv6_interfaces"] += 1
        node_lines.append(f"node N{node_id}:  " + " ".join(ifaces))
        truth_report["input_nodes"] += 1
        zone = None
        if rng.random() < 0.8:
            city = city_of[node_id - 1]
            (lat, lon), zone = cities[city]
            geo_lines.append(f"node.geo N{node_id}:\tXX\tC{city % 200:03d}\tR\tCity{city}\t{lat!r}\t{lon!r}")
            if node_id in removed:
                truth_report["geo_for_unknown_nodes"] += 1
            else:
                geolocated.append(node_id)
        if node_id not in removed:
            zone_of[node_id] = zone
            if zone is None:
                ungridded.append(node_id)
            else:
                by_zone.setdefault(zone, []).append(node_id)
    for _ in range(20):
        truth_report["geo_for_unknown_nodes"] += 1
        geo_lines.append(f"node.geo N{ITDK_NODES + 5000 + rng.randint(0, 10**6)}:\tXX\tZZ\tR\tGhost\t1.5\t2.5")
    # Nodes file contains multicast-only nodes too; their refs become removed links.
    removed_ids = sorted(removed)

    link_lines = ["# synthetic ITDK links file", ""]
    categories = {"both_mapped": 0, "one_mapped": 0, "none_mapped": 0}
    pairs: dict = {}
    one_end: dict = {}
    declared = range(1, ITDK_NODES + 1)
    for link_id in range(1, ITDK_LINKS + 1):
        truth_report["input_links"] += 1
        roll = rng.random()
        a = rng.choice(declared)
        if roll < 0.002:
            link_lines.append(f"link L{link_id}: N{a} N{a}:{_ipv4(rng)}")
            truth_report["self_links"] += 1
            continue
        if roll < 0.004:
            link_lines.append(f"link L{link_id}: N{a} N{ITDK_NODES + 1 + rng.randint(0, 10**6)}")
            truth_report["dangling_links"] += 1
            continue
        if roll < 0.008 and removed_ids:
            b = rng.choice(removed_ids)
        else:
            za = zone_of.get(a)
            pick = rng.random()
            if za is not None and pick < 0.55 and len(by_zone[za]) > 1:
                b = rng.choice(by_zone[za])
            elif za is not None and pick < 0.9:
                nb = [z for z in world.neighbours[za] if z in by_zone]
                b = rng.choice(by_zone[rng.choice(nb)]) if nb else rng.choice(ungridded)
            else:
                b = rng.choice(ungridded)
        while b == a:
            b = rng.choice(declared)
        refs = [f"N{a}", f"N{b}:{_ipv4(rng)}" if rng.random() < 0.3 else f"N{b}"]
        if rng.random() < 0.02:
            refs += [f"N{rng.choice(declared)}" for _ in range(rng.randint(1, 2))]
        link_lines.append(f"link L{link_id}: " + " ".join(refs))
        if a in removed or b in removed:
            truth_report["removed_links"] += 1
            continue
        za, zb = zone_of[a], zone_of[b]
        mapped = (za is not None) + (zb is not None)
        categories[("none_mapped", "one_mapped", "both_mapped")[mapped]] += 1
        if mapped == 2:
            key = "|".join(sorted((za, zb)))
            pairs[key] = pairs.get(key, 0) + 1
        elif mapped == 1:
            z = za if za is not None else zb
            one_end[z] = one_end.get(z, 0) + 1

    for name, lines in (("topo.nodes", node_lines), ("topo.geo", geo_lines), ("topo.links", link_lines)):
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    ixps, ixp_zone = [], {}
    for i in range(300):
        if rng.random() < 0.8:
            g = rng.choice(world.grids)
            (lat, lon), zone = g.inside(rng), g.id
        else:
            (lat, lon), zone = world.nowhere(rng), None
        ixps.append((f"ix{i:04d}", "ixp", lat, lon, "", None))
        ixp_zone[f"ix{i:04d}"] = zone
    _write_components(out / "ixps.csv", ixps)

    failed_two = sorted(rng.sample([g.id for g in world.grids], 2))
    _json(out / "scenario_band.json", {"name": "band40", "mode": "latitude_band", "threshold_deg": BAND_DEG})
    _json(out / "scenario_two.json", {"name": "two_grids", "mode": "regional", "failed": failed_two})

    lines_total = sum(len(x) for x in (node_lines, geo_lines, link_lines))
    coords = [cities[city_of[n - 1]][0] for n in geolocated]
    return {
        "grids": [g.id for g in world.grids],
        "report": truth_report,
        "categories": categories,
        "pairs": pairs,
        "one_end": one_end,
        "router_zone": {f"N{n}": zone_of[n] for n in geolocated},
        "ixp_zone": ixp_zone,
        "band_failed": world.band_failed(BAND_DEG),
        "failed_two": failed_two,
        "properties": {
            "nodes": ITDK_NODES,
            "links": ITDK_LINKS,
            "lines": lines_total,
            "geolocated_routers": len(geolocated),
            "cities": ITDK_CITIES,
            "distinct_frac": round(len(set(coords)) / len(coords), 4),
            "vertices_per_region": world.vertex_summary(),
            "unzoned_routers_frac": round(sum(1 for n in geolocated if zone_of[n] is None) / len(geolocated), 4),
            "link_categories": categories,
        },
    }


def _distinct_point(rng, used, draw):
    while True:
        point = draw()
        if point not in used:
            used.add(point)
            return point


def _place(rng, world, used, near_share, nowhere_share):
    """A distinct (lat, lon) and its true zone: near a boundary, in no grid, or inside."""
    roll = rng.random()
    g = rng.choice(world.grids)
    if roll < near_share:
        inside = rng.random() < 0.5
        return _distinct_point(rng, used, lambda: g.near_boundary(rng, inside)), (g.id if inside else None), True
    if roll < near_share + nowhere_share:
        return _distinct_point(rng, used, lambda: world.nowhere(rng)), None, False
    return _distinct_point(rng, used, lambda: g.inside(rng)), g.id, False


# -- dense_grids -------------------------------------------------------------

DENSE_KINDS = (("ixp", 160), ("dns_root", 80), ("datacenter", 110), ("demand_point", 450))


def gen_dense_grids(seed: int, out: Path) -> dict:
    """Complex 43-grid registry and component CSVs with all-distinct coordinates."""
    # The registry does not depend on the seed: the cost of validate's
    # 20,000-sample overlap check follows which grids get the large rings and
    # the islands, and varied by 45 % across random registries of one shape.
    # The seed varies the stats, the component points and the problem.
    world = World(random.Random("dense_grids:registry"), complex_rings=True)
    rng = random.Random(f"dense_grids:{seed}")
    world.write_registry(out / "wasg.geojson")
    world.write_stats(rng, out / "stats.csv")
    used: set = set()
    zones, near = {}, 0
    for kind, count in DENSE_KINDS:
        rows = []
        for i in range(count):
            (lat, lon), zone, is_near = _place(rng, world, used, 0.25, 0.15)
            cid = f"{kind[:2]}{i:05d}"
            attrs = {"az_count": rng.randint(1, 3)} if kind == "datacenter" else None
            weight = repr(float(rng.randint(1, 10**4))) if kind == "demand_point" else ""
            rows.append((cid, kind, lat, lon, weight, attrs))
            zones[cid] = (kind, zone)
            near += is_near
        _write_components(out / f"{kind}.csv", rows)
    _json(out / "scenario_band.json", {"name": "band40", "mode": "latitude_band", "threshold_deg": BAND_DEG})

    cand_zone = {}
    candidates = []
    for i in range(20):
        (lat, lon), zone, _ = _place(rng, world, used, 0.0, 0.2)
        candidates.append({"id": f"c{i:02d}", "lat": lat, "lon": lon})
        cand_zone[f"c{i:02d}"] = zone
    demands = [
        {"id": f"d{j:03d}", "lat": lat, "lon": lon, "weight": float(rng.randint(1, 100))}
        for j, ((lat, lon), _, _) in enumerate(_place(rng, world, used, 0.0, 0.2) for _ in range(30))
    ]
    _json(out / "problem.json", {
        "candidates": candidates, "demands": demands, "objective": "min_weighted_nearest",
        "select_count": {"mode": "exactly", "n": 3}, "zone_cap": 1,
    })
    points = len(zones)
    return {
        "grids": [g.id for g in world.grids],
        "zones": zones,
        "cand_zone": cand_zone,
        "band_failed": world.band_failed(BAND_DEG),
        "properties": {
            "components": points,
            "vertices_per_region": world.vertex_summary(),
            "multipolygon_grids": sum(1 for g in world.grids if g.islands),
            "grids_with_hole": sum(1 for g in world.grids if g.hole),
            "distinct_frac": 1.0,
            "near_boundary_frac": round(near / points, 4),
            "unzoned_frac": round(sum(1 for _, z in zones.values() if z is None) / points, 4),
            "place_shape": "20 unzoned candidates x 30 demands, n=3, zone_cap 1",
        },
    }


# -- resilience_sweep --------------------------------------------------------

SWEEP_DOUBLES = 12
SWEEP_BANDS = (30.0, 40.0, 50.0, 60.0, 70.0)
SWEEP_KINDS = (("ixp", 3000), ("dns_root", 1000), ("router", 12000), ("datacenter", 600))


def _problem(rng, world, objective, n_cand, n_dem, n, **extra):
    grids = rng.sample(world.grids, max(1, (2 * n_cand) // 3))
    candidates = []
    for i in range(n_cand):
        g = grids[i % len(grids)] if i < len(grids) else rng.choice(grids)
        lat, lon = g.inside(rng)
        cand = {"id": f"c{i:02d}", "lat": lat, "lon": lon, "zone": g.id}
        if objective == "min_cost":
            cand["cost"] = float(rng.randint(10, 1000))
        candidates.append(cand)
    demands = []
    for j in range(n_dem):
        lat, lon = rng.choice(world.grids).inside(rng)
        demands.append({"id": f"d{j:03d}", "lat": lat, "lon": lon, "weight": float(rng.randint(1, 1000))})
    doc = {"candidates": candidates, "demands": demands, "objective": objective,
           "select_count": {"mode": "exactly", "n": n}, "zone_cap": 1}
    doc.update(extra)
    return doc


def gen_resilience_sweep(seed: int, out: Path) -> dict:
    """Grid graph from heavy-tailed pair counts, zoned components, placement set."""
    rng = random.Random(f"resilience_sweep:{seed}")
    # The registry and the graph do not depend on the seed: the sweep's cost
    # follows the graph and varied by 15 % across seeds, as much as the
    # machine drifts.  The seed varies the stats, the components, the double
    # failures and (run.py) which chunk of the sweep is timed.
    grng = random.Random("resilience_sweep:graph")
    world = World(grng, complex_rings=False)
    world.write_registry(out / "wasg.geojson")
    world.write_stats(rng, out / "stats.csv")
    ids = [g.id for g in world.grids]
    pairs = [[a, b, min(10**6, int(5 * grng.paretovariate(1.1)))] for a, b in world.edges]
    pairs += [[g, g, grng.randint(1, 1000)] for g in ids]
    _json(out / "pairs.json", pairs)

    weights = [1.0 / (i + 1) for i in range(len(ids))]
    components = []
    for kind, count in SWEEP_KINDS:
        for i in range(count):
            zone = rng.choices(ids, weights)[0] if rng.random() < 0.85 else None
            lat, lon = world.by_id[zone].inside(rng) if zone else world.nowhere(rng)
            az = rng.randint(1, 3) if kind == "datacenter" else None
            components.append([f"{kind[:2]}{i:05d}", kind, lat, lon, zone, az])
    _json(out / "components.json", components)

    scenarios = [{"name": f"single_{g}", "mode": "regional", "failed": [g]} for g in ids]
    doubles = set()
    while len(doubles) < SWEEP_DOUBLES:
        doubles.add(tuple(sorted(rng.sample(ids, 2))))
    scenarios += [{"name": f"double_{a}_{b}", "mode": "regional", "failed": [a, b]} for a, b in sorted(doubles)]
    scenarios += [{"name": f"band_{t:g}", "mode": "latitude_band", "threshold_deg": t} for t in SWEEP_BANDS]
    _json(out / "scenarios.json", scenarios)

    # The placement set does not depend on the seed: branch-and-bound node
    # counts of random instances of one shape differ by up to 2x, which would
    # swamp the run-to-run spread.  The seed varies everything else.
    prng = random.Random("resilience_sweep:placement")
    pworld = World(prng, complex_rings=False)
    problems = {
        "nearest": _problem(prng, pworld, "min_weighted_nearest", 27, 60, 4),
        "max_pairwise": _problem(prng, pworld, "max_pairwise_distance_sum", 30, 0, 4),
        "min_pairwise": _problem(prng, pworld, "min_pairwise_distance_sum", 30, 0, 4),
        "sum_all": _problem(prng, pworld, "min_weighted_sum_all", 40, 100, 5),
        "min_cost": _problem(prng, pworld, "min_cost", 40, 0, 5, location_rules=[
            {"predicate": {"hemisphere": "southern"}, "min_count": 2}]),
    }
    # Latency bounds loose enough to keep the instance feasible: each bounded
    # demand keeps at least the candidates within its 85th-percentile latency.
    sum_all = problems["sum_all"]
    bounds = {}
    for d in sum_all["demands"][:10]:
        far = sorted(_latency_ms(d, c) for c in sum_all["candidates"])
        bounds[d["id"]] = round(far[int(0.85 * len(far))], 3)
    sum_all["latency_bounds"] = bounds
    for name, doc in problems.items():
        _json(out / f"problem_{name}.json", doc)

    return {
        "grids": ids,
        "band_failed": {f"band_{t:g}": world.band_failed(t) for t in SWEEP_BANDS},
        "properties": {
            "graph_nodes": len(ids),
            "graph_edges": len(world.edges),
            "capacity_max": max(c for a, b, c in pairs if a != b),
            "capacity_median": sorted(c for a, b, c in pairs if a != b)[len(world.edges) // 2],
            "components": len(components),
            "scenarios": len(scenarios),
            "vertices_per_region": world.vertex_summary(),
            "instances": {
                name: f"{doc['objective']}: {len(doc['candidates'])} candidates x "
                f"{len(doc['demands'])} demands, n={doc['select_count']['n']}, zone_cap 1"
                for name, doc in problems.items()
            },
        },
    }


def _latency_ms(a, b):
    """Haversine one-way fibre latency, as the bounds' reference scale."""
    p1, p2 = math.radians(a["lat"]), math.radians(b["lat"])
    h = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(math.radians(b["lon"] - a["lon"]) / 2) ** 2
    return 2 * 6371.0088 * math.asin(min(1.0, math.sqrt(h))) / 200.0


GENERATORS = {
    "itdk_links": gen_itdk_links,
    "dense_grids": gen_dense_grids,
    "resilience_sweep": gen_resilience_sweep,
}
