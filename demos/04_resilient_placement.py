"""Picking deployment sites that do not share a power-grid failure zone.

Three use cases of the placement engine:
  1. one user picks three data centers in pairwise-disjoint grids while
     minimizing total latency;
  2. a geo-distributed user base gets four data centers, each city
     served by its nearest selected site (assignment variables);
  3. two networks pick a pair of peering IXPs at minimum and at maximum
     distance, still grid-disjoint.

Run: python demos/04_resilient_placement.py
"""

from netwattzap import Candidate, DemandPoint, GeoPoint, PlacementProblem, SelectCount, solve_problem
from netwattzap.placement import build_ilp, solve_problem

DATACENTERS = [
    # (id, lat, lon, grid)  - a compressed cloud-region catalog
    Candidate(id="use-1", geo=GeoPoint(39.0, -77.5), zone="NAEAST"),
    Candidate(id="use-2", geo=GeoPoint(41.0, -81.0), zone="NAEAST"),
    Candidate(id="usw-1", geo=GeoPoint(45.8, -119.7), zone="NAWEST"),
    Candidate(id="usw-2", geo=GeoPoint(37.4, -121.9), zone="NAWEST"),
    Candidate(id="tx-1", geo=GeoPoint(32.8, -96.8), zone="TEXAS"),
    Candidate(id="ie-1", geo=GeoPoint(53.3, -6.3), zone="ISLES"),
    Candidate(id="de-1", geo=GeoPoint(50.1, 8.7), zone="CONTINENT"),
    Candidate(id="sg-1", geo=GeoPoint(1.35, 103.8), zone="SEASIA"),
    Candidate(id="jp-1", geo=GeoPoint(35.6, 139.7), zone="JPEAST"),
    Candidate(id="in-1", geo=GeoPoint(19.1, 72.9), zone="SUBCONT"),
]

# ---- Use case 1: single user, three grid-disjoint data centers.
single = PlacementProblem(
    candidates=tuple(DATACENTERS),
    demands=(DemandPoint(id="nyc", geo=GeoPoint(40.71, -74.01), weight=1.0),),
    objective="min_weighted_sum_all",
    select_count=SelectCount(mode="exactly", n=3),
    zone_cap=1,
)
solution = solve_problem(single)
print("Use case 1: one user in NYC, three data centers, disjoint grids")
print(f"  chosen: {', '.join(solution.chosen)}")
print(f"  total one-way latency: {solution.objective_value:.2f} ms")
print(f"  certified: {solution.proof}, {solution.nodes_explored} search nodes")

# The 0-1 program is inspectable before solving:
print("\n  model head:")
for line in build_ilp(single).dump().splitlines()[:6]:
    print("   |", line)

# ---- Use case 2: world-wide user base, nearest-assignment objective.
cities = (
    DemandPoint(id="tokyo", geo=GeoPoint(35.68, 139.69), weight=37.0),
    DemandPoint(id="delhi", geo=GeoPoint(28.61, 77.21), weight=32.0),
    DemandPoint(id="shanghai", geo=GeoPoint(31.23, 121.47), weight=28.0),
    DemandPoint(id="sao-paulo", geo=GeoPoint(-23.55, -46.63), weight=22.0),
    DemandPoint(id="nyc", geo=GeoPoint(40.71, -74.01), weight=19.0),
    DemandPoint(id="cairo", geo=GeoPoint(30.04, 31.24), weight=21.0),
)
multi = PlacementProblem(
    candidates=tuple(DATACENTERS),
    demands=cities,
    objective="min_weighted_nearest",
    select_count=SelectCount(mode="exactly", n=4),
    zone_cap=1,
)
solution = solve_problem(multi)
print("\nUse case 2: six cities, four data centers, nearest assignment")
print(f"  chosen: {', '.join(solution.chosen)}")
for city, dc in sorted(solution.assignment.items()):
    print(f"  {city:10s} -> {dc}")

# ---- Use case 3: IXP pairing at min and max distance.
IXPS = tuple(
    Candidate(id=cid, geo=geo, zone=zone)
    for cid, geo, zone in [
        ("ix-ash", GeoPoint(38.9, -77.5), "NAEAST"),
        ("ix-chi", GeoPoint(41.9, -87.6), "NAEAST"),
        ("ix-sea", GeoPoint(47.6, -122.3), "NAWEST"),
        ("ix-fra", GeoPoint(50.1, 8.68), "CONTINENT"),
        ("ix-ams", GeoPoint(52.4, 4.9), "CONTINENT"),
        ("ix-sin", GeoPoint(1.3, 103.9), "SEASIA"),
    ]
)
for objective in ("min_pairwise_distance_sum", "max_pairwise_distance_sum"):
    problem = PlacementProblem(
        candidates=IXPS,
        demands=(),
        objective=objective,
        select_count=SelectCount(mode="exactly", n=2),
        zone_cap=1,
    )
    solution = solve_problem(problem)
    mode = "closest" if objective.startswith("min") else "farthest"
    print(f"\nUse case 3 ({mode} grid-disjoint IXP pair): {' + '.join(solution.chosen)}"
          f"  ({solution.objective_value:.0f} km apart)")
