"""Registry of wide-area synchronous grids (WASGs).

A registry is loaded once from a GeoJSON FeatureCollection and is
immutable afterwards, so it can be shared freely across workers. Member
administrative codes are the source of truth for statistics
aggregation; boundary polygons are the source of truth for point
resolution (see ``overlap``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateAbbrev,
    DuplicateMember,
    MalformedDocument,
    MissingStats,
    OpenRing,
    UnknownWasg,
)

Ring = tuple[tuple[float, float], ...]
Polygon = tuple[Ring, ...]
MultiPolygon = tuple[Polygon, ...]


@dataclass(frozen=True)
class WasgRegion:
    """One synchronous grid: identity, members, boundary, demographics.

    ``boundary`` is a multi-polygon of (lon, lat) degree pairs, GeoJSON
    vertex order, each ring closed (first vertex repeated at the end).
    """

    id: str
    name: str
    abbrev: str
    members: frozenset[str]
    boundary: MultiPolygon
    population: int
    internet_users: int
    area_km2: float

    def __post_init__(self) -> None:
        if self.population < 0 or self.internet_users < 0:
            raise ValueError(f"region {self.id!r}: negative population figures")
        if self.population < self.internet_users:
            raise ValueError(
                f"region {self.id!r}: internet_users {self.internet_users} exceeds population {self.population}"
            )
        if not math.isfinite(self.area_km2):
            raise ValueError(f"region {self.id!r}: area_km2 {self.area_km2!r} is not finite")
        if self.boundary and self.area_km2 <= 0:
            raise ValueError(f"region {self.id!r}: area_km2 must be positive when a boundary is present")
        for polygon in self.boundary:
            for ring in polygon:
                if len(ring) < 4:
                    raise OpenRing(f"region {self.id!r}: ring with {len(ring)} vertices (need >= 4)")
                if ring[0] != ring[-1]:
                    raise OpenRing(f"region {self.id!r}: ring not closed (first vertex != last)")


@dataclass(frozen=True)
class AdminStatRecord:
    """Population/Internet statistics for one country or subdivision code.

    When ``internet_users`` is absent the record must carry a penetration
    fraction; the effective user count is then population x penetration
    (the state-level fallback for grids cut along subdivision borders).
    """

    code: str
    population: int
    internet_users: int | None = None
    penetration: float | None = None
    area_km2: float | None = None

    def __post_init__(self) -> None:
        if self.population < 0:
            raise ValueError(f"stat {self.code!r}: negative population")
        if self.internet_users is None and self.penetration is None:
            raise ValueError(f"stat {self.code!r}: needs internet_users or penetration")
        if self.internet_users is not None and self.internet_users < 0:
            raise ValueError(f"stat {self.code!r}: negative internet_users")
        if self.penetration is not None and not 0.0 <= self.penetration <= 1.0:
            raise ValueError(f"stat {self.code!r}: penetration {self.penetration} outside [0, 1]")
        if self.area_km2 is not None and not 0 <= self.area_km2 < math.inf:
            raise ValueError(f"stat {self.code!r}: area_km2 {self.area_km2!r} not finite and non-negative")

    def effective_internet_users(self) -> int:
        if self.internet_users is not None:
            return self.internet_users
        return int(round(self.population * self.penetration))


class WasgRegistry:
    """Immutable collection of WASG regions with id/abbrev/member lookups."""

    def __init__(self, regions: Iterable[WasgRegion]):
        self._by_id: dict[str, WasgRegion] = {}
        self._by_abbrev: dict[str, WasgRegion] = {}
        self._member_to_id: dict[str, str] = {}
        for region in regions:
            if region.id in self._by_id:
                raise MalformedDocument(f"duplicate region id {region.id!r}")
            if region.abbrev in self._by_abbrev:
                raise DuplicateAbbrev(f"abbreviation {region.abbrev!r} used by more than one region")
            for code in region.members:
                if code in self._member_to_id:
                    raise DuplicateMember(
                        f"member code {code!r} claimed by both {self._member_to_id[code]!r} and {region.id!r}"
                    )
            self._by_id[region.id] = region
            self._by_abbrev[region.abbrev] = region
            for code in region.members:
                self._member_to_id[code] = region.id

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[WasgRegion]:
        return iter(sorted(self._by_id.values(), key=lambda r: r.id))

    def __contains__(self, wasg_id: str) -> bool:
        return wasg_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WasgRegistry):
            return NotImplemented
        return self._by_id == other._by_id

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_id))

    def get(self, wasg_id: str) -> WasgRegion:
        try:
            return self._by_id[wasg_id]
        except KeyError:
            raise UnknownWasg(f"no region with id {wasg_id!r}") from None

    def by_abbrev(self, abbrev: str) -> WasgRegion:
        try:
            return self._by_abbrev[abbrev]
        except KeyError:
            raise UnknownWasg(f"no region with abbreviation {abbrev!r}") from None

    def region_of_member(self, code: str) -> WasgRegion | None:
        wasg_id = self._member_to_id.get(code)
        return self._by_id[wasg_id] if wasg_id is not None else None


def _coerce_ring(raw, region_id: str) -> Ring:
    try:
        ring = tuple((float(lon), float(lat)) for lon, lat in _json_list(raw, "ring"))
        # One type pass each, not a call per point: a string point "12"
        # unpacks as (1, 2), and float() takes the string "1" and true.
        if not {list, tuple}.issuperset(map(type, raw)):
            raise TypeError("ring point is not a list")
        if not all(map(_is_number_type, set(map(type, chain.from_iterable(raw))))):
            raise TypeError("ring coordinate is not a number")
    except (TypeError, ValueError) as exc:
        raise MalformedDocument(f"region {region_id!r}: bad ring coordinates: {exc}") from exc
    # One range test per coordinate also rejects NaN and +-inf.
    if not all(-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0 for lon, lat in ring):
        raise MalformedDocument(
            f"region {region_id!r}: non-finite ring coordinate or one outside lon [-180, 180], lat [-90, 90]"
        )
    return ring


def _coerce_geometry(geometry: Mapping, region_id: str) -> MultiPolygon:
    if geometry is None:
        return ()
    if not isinstance(geometry, Mapping):
        raise MalformedDocument(f"region {region_id!r}: geometry is not an object")
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polygons = [coords]
    elif gtype == "MultiPolygon":
        polygons = _json_list(coords, "MultiPolygon coordinates")
    else:
        raise MalformedDocument(f"region {region_id!r}: unsupported geometry type {gtype!r}")
    return tuple(
        tuple(_coerce_ring(ring, region_id) for ring in _json_list(polygon, "polygon")) for polygon in polygons
    )


def load_registry(source) -> WasgRegistry:
    """Load a registry from a GeoJSON FeatureCollection.

    ``source`` may be a path or an already-parsed mapping. Each feature
    must carry properties
    ``id, name, abbrev, members, population, internet_users, area_km2``
    and a Polygon/MultiPolygon geometry.

    Raises:
        MalformedDocument: on parse failure, a value of the wrong JSON
            type, or missing properties.
        DuplicateAbbrev, DuplicateMember, OpenRing: on invariant violations.
    """
    doc = source if isinstance(source, Mapping) else _load_document(source)
    if doc.get("type") != "FeatureCollection" or not isinstance(doc.get("features"), list):
        raise MalformedDocument("expected a GeoJSON FeatureCollection with a 'features' list")
    regions = []
    for i, feature in enumerate(doc["features"]):
        if not isinstance(feature, Mapping):
            raise MalformedDocument(f"feature {i}: not an object")
        props = feature.get("properties") or {}
        if not isinstance(props, Mapping):
            raise MalformedDocument(f"feature {i}: properties is not an object")
        missing = [k for k in ("id", "name", "abbrev", "members") if k not in props]
        if missing:
            raise MalformedDocument(f"feature {i}: missing properties {missing}")
        region_id = str(props["id"])
        try:
            region = WasgRegion(
                id=region_id,
                name=str(props["name"]),
                abbrev=str(props["abbrev"]),
                members=frozenset(str(m) for m in _json_list(props["members"], "members")),
                boundary=_coerce_geometry(feature.get("geometry"), region_id),
                population=_json_number(props.get("population", 0), "population", integer=True),
                internet_users=_json_number(props.get("internet_users", 0), "internet_users", integer=True),
                area_km2=_json_number(props.get("area_km2", 0.0), "area_km2"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedDocument(f"feature {i} ({region_id!r}): {exc}") from exc
        regions.append(region)
    return WasgRegistry(regions)


def _load_document(path) -> Mapping:
    """Read one JSON object from a file; every JSON document loader uses this.

    Raises:
        MalformedDocument: the file cannot be read, is not JSON, or holds
            something other than an object.
    """
    if not isinstance(path, (str, Path)):
        raise MalformedDocument(f"unsupported document source type {type(path).__name__}")
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack allows.
        raise MalformedDocument(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise MalformedDocument(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _json_list(value, what: str):
    """``value`` if it is a JSON array; TypeError (so MalformedDocument) if not.

    A string is refused too: iterating it would yield its characters.
    """
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} is not a list")
    return value


def _json_number(value, what: str, integer: bool = False):
    """``value`` as a float, or an int if ``integer``, if it is a JSON number.

    TypeError or ValueError (so MalformedDocument) if not: ``float()``
    would take the string "40" and true, and ``int()`` would truncate 1.5.
    """
    if not _is_number_type(type(value)):
        raise TypeError(f"{what} is not a number")
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} is not an integer")
    return int(value)


def _is_number_type(kind: type) -> bool:
    return issubclass(kind, (int, float)) and not issubclass(kind, bool)


def registry_to_geojson(registry: WasgRegistry) -> dict:
    """Serialize a registry back to the GeoJSON layout accepted by load_registry."""
    features = []
    for region in registry:
        polygons = [[list(list(v) for v in ring) for ring in polygon] for polygon in region.boundary]
        if not polygons:
            geometry = None
        elif len(polygons) == 1:
            geometry = {"type": "Polygon", "coordinates": polygons[0]}
        else:
            geometry = {"type": "MultiPolygon", "coordinates": polygons}
        features.append(
            {
                "type": "Feature",
                "geometry": geometry,
                "properties": {
                    "id": region.id,
                    "name": region.name,
                    "abbrev": region.abbrev,
                    "members": sorted(region.members),
                    "population": region.population,
                    "internet_users": region.internet_users,
                    "area_km2": region.area_km2,
                },
            }
        )
    return {"type": "FeatureCollection", "features": features}


@dataclass(frozen=True)
class StatTotals:
    population: int = 0
    internet_users: int = 0
    area_km2: float = 0.0

    def add(self, record: AdminStatRecord) -> "StatTotals":
        return StatTotals(
            population=self.population + record.population,
            internet_users=self.internet_users + record.effective_internet_users(),
            area_km2=self.area_km2 + (record.area_km2 or 0.0),
        )


@dataclass(frozen=True)
class AggregateResult:
    """Per-WASG statistic totals plus the remainder outside every grid."""

    per_wasg: Mapping[str, StatTotals]
    uncovered: StatTotals
    uncovered_codes: tuple[str, ...]
    missing_codes: tuple[str, ...]

    def world_totals(self) -> StatTotals:
        pop = self.uncovered.population
        users = self.uncovered.internet_users
        area = self.uncovered.area_km2
        for totals in self.per_wasg.values():
            pop += totals.population
            users += totals.internet_users
            area += totals.area_km2
        return StatTotals(pop, users, area)


def aggregate_stats(
    registry: WasgRegistry,
    stats: Sequence[AdminStatRecord],
    strict: bool = False,
) -> AggregateResult:
    """Sum statistics records into per-WASG totals by member code.

    Codes in ``stats`` belonging to no grid are returned as the
    ``uncovered`` remainder. Member codes with no record are listed in
    ``missing_codes``; in strict mode they raise instead.

    Raises:
        MissingStats: strict mode only, when member codes lack records.
        ValueError: on duplicate stat codes.
    """
    by_code: dict[str, AdminStatRecord] = {}
    for record in stats:
        if record.code in by_code:
            raise ValueError(f"duplicate statistics record for code {record.code!r}")
        by_code[record.code] = record

    per_wasg: dict[str, StatTotals] = {}
    covered_codes: set[str] = set()
    missing: list[str] = []
    for region in registry:
        totals = StatTotals()
        for code in sorted(region.members):
            record = by_code.get(code)
            if record is None:
                missing.append(code)
                continue
            covered_codes.add(code)
            totals = totals.add(record)
        per_wasg[region.id] = totals

    if strict and missing:
        raise MissingStats(missing)

    uncovered = StatTotals()
    uncovered_codes = []
    for code in sorted(by_code):
        if code not in covered_codes:
            uncovered = uncovered.add(by_code[code])
            uncovered_codes.append(code)

    return AggregateResult(
        per_wasg=per_wasg,
        uncovered=uncovered,
        uncovered_codes=tuple(uncovered_codes),
        missing_codes=tuple(sorted(missing)),
    )
