"""Registry of wide-area synchronous grids (WASGs).

A registry is loaded once from a GeoJSON FeatureCollection and is
immutable afterwards, so it can be shared freely across workers. Member
administrative codes are the source of truth for statistics
aggregation; boundary polygons are the source of truth for point
resolution (see ``overlap``).
"""

from __future__ import annotations

import gc
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateAbbrev,
    DuplicateMember,
    MalformedDocument,
    MissingStats,
    OpenRing,
    UnknownWasg,
)
from .geo import _ordered_sum

Ring = np.ndarray  # (n, 2) float64 of (lon, lat), read-only
Polygon = tuple[Ring, ...]
MultiPolygon = tuple[Polygon, ...]
_RINGS = object()  # key of a decoded geometry's polygons, in place of its point lists


class _Decoded(np.ndarray):
    """A ring array that ``_coerce_ring`` made and nothing else holds: a region keeps it without a copy."""


@dataclass(frozen=True, eq=False)
class WasgRegion:
    """One synchronous grid: identity, members, boundary, demographics.

    ``boundary`` is a multi-polygon of closed rings (first vertex
    repeated last) in GeoJSON vertex order. Each ring is given as any
    sequence of (lon, lat) pairs and kept as a checked, read-only (n, 2)
    float64 array. Regions compare and hash by identity.
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
        if "|" in self.id:
            raise ValueError(f"region {self.id!r}: '|' in an id, where it joins the grid pairs of overlap reports")
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
        if any(len(polygon) == 0 for polygon in self.boundary):
            raise ValueError(f"region {self.id!r}: polygon with no ring")
        object.__setattr__(self, "boundary", tuple(tuple(map(self._ring, polygon)) for polygon in self.boundary))

    def _ring(self, vertices) -> Ring:
        # A caller's vertices are copied, so the region never shares their memory.
        ring = vertices.view(np.ndarray) if type(vertices) is _Decoded else np.array(vertices, dtype=np.float64)
        if len(ring) < 4:
            raise OpenRing(f"region {self.id!r}: ring with {len(ring)} vertices (need >= 4)")
        if ring.shape[1:] != (2,):
            raise ValueError(f"region {self.id!r}: ring of shape {ring.shape}, not (lon, lat) points")
        # One range test also rejects NaN and +-inf.
        if not (np.abs(ring) <= (180.0, 90.0)).all():
            raise ValueError(
                f"region {self.id!r}: non-finite ring coordinate or one outside lon [-180, 180], lat [-90, 90]"
            )
        if (ring[0] != ring[-1]).any():
            raise OpenRing(f"region {self.id!r}: ring not closed (first vertex != last)")
        ring.flags.writeable = False
        return ring

    def __reduce__(self):  # copies and unpickled regions go through __post_init__ again
        return (WasgRegion, tuple(getattr(self, f.name) for f in fields(self)))


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
        # Reports rank both counts as floats. An int compares with a float exactly, without converting.
        if not (self.population <= sys.float_info.max and self.effective_internet_users() <= sys.float_info.max):
            raise ValueError(f"stat {self.code!r}: population or internet users past the float range")

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
            for code in sorted(region.members):
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
        return registry_to_geojson(self) == registry_to_geojson(other)

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


def _coerce_ring(raw):
    """A JSON list of points of JSON numbers as an (n, 2) float64 array, TypeError if not; WasgRegion checks the rest.

    Points that are not all pairs come back as ``raw``, so WasgRegion names their shape.
    """
    # One type pass each, not a call per point: numpy would read the point ["1", "2"] or true as numbers.
    if not {list, tuple}.issuperset(map(type, _json_list(raw, "ring"))):
        raise TypeError("ring point is not a list")
    flat = list(chain.from_iterable(raw))
    if not all(map(_is_number_type, set(map(type, flat)))):
        raise TypeError("ring coordinate is not a number")
    # numpy converts one flat list far faster than a list of pairs, to the same floats.
    if set(map(len, raw)) != {2}:
        return raw
    return np.array(flat, dtype=np.float64).reshape(-1, 2).view(_Decoded)


def _coerce_geometry(geometry) -> tuple:
    """A GeoJSON geometry's polygons, each a tuple of coerced rings; TypeError or ValueError if it is not one."""
    if geometry is None:
        return ()
    if not isinstance(geometry, Mapping):
        raise TypeError("geometry is not an object")
    if _RINGS in geometry:  # only the decode hook's own dicts hold it; once read, the region keeps the rings
        return geometry.pop(_RINGS)
    gtype = geometry.get("type")
    coords = geometry.get("coordinates")
    if gtype == "Polygon":
        polygons = [coords]
    elif gtype == "MultiPolygon":
        polygons = _json_list(coords, "MultiPolygon coordinates")
    else:
        raise ValueError(f"unsupported geometry type {gtype!r}")
    return tuple(tuple(map(_coerce_ring, _json_list(polygon, "polygon"))) for polygon in polygons)


def _decode_geometry(obj: dict) -> dict:
    """Decode hook: a geometry's rings as arrays once it closes, so its point lists go; else ``obj`` as read."""
    if obj.get("type") in ("Polygon", "MultiPolygon") and "coordinates" in obj:
        # What load_registry catches; let out of json.loads, a ring's 10**400 would end the CLI in a traceback.
        try:
            polygons = _coerce_geometry(obj)
        except (TypeError, ValueError, OverflowError):
            return obj
        if all(type(ring) is _Decoded for polygon in polygons for ring in polygon):
            del obj["coordinates"]
            obj[_RINGS] = polygons
    return obj


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
    doc = source if isinstance(source, Mapping) else _load_document(source, _decode_geometry)
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
        region_id = props["id"]
        try:
            region = WasgRegion(
                id=_json_str(region_id, "id"),
                name=_json_str(props["name"], "name"),
                abbrev=_json_str(props["abbrev"], "abbrev"),
                members=frozenset(_json_str(m, "member code") for m in _json_list(props["members"], "members")),
                boundary=_coerce_geometry(feature.get("geometry")),
                population=_json_number(props.get("population", 0), "population", integer=True),
                internet_users=_json_number(props.get("internet_users", 0), "internet_users", integer=True),
                area_km2=_json_number(props.get("area_km2", 0.0), "area_km2"),
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedDocument(f"feature {i} ({region_id!r}): {exc}") from exc
        regions.append(region)
    return WasgRegistry(regions)


def _load_document(path, object_hook=None) -> Mapping:
    """Read one JSON object from a file; every JSON document loader uses this.

    ``object_hook`` goes to ``json.loads``. The decode, which builds no cycle, pauses the
    cyclic collector for the whole process; its prior state comes back however the decode ends.

    Raises:
        MalformedDocument: the file cannot be read, is not JSON, or holds
            something other than an object.
    """
    if not isinstance(path, (str, Path)):
        raise MalformedDocument(f"unsupported document source type {type(path).__name__}")
    collecting = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"), object_hook=object_hook)
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's stack allows.
        raise MalformedDocument(f"invalid JSON in {path}: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
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


def _json_str(value, what: str) -> str:
    """``value`` if it is a JSON string; TypeError (so MalformedDocument) if not.

    ``str()`` would load true as "True" and ["x"] as "['x']".
    """
    if not isinstance(value, str):
        raise TypeError(f"{what} is not a string")
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
        polygons = [[ring.tolist() for ring in polygon] for polygon in region.boundary]
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


@dataclass(frozen=True)
class AggregateResult:
    """Per-WASG statistic totals plus the remainder outside every grid."""

    per_wasg: Mapping[str, StatTotals]
    uncovered: StatTotals
    uncovered_codes: tuple[str, ...]
    missing_codes: tuple[str, ...]


def _totals(records: Sequence[AdminStatRecord]) -> StatTotals:
    """The records' sums; areas are added left to right, so pass them in code order."""
    return StatTotals(
        population=sum(r.population for r in records),
        internet_users=sum(r.effective_internet_users() for r in records),
        area_km2=_ordered_sum(r.area_km2 or 0.0 for r in records),
    )


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
    missing: list[str] = []
    for region in registry:
        members = sorted(region.members)
        missing += (code for code in members if code not in by_code)
        per_wasg[region.id] = _totals([by_code[code] for code in members if code in by_code])

    if strict and missing:
        raise MissingStats(missing)

    uncovered_codes = tuple(code for code in sorted(by_code) if registry.region_of_member(code) is None)
    return AggregateResult(
        per_wasg=per_wasg,
        uncovered=_totals([by_code[code] for code in uncovered_codes]),
        uncovered_codes=uncovered_codes,
        missing_codes=tuple(sorted(missing)),
    )
