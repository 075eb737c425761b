"""Parsers for Internet infrastructure datasets.

Handles ITDK-style router/link topology text files, located-component
CSVs, and administrative statistics CSVs. Topology cleaning removes
multicast-range (224.0.0.0-239.255.255.255) interfaces, drops nodes
left without interfaces, and drops links whose endpoints disappeared;
every removal is counted so input totals reconcile exactly.

Parsers stream their input line by line. Kept links are data, not
objects: ``ParsedTopology.links`` is one ``(k, 3)`` int64 array of link
id and endpoint node ids, 24 bytes per link, so multi-million-row link
files stay small in memory.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass
from ipaddress import AddressValueError, IPv4Address, IPv6Address
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DanglingLinkEndpoint, MalformedLine, MalformedRow
from .geo import GeoPoint
from .grid_model import AdminStatRecord

logger = logging.getLogger(__name__)

MULTICAST_LO = IPv4Address("224.0.0.0")
MULTICAST_HI = IPv4Address("239.255.255.255")

# Largest node or link id: ids are stored as int64.
MAX_ID = 2**63 - 1
# Field indices of latitude and longitude on a ``node.geo`` line.
GEO_LAT_COL = 4
GEO_LON_COL = 5

COMPONENT_KINDS = ("router", "ixp", "dns_root", "datacenter", "demand_point", "custom")

_NODE_RE = re.compile(r"^node\s+N(\d+):\s*(.*)$")
_GEO_RE = re.compile(r"^node\.geo\s+N(\d+):\s*(.*)$")
_LINK_RE = re.compile(r"^link\s+L(\d+):\s*(.*)$")
_NODE_REF_RE = re.compile(r"N(\d+)(?::\S+)?")


@dataclass(frozen=True)
class RouterNode:
    """A router that kept at least one interface, with optional geolocation."""

    node_id: int
    geo: GeoPoint | None = None


@dataclass(frozen=True)
class InfraComponent:
    """A located Internet asset (IXP, DNS root instance, data center, ...)."""

    id: str
    kind: str
    geo: GeoPoint
    zone: str | None = None
    weight: float = 1.0
    attrs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"component {self.id!r}: unknown kind {self.kind!r}")
        if not 0 <= self.weight < math.inf:
            raise ValueError(f"component {self.id!r}: weight {self.weight!r} not finite and non-negative")
        az_count = self.attr("az_count")
        if az_count is not None and (type(az_count) is not int or az_count < 1):
            raise ValueError(f"component {self.id!r}: az_count must be a positive integer")

    def attr(self, key: str, default=None):
        for k, v in self.attrs:
            if k == key:
                return v
        return default


@dataclass
class CleaningReport:
    """Entity counts removed while cleaning a topology."""

    input_nodes: int = 0
    input_links: int = 0
    removed_interfaces: int = 0
    ipv6_interfaces: int = 0
    removed_nodes: int = 0
    removed_links: int = 0
    self_links: int = 0
    dangling_links: int = 0
    geo_for_unknown_nodes: int = 0

    @property
    def kept_nodes(self) -> int:
        return self.input_nodes - self.removed_nodes

    @property
    def kept_links(self) -> int:
        return self.input_links - self.removed_links - self.self_links - self.dangling_links


@dataclass
class ParsedTopology:
    """Kept nodes sorted by id, kept links in file order, and the removal counts.

    ``links`` has shape ``(k, 3)``, columns link id, a and b.
    """

    nodes: list[RouterNode]
    links: np.ndarray
    report: CleaningReport


def _lines(source) -> Iterator[tuple[int, str]]:
    """Yield (lineno, stripped line), skipping comments and blanks.

    str/Path sources are opened as files; anything else is iterated as
    lines (file objects, io.StringIO, lists).
    """
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8")
        close = True
    else:
        handle = source
        close = False
    try:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line
    finally:
        if close:
            handle.close()


def _classify_interface(token: str, lineno: int) -> str:
    """Return 'keep', 'multicast', or 'ipv6'; raise MalformedLine otherwise."""
    try:
        addr = IPv4Address(token)
    except AddressValueError:
        try:
            IPv6Address(token)
        except AddressValueError:
            raise MalformedLine(lineno, f"unparseable interface address {token!r}") from None
        return "ipv6"
    if MULTICAST_LO <= addr <= MULTICAST_HI:
        return "multicast"
    return "keep"


def parse_topology(nodes_source, geo_source=None, links_source=None, *, strict: bool = False) -> ParsedTopology:
    """Parse ITDK-style nodes/geo/links files and apply the cleaning rules.

    Node lines look like ``node N1: 1.2.3.4 5.6.7.8``, geo lines
    ``node.geo N1: <fields...>`` with lat/lon at field indices
    ``GEO_LAT_COL``/``GEO_LON_COL``, link lines ``link L1: N1:1.2.3.4 N2 ...``
    (only the first two node references of a hyperedge are used).

    Raises:
        MalformedLine: on lines that do not match the format, and on
            node or link ids above ``MAX_ID``.
        DanglingLinkEndpoint: strict mode, links naming unknown nodes.
    """
    report = CleaningReport()
    kept_nodes: set[int] = set()
    declared_nodes: set[int] = set()

    for lineno, line in _lines(nodes_source):
        m = _NODE_RE.match(line)
        if not m:
            raise MalformedLine(lineno, f"expected 'node N<id>: ...', got {line!r}")
        node_id = int(m.group(1))
        if node_id > MAX_ID:
            raise MalformedLine(lineno, f"node id N{node_id} above {MAX_ID}")
        if node_id in declared_nodes:
            raise MalformedLine(lineno, f"duplicate node id N{node_id}")
        declared_nodes.add(node_id)
        report.input_nodes += 1
        kept = False
        for token in m.group(2).split():
            fate = _classify_interface(token, lineno)
            if fate == "multicast":
                report.removed_interfaces += 1
            else:
                kept = True
                if fate == "ipv6":
                    report.ipv6_interfaces += 1
        if kept:
            kept_nodes.add(node_id)
        else:
            report.removed_nodes += 1

    if report.ipv6_interfaces:
        logger.warning("passed through %d IPv6 interfaces unvalidated", report.ipv6_interfaces)

    geo_by_node: dict[int, GeoPoint] = {}
    if geo_source is not None:
        for lineno, line in _lines(geo_source):
            m = _GEO_RE.match(line)
            if not m:
                raise MalformedLine(lineno, f"expected 'node.geo N<id>: ...', got {line!r}")
            node_id = int(m.group(1))
            rest = m.group(2)
            fields = rest.split("\t") if "\t" in rest else rest.split()
            try:
                lat = float(fields[GEO_LAT_COL])
                lon = float(fields[GEO_LON_COL])
            except (IndexError, ValueError):
                raise MalformedLine(lineno, f"no lat/lon at columns {GEO_LAT_COL}/{GEO_LON_COL}") from None
            try:
                point = GeoPoint(lat, lon)
            except ValueError as exc:
                raise MalformedLine(lineno, str(exc)) from None
            if node_id in kept_nodes:
                geo_by_node[node_id] = point
            else:
                report.geo_for_unknown_nodes += 1

    flat = array("q")  # link id, a, b of each kept link, 8 bytes per value
    if links_source is not None:
        for lineno, line in _lines(links_source):
            m = _LINK_RE.match(line)
            if not m:
                raise MalformedLine(lineno, f"expected 'link L<id>: ...', got {line!r}")
            link_id = int(m.group(1))
            if link_id > MAX_ID:
                raise MalformedLine(lineno, f"link id L{link_id} above {MAX_ID}")
            report.input_links += 1
            refs = _NODE_REF_RE.findall(m.group(2))
            if len(refs) < 2:
                raise MalformedLine(lineno, "link needs at least two node references")
            a, b = int(refs[0]), int(refs[1])
            if a == b:
                report.self_links += 1
                continue
            missing = [n for n in (a, b) if n not in kept_nodes]
            if missing:
                undeclared = [n for n in missing if n not in declared_nodes]
                if undeclared:
                    if strict:
                        raise DanglingLinkEndpoint(
                            f"link L{link_id} references undefined node N{undeclared[0]}"
                        )
                    report.dangling_links += 1
                else:
                    report.removed_links += 1
                continue
            flat.extend((link_id, a, b))

    nodes = [RouterNode(node_id=nid, geo=geo_by_node.get(nid)) for nid in sorted(kept_nodes)]
    links = np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)
    return ParsedTopology(nodes=nodes, links=links, report=report)


@dataclass
class ParsedComponents:
    components: list[InfraComponent]
    skipped: list[tuple[int, str]]


def parse_components(source, kind: str | None = None) -> ParsedComponents:
    """Parse a component CSV with header ``id,kind,lat,lon,weight,attrs_json``.

    Rows with empty lat/lon are skipped and reported; out-of-range or
    non-numeric coordinates raise MalformedRow. The ``kind`` argument
    fills rows whose kind cell is empty.
    """
    components: list[InfraComponent] = []
    skipped: list[tuple[int, str]] = []
    for rowno, row in _csv_rows(source, required=("id", "kind", "lat", "lon", "weight", "attrs_json")):
        lat_raw = (row.get("lat") or "").strip()
        lon_raw = (row.get("lon") or "").strip()
        if not lat_raw or not lon_raw:
            skipped.append((rowno, "missing geolocation"))
            continue
        try:
            point = GeoPoint(float(lat_raw), float(lon_raw))
        except ValueError as exc:
            raise MalformedRow(rowno, str(exc)) from None
        row_kind = (row.get("kind") or "").strip() or kind
        if not row_kind:
            raise MalformedRow(rowno, "kind missing and no default given")
        weight_raw = (row.get("weight") or "").strip()
        attrs_raw = (row.get("attrs_json") or "").strip()
        try:
            attrs = tuple(sorted(json.loads(attrs_raw).items())) if attrs_raw else ()
        except (json.JSONDecodeError, AttributeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder's stack allows.
            raise MalformedRow(rowno, f"bad attrs_json: {exc}") from None
        try:
            component = InfraComponent(
                id=(row.get("id") or "").strip(),
                kind=row_kind,
                geo=point,
                weight=float(weight_raw) if weight_raw else 1.0,
                attrs=attrs,
            )
        except ValueError as exc:
            raise MalformedRow(rowno, str(exc)) from None
        if not component.id:
            raise MalformedRow(rowno, "empty id")
        components.append(component)
    if skipped:
        logger.info("skipped %d component rows without geolocation", len(skipped))
    return ParsedComponents(components=components, skipped=skipped)


def parse_stats(source) -> list[AdminStatRecord]:
    """Parse a statistics CSV ``code,population,internet_users,penetration,area_km2``.

    Empty cells mean absent; a row missing both internet_users and
    penetration, or carrying negative/out-of-range numbers, raises
    MalformedRow.
    """
    records: list[AdminStatRecord] = []
    for rowno, row in _csv_rows(source, required=("code", "population", "internet_users", "penetration", "area_km2")):
        code = (row.get("code") or "").strip()
        if not code:
            raise MalformedRow(rowno, "empty code")
        try:
            record = AdminStatRecord(
                code=code,
                population=int((row.get("population") or "").strip() or 0),
                internet_users=_opt_int(row.get("internet_users")),
                penetration=_opt_float(row.get("penetration")),
                area_km2=_opt_float(row.get("area_km2")),
            )
        except ValueError as exc:
            raise MalformedRow(rowno, str(exc)) from None
        records.append(record)
    return records


def _opt_int(raw) -> int | None:
    raw = (raw or "").strip()
    return int(raw) if raw else None


def _opt_float(raw) -> float | None:
    raw = (raw or "").strip()
    return float(raw) if raw else None


def _csv_rows(source, required: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8", newline="")
        close = True
    else:
        handle = source
        close = False
    reader = csv.DictReader(handle)
    try:
        missing = [col for col in required if col not in (reader.fieldnames or [])]
        if missing:
            raise MalformedRow(1, f"header missing columns {missing}")
        for rowno, row in enumerate(reader, start=2):
            yield rowno, row
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit(); DictReader.line_num lags a row
        raise MalformedRow(reader.reader.line_num, str(exc)) from None
    finally:
        if close:
            handle.close()
