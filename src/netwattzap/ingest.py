"""Parsers for Internet infrastructure datasets.

Handles ITDK-style router/link topology text files, located-component
CSVs, and administrative statistics CSVs. Topology cleaning removes
multicast-range (224.0.0.0-239.255.255.255) interfaces, drops nodes
left without interfaces, and drops links whose endpoints disappeared;
every removal is counted so input totals reconcile exactly.

Node, geo and CSV parsers stream their input line by line; declared and
kept node ids are sorted int64 arrays. Link files given as a path or a
text file are scanned in chunks of about 16 KiB, one regular expression
turning each plain link line into a row of link id and ends; a chunk
with any other line (ids of 19 or more digits, non-ASCII text, malformed
lines) goes through the per-line link parser, which only parses too.
``_LinkSorter._sort_rows`` alone sorts the rows into kept, removed, self
and dangling links, so every count and error is the same either way.
An interface that is a dotted quad is classified by its first octet;
any other interface token must be an IPv6 address.
Kept nodes and links are data, not objects: ``ParsedTopology.nodes``
holds node id, latitude and longitude (NaN without geolocation), 24
bytes a node; the ``(k, 2)`` int64 ``ParsedTopology.links`` holds the
rows of each link's ends in ``nodes``, 16 bytes a link, found by
``_find``, the one place that maps node ids to rows.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from array import array
from dataclasses import dataclass
from ipaddress import AddressValueError, IPv6Address
from itertools import chain
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import DanglingLinkEndpoint, MalformedLine, MalformedRow
from .geo import GeoPoint, check_coordinates
from .grid_model import AdminStatRecord

logger = logging.getLogger(__name__)

# Largest node or link id: node ids are stored as int64, and link ids must fit it too.
MAX_ID = 2**63 - 1
# A kept router: its id, and its latitude and longitude in degrees, both
# NaN for a router without geolocation.
NODE_DTYPE = np.dtype([("id", "<i8"), ("lat", "<f8"), ("lon", "<f8")])
# Field indices of latitude and longitude on a ``node.geo`` line.
GEO_LAT_COL = 4
GEO_LON_COL = 5

COMPONENT_KINDS = ("router", "ixp", "dns_root", "datacenter", "demand_point", "custom")

_NODE_RE = re.compile(r"^node\s+N(\d+):\s*(.*)$")
_GEO_RE = re.compile(r"^node\.geo\s+N(\d+):\s*(.*)$")
_LINK_RE = re.compile(r"^link\s+L(\d+):\s*(.*)$")
_NODE_REF_RE = re.compile(r"N(\d+)(?::\S+)?")
# An IPv4 dotted quad exactly as ``IPv4Address`` accepts it: decimal
# octets 0-255 without leading zeros. Group 1 is the first octet.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD_RE = re.compile(rf"({_OCTET})(?:\.{_OCTET}){{3}}")

# Characters of link text read per chunk. About 16 KiB amortises the
# per-chunk numpy work while keeping peak memory flat.
_CHUNK_CHARS = 16384
# A link line the chunk scan takes as is. Everything it matches is
# ASCII; ids have at most 18 digits, so they fit int64 and stay below
# MAX_ID; the two groups after the link id are the first two node
# references that _NODE_REF_RE finds in the same line.
_LINK_SCAN_RE = re.compile(
    r"^[ \t]*link L([0-9]{1,18}):[ \t]*N([0-9]{1,18})(?::[!-~]+)?[ \t]+N([0-9]{1,18})(?!\d).*$", re.M
)
# A blank or comment line of a chunk; (?!\Z) skips the empty "line"
# after the chunk's final newline.
_SKIP_SCAN_RE = re.compile(r"^(?!\Z)[ \t\r]*(?:#.*)?$", re.M)


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

    ``nodes`` is a ``NODE_DTYPE`` array; ``links`` is a ``(k, 2)`` int64
    array, each link's ends a and b as rows of ``nodes``.
    """

    nodes: np.ndarray
    links: np.ndarray
    report: CleaningReport


def _lines(source, start: int = 1) -> Iterator[tuple[int, str]]:
    """Yield (lineno, stripped line), skipping comments and blanks.

    str/Path sources are opened as files; anything else is iterated as
    lines (file objects, io.StringIO, lists), the first numbered ``start``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from _lines(handle)
        return
    for lineno, raw in enumerate(source, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _classify_interface(token: str, lineno: int) -> str:
    """Return 'keep', 'multicast', or 'ipv6'; raise MalformedLine otherwise."""
    quad = _DOTTED_QUAD_RE.fullmatch(token)
    if quad is not None:
        return "multicast" if 224 <= int(quad.group(1)) <= 239 else "keep"
    try:
        IPv6Address(token)
    except AddressValueError:
        raise MalformedLine(lineno, f"unparseable interface address {token!r}") from None
    return "ipv6"


def _int(digits: str, lineno: int, what: str) -> int:
    """``int(digits)``, or MalformedLine when the string has more digits than ``int()`` converts."""
    try:
        return int(digits)
    except ValueError:
        raise MalformedLine(lineno, f"{what} of {len(digits)} digits is too long") from None


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
    declared, kept_ids = _parse_nodes(nodes_source, report)
    if report.ipv6_interfaces:
        logger.warning("passed through %d IPv6 interfaces unvalidated", report.ipv6_interfaces)
    nodes = _geolocate(geo_source, kept_ids, report)

    sorter = _LinkSorter(report, declared, kept_ids, strict)
    if isinstance(links_source, (str, Path)):
        with open(links_source, "r", encoding="utf-8") as handle:
            sorter.scan(handle)
    elif isinstance(links_source, io.TextIOBase):
        sorter.scan(links_source)
    elif links_source is not None:
        # Other iterables may hold items with embedded or missing newlines,
        # which joining into chunks would split into lines differently.
        sorter.parse_lines(_lines(links_source))
    return ParsedTopology(nodes=nodes, links=np.frombuffer(sorter.flat, dtype=np.int64).reshape(-1, 2), report=report)


def _parse_nodes(source, report: CleaningReport) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ids of the declared nodes and of the kept ones, those left with an interface."""
    ids, linenos, kept = array("q"), array("q"), array("b")
    try:
        for lineno, line in _lines(source):
            m = _NODE_RE.match(line)
            if not m:
                raise MalformedLine(lineno, f"expected 'node N<id>: ...', got {line!r}")
            node_id = _int(m.group(1), lineno, "node id")
            if node_id > MAX_ID:
                raise MalformedLine(lineno, f"node id N{node_id} above {MAX_ID}")
            ids.append(node_id)
            linenos.append(lineno)
            node_kept = False
            for token in m.group(2).split():
                fate = _classify_interface(token, lineno)
                if fate == "multicast":
                    report.removed_interfaces += 1
                else:
                    node_kept = True
                    if fate == "ipv6":
                        report.ipv6_interfaces += 1
            kept.append(node_kept)
    except Exception:
        _sort_ids(ids, linenos)  # a repeated id before the failing line, or on it, is the first error
        raise
    order, declared = _sort_ids(ids, linenos)
    kept_ids = declared[np.frombuffer(kept, dtype=bool)[order]]
    report.input_nodes, report.removed_nodes = len(declared), len(declared) - len(kept_ids)
    return declared, kept_ids


def _sort_ids(ids: array, linenos: array) -> tuple[np.ndarray, np.ndarray]:
    """The stable sort order of ``ids`` and the sorted ids; MalformedLine at the earliest repeated id."""
    values = np.frombuffer(ids, dtype=np.int64)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if len(repeats):
        first = int(repeats.min())
        raise MalformedLine(linenos[first], f"duplicate node id N{ids[first]}")
    return order, ordered


def _geolocate(source, kept_ids: np.ndarray, report: CleaningReport) -> np.ndarray:
    """The kept nodes as a ``NODE_DTYPE`` array, located by the geo file; a later line for a node wins."""
    geo_ids, geo_lat_lon = array("q"), array("d")
    if source is not None:
        for lineno, line in _lines(source):
            m = _GEO_RE.match(line)
            if not m:
                raise MalformedLine(lineno, f"expected 'node.geo N<id>: ...', got {line!r}")
            node_id = _int(m.group(1), lineno, "node id")
            rest = m.group(2)
            fields = rest.split("\t") if "\t" in rest else rest.split()
            try:
                lat, lon = float(fields[GEO_LAT_COL]), float(fields[GEO_LON_COL])
            except (IndexError, ValueError):
                raise MalformedLine(lineno, f"no lat/lon at columns {GEO_LAT_COL}/{GEO_LON_COL}") from None
            try:
                check_coordinates(lat, lon)
            except ValueError as exc:
                raise MalformedLine(lineno, str(exc)) from None
            geo_ids.append(node_id if node_id <= MAX_ID else -1)  # -1 names no node, as ids above MAX_ID
            geo_lat_lon.extend((lat, lon))
    nodes = np.empty(len(kept_ids), dtype=NODE_DTYPE)
    nodes["id"] = kept_ids
    nodes["lat"] = nodes["lon"] = np.nan
    rows, known = _find(np.frombuffer(geo_ids, dtype=np.int64), kept_ids)
    report.geo_for_unknown_nodes = len(rows) - int(known.sum())
    # Reversed, a node's first line is its last in the file, the one np.unique picks.
    rows, last = np.unique(rows[known][::-1], return_index=True)
    lat_lon = np.frombuffer(geo_lat_lon, dtype=np.float64).reshape(-1, 2)[known][::-1][last]
    nodes["lat"][rows], nodes["lon"][rows] = lat_lon.T
    return nodes


class _LinkSorter:
    """Sorts link lines into kept, removed, self and dangling links.

    Kept links go to ``flat`` (the node rows of a and b) in file order,
    and each removal is counted in ``report``. ``_sort_rows`` alone
    decides a link's fate; ``scan`` and ``parse_lines`` only make its rows.
    """

    def __init__(self, report: CleaningReport, declared: np.ndarray, kept: np.ndarray, strict: bool):
        self.report = report
        self.declared = declared
        self.kept = kept
        self.strict = strict
        self.flat = array("q")
        self.huge: dict[int, int] = {}  # node references above MAX_ID, each to its negative code

    def scan(self, handle) -> None:
        """Read ``handle`` in chunks of lines and sort each chunk's links at once.

        A chunk is taken whole only when every line of it is a link line
        that ``_LINK_SCAN_RE`` matches or a blank or comment line; any
        other chunk goes through ``parse_lines``, with its line numbers.
        """
        lineno = 1
        while lines := handle.readlines(_CHUNK_CHARS):
            text = "".join(lines)
            rows = _LINK_SCAN_RE.findall(text)
            if len(rows) == len(lines) or len(rows) + len(_SKIP_SCAN_RE.findall(text)) == len(lines):
                if rows:
                    self._sort_rows(np.fromstring(" ".join(chain.from_iterable(rows)), dtype=np.int64, sep=" "))
            else:
                self.parse_lines(_lines(lines, lineno))
            lineno += len(lines)

    def _sort_rows(self, values) -> None:
        """Sort links given as int64 values, three per link: link id, a and b."""
        block = np.frombuffer(values, dtype=np.int64).reshape(-1, 3)
        ends = block[:, 1:]
        rows, is_kept = _find(ends, self.kept)
        undeclared = ~is_kept
        undeclared[undeclared] = ~_find(ends[undeclared], self.declared)[1]
        self_link = ends[:, 0] == ends[:, 1]
        missing = ~self_link & ~is_kept.all(axis=1)
        dangling = missing & undeclared.any(axis=1)
        if self.strict and dangling.any():
            row = int(np.argmax(dangling))
            code = int(ends[row, 0] if undeclared[row, 0] else ends[row, 1])
            node = code if code >= 0 else list(self.huge)[-1 - code]
            raise DanglingLinkEndpoint(f"link L{int(block[row, 0])} references undefined node N{node}")
        report = self.report
        report.input_links += len(block)
        report.self_links += int(self_link.sum())
        report.dangling_links += int(dangling.sum())
        report.removed_links += int((missing & ~dangling).sum())
        self.flat.frombytes(rows[~self_link & ~missing].tobytes())

    def parse_lines(self, numbered: Iterator[tuple[int, str]]) -> None:
        """The per-line link parser: every line, malformed ones included, to rows for ``_sort_rows``."""
        rows, huge = array("q"), self.huge
        try:
            for lineno, line in numbered:
                m = _LINK_RE.match(line)
                if not m:
                    raise MalformedLine(lineno, f"expected 'link L<id>: ...', got {line!r}")
                link_id = _int(m.group(1), lineno, "link id")
                if link_id > MAX_ID:
                    raise MalformedLine(lineno, f"link id L{link_id} above {MAX_ID}")
                refs = _NODE_REF_RE.findall(m.group(2))
                if len(refs) < 2:
                    raise MalformedLine(lineno, "link needs at least two node references")
                ends = [_int(ref, lineno, "node reference") for ref in refs[:2]]
                rows.extend([link_id] + [n if n <= MAX_ID else huge.setdefault(n, -1 - len(huge)) for n in ends])
        except Exception:
            self._sort_rows(rows)  # the links before the failing line come first: one may dangle
            raise
        self._sort_rows(rows)


def _find(values: np.ndarray, sorted_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise position of an int64 array's values in ``sorted_ids``, and whether each is there."""
    pos = np.searchsorted(sorted_ids, values)
    found = pos < len(sorted_ids)
    found[found] = sorted_ids[pos[found]] == values[found]
    return pos, found


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
        except (ValueError, AttributeError, RecursionError) as exc:
            # ValueError: JSONDecodeError, or a number with more digits than int() converts;
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
    penetration, carrying negative/out-of-range numbers, or repeating
    an earlier row's code raises MalformedRow.
    """
    records: list[AdminStatRecord] = []
    first_row: dict[str, int] = {}
    for rowno, row in _csv_rows(source, required=("code", "population", "internet_users", "penetration", "area_km2")):
        code = (row.get("code") or "").strip()
        if not code:
            raise MalformedRow(rowno, "empty code")
        if code in first_row:
            raise MalformedRow(rowno, f"duplicate code {code!r}, first on row {first_row[code]}")
        first_row[code] = rowno
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
        with open(source, "r", encoding="utf-8", newline="") as handle:
            yield from _csv_rows(handle, required)
        return
    reader = csv.DictReader(source)
    try:
        missing = [col for col in required if col not in (reader.fieldnames or [])]
        if missing:
            raise MalformedRow(1, f"header missing columns {missing}")
        for rowno, row in enumerate(reader, start=2):
            yield rowno, row
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit(); DictReader.line_num lags a row
        raise MalformedRow(reader.reader.line_num, str(exc)) from None
