"""Parsers for Internet infrastructure datasets.

Handles ITDK-style router/link topology text files, located-component
CSVs, and administrative statistics CSVs. Topology cleaning removes
multicast-range (224.0.0.0-239.255.255.255) interfaces, drops nodes
left without interfaces, and drops links whose endpoints disappeared;
every removal is counted so input totals reconcile exactly.

Every parser streams its input. ``_scan`` is the one reader of node, geo
and link sources. A file given as a path is read, a leading byte-order
mark dropped, in blocks of about 16 KiB ended by a newline, each scanned
by one regular expression that takes its common lines: unicast IPv4
nodes, tab-form geo lines with plain decimal coordinates, plain links.
The other lines of a node or geo block, or every line of a geo block
with a coordinate out of range or of a link block with any other line,
go through the per-line parser with their line numbers, as open files
and lists of lines do. The node pass ends in ``_IdTable``, the one place
that maps node ids to codes: a kept node's row, or the fate of any
other id. ``sort_rows`` in ``_sort_links`` alone sorts the links into
kept, removed, self and dangling, so every count and error is the same
either way. An interface that is a dotted quad is classified by its first
octet; any other interface token must be an IPv6 address.
Kept nodes and links are data, not objects: ``ParsedTopology.nodes``
holds node id, latitude and longitude (NaN without geolocation), 24
bytes a node; the ``(k, 2)`` int64 ``ParsedTopology.links`` holds the
rows of each link's ends in ``nodes``, 16 bytes a link.
"""

from __future__ import annotations

import csv
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
_GEO_RE = re.compile(r"^node\.geo\s+N(\d+):\s?(.*)$")
_LINK_RE = re.compile(r"^link\s+L(\d+):\s*(.*)$")
_NODE_REF_RE = re.compile(r"N(\d+)(?::\S+)?")
# An IPv4 dotted quad exactly as ``IPv4Address`` accepts it: decimal
# octets 0-255 without leading zeros. Group 1 is the first octet.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_DOTTED_QUAD_RE = re.compile(rf"({_OCTET})(?:\.{_OCTET}){{3}}")

# Characters of text read per block, before the rest of its last line.
# About 16 KiB amortises the per-block numpy work while keeping peak memory flat.
_CHUNK_CHARS = 16384
# A link line the block scan takes as is. Everything it matches is
# ASCII; ids have at most 18 digits, so they fit int64 and stay below
# MAX_ID; its two groups are the first two node references that
# _NODE_REF_RE finds in the same line.
_LINK_SCAN_RE = re.compile(
    r"^[ \t]*link L[0-9]{1,18}:[ \t]*N([0-9]{1,18})(?::[!-~]+)?[ \t]+N([0-9]{1,18})(?!\d).*$", re.M
)
# The node and geo scans yield one entry per line of a block, empty for a
# line they do not take; (?!\Z) skips the empty "line" after the final
# newline. A node line is taken when it holds 1 to 16 dotted quads with
# a first octet of 0-223, all kept (re keeps about 1 KB of backtracking
# state per repetition of a group). A geo line is taken in the tab form,
# one tab after the colon and one before each cell, when cells
# GEO_LAT_COL and GEO_LON_COL hold plain decimals.
_NODE_SCAN_RE = re.compile(
    rf"^(?!\Z)(?:[ \t]*node[ \t]+N([0-9]{{1,18}}):"
    rf"(?:[ \t]+(?:22[0-3]|2[01][0-9]|1[0-9][0-9]|[1-9]?[0-9])(?:\.{_OCTET}){{3}}){{1,16}}[ \t]*$|.*)",
    re.M,
)
_COORD = r"(-?[0-9]{1,3}(?:\.[0-9]{1,17})?)"
_GEO_SCAN_RE = re.compile(
    rf"^(?!\Z)(?:[ \t]*node\.geo[ \t]+N([0-9]{{1,18}}):"
    rf"\t(?:[^\t\n]*\t){{{GEO_LAT_COL}}}{_COORD}\t{_COORD}(?:\t.*)?$|.*)",
    re.M,
)
# A blank or comment line of a block; (?!\Z) skips the empty "line"
# after the block's final newline.
_SKIP_SCAN_RE = re.compile(r"^(?!\Z)[ \t]*(?:#.*)?$", re.M)


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


def _scan(source, block, parse_lines) -> None:
    """Read a node, geo or link source into its pass: the one place that tells a path from lines.

    A path is read by ``_blocks``, and ``block(start, text, n)`` returns the numbered lines of a block that its
    expression leaves for ``parse_lines``. Any other source (an open file, a list of lines) goes to ``parse_lines``
    line by line, as iterating it gives them, numbered from 1, but comments and blanks.
    """
    if isinstance(source, (str, Path)):
        for start, text, n in _blocks(source):
            parse_lines(block(start, text, n))
    elif source is not None:
        parse_lines((i, line) for i, raw in enumerate(source, 1) if (line := raw.strip()) and not line.startswith("#"))


def _blocks(path) -> Iterator[tuple[int, str, int]]:
    """A UTF-8 file's text, but a leading byte-order mark, in blocks of about ``_CHUNK_CHARS`` characters ended by a
    newline (or the file's end), each with the number of its first line and its count of newlines. The rest of a
    block's last line is read in pieces joined once, so a line longer than a block is not held twice."""
    lineno = 1
    with open(path, "r", encoding="utf-8-sig") as handle:
        while text := handle.read(_CHUNK_CHARS):
            pieces = [text]
            while pieces[-1][-1] != "\n" and (piece := handle.readline(_CHUNK_CHARS)):
                pieces.append(piece)
            text = "".join(pieces)
            del pieces
            n = text.count("\n")
            yield lineno, text, n
            lineno += n


def _unscanned(text: str, start: int, taken: np.ndarray | None = None) -> Iterator[tuple[int, str]]:
    """Yield (lineno, stripped line) for the lines of a block that ``taken`` does not flag, or for all of them without
    ``taken``, but comments and blanks."""
    if taken is not None and taken.all():
        return
    lines = text.split("\n")  # at newlines alone, as reading the file does; str.splitlines also splits at form feeds
    for i in range(len(lines)) if taken is None else np.flatnonzero(~taken).tolist():
        line = lines[i].strip()
        if line and not line.startswith("#"):
            yield start + i, line


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
    table = _parse_nodes(nodes_source, report)
    if report.ipv6_interfaces:
        logger.warning("passed through %d IPv6 interfaces unvalidated", report.ipv6_interfaces)
    nodes = _geolocate(geo_source, table, report)
    return ParsedTopology(nodes=nodes, links=_sort_links(links_source, table, report, strict), report=report)


def _parse_nodes(source, report: CleaningReport) -> _IdTable:
    """The id table of the declared nodes, the kept ones being those left with an interface.

    A path is scanned in blocks, and only the lines that ``_NODE_SCAN_RE`` does not take are parsed one by one.
    """
    ids, linenos, kept = array("q"), array("q"), array("b")

    def parse_lines(numbered: Iterator[tuple[int, str]]) -> None:
        for lineno, line in numbered:
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

    def block(start: int, text: str, n: int) -> Iterator[tuple[int, str]]:
        found = _NODE_SCAN_RE.findall(text)
        taken = np.fromiter(map(bool, found), dtype=bool, count=len(found))
        block_ids = np.fromstring(" ".join(filter(None, found)), dtype=np.int64, sep=" ")
        ids.frombytes(block_ids.tobytes())
        linenos.frombytes((np.flatnonzero(taken) + start).astype(np.int64).tobytes())
        kept.frombytes(b"\x01" * len(block_ids))  # a taken line's interfaces are all kept
        return _unscanned(text, start, taken)

    try:
        _scan(source, block, parse_lines)
    except Exception as exc:
        # A repeated id before the failing line, or on it, is the first error.
        _sort_ids(ids, linenos, getattr(exc, "lineno", None))
        raise
    order, declared = _sort_ids(ids, linenos)
    table = _IdTable(declared, np.frombuffer(kept, dtype=bool)[order])
    report.input_nodes, report.removed_nodes = len(declared), len(declared) - len(table.kept_ids)
    return table


def _sort_ids(ids: array, linenos: array, upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts ``ids`` by id, then by line, and the sorted ids.

    MalformedLine at the earliest line whose id an earlier line declared, of the lines up to ``upto`` when given.
    """
    values, lines = np.frombuffer(ids, dtype=np.int64), np.frombuffer(linenos, dtype=np.int64)
    if upto is not None:
        before = lines <= upto
        values, lines = values[before], lines[before]
    order = np.lexsort((lines, values))
    ordered = values[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if len(repeats):
        first = repeats[np.argmin(lines[repeats])]
        raise MalformedLine(int(lines[first]), f"duplicate node id N{values[first]}")
    return order, ordered


class _IdTable:
    """Node ids to codes: a kept node's row, -1 for a node declared but not kept, -2 for an id not declared.

    ``codes`` is an int32 table over the ids ``0..max id`` (4 bytes an id) and a last -2 that other ids read.
    Ids sparser than 4 times their count plus 2**16 get no table, but a code for each of ``sparse_ids``.
    """

    def __init__(self, declared: np.ndarray, kept: np.ndarray):
        self.kept_ids = declared[kept]
        top = int(declared[-1]) + 1 if len(declared) else 0
        dense = top <= 4 * len(declared) + 2**16
        self.sparse_ids = None if dense else declared
        slots = declared if dense else np.arange(len(declared))  # where each declared id's code goes
        self.codes = np.full((top if dense else len(declared)) + 1, -2, dtype=np.int32)
        self.codes[slots] = -1
        self.codes[slots[kept]] = np.arange(len(self.kept_ids), dtype=np.int32)

    def __call__(self, ids: np.ndarray) -> np.ndarray:
        """The code of each id of an int64 array, in its shape."""
        if self.sparse_ids is None:  # as uint64 a negative id is past the table too: it reads the last entry, -2
            return self.codes.take(np.minimum(ids.view(np.uint64), len(self.codes) - 1))
        pos, found = _find(ids, self.sparse_ids)
        pos[~found] = len(self.sparse_ids)
        return self.codes[pos]


def _geolocate(source, table: _IdTable, report: CleaningReport) -> np.ndarray:
    """The kept nodes as a ``NODE_DTYPE`` array, located by the geo file; a later line for a node wins.

    A path is scanned in blocks, and only the lines that ``_GEO_SCAN_RE`` does not take are parsed one by one, or
    every line of a block with a coordinate out of range, so that the error names the first bad line.
    """
    geo_ids, geo_linenos, geo_lat_lon = array("q"), array("q"), array("d")

    def parse_lines(numbered: Iterator[tuple[int, str]]) -> None:
        for lineno, line in numbered:
            m = _GEO_RE.match(line)
            if not m:
                raise MalformedLine(lineno, f"expected 'node.geo N<id>: ...', got {line!r}")
            node_id = _int(m.group(1), lineno, "node id")
            rest = m.group(2)
            fields = rest.split("\t") if "\t" in rest else rest.split()  # _GEO_RE took one separator: cells may be empty
            try:
                lat, lon = float(fields[GEO_LAT_COL]), float(fields[GEO_LON_COL])
            except (IndexError, ValueError):
                raise MalformedLine(lineno, f"no lat/lon at columns {GEO_LAT_COL}/{GEO_LON_COL}") from None
            try:
                check_coordinates(lat, lon)
            except ValueError as exc:
                raise MalformedLine(lineno, str(exc)) from None
            geo_ids.append(node_id if node_id <= MAX_ID else -1)  # -1 names no node, as ids above MAX_ID
            geo_linenos.append(lineno)
            geo_lat_lon.extend((lat, lon))

    def block(start: int, text: str, n: int) -> Iterator[tuple[int, str]]:
        id_texts, lats, lons = zip(*_GEO_SCAN_RE.findall(text))
        lat_lon = np.array(list(filter(None, lats + lons)), dtype=np.float64).reshape(2, -1).T
        if not (np.abs(lat_lon) <= (90.0, 180.0)).all():
            return _unscanned(text, start)
        taken = np.fromiter(map(bool, id_texts), dtype=bool, count=len(id_texts))
        geo_ids.frombytes(np.fromstring(" ".join(filter(None, id_texts)), dtype=np.int64, sep=" ").tobytes())
        geo_linenos.frombytes((np.flatnonzero(taken) + start).astype(np.int64).tobytes())
        geo_lat_lon.frombytes(lat_lon.tobytes())
        return _unscanned(text, start, taken)

    _scan(source, block, parse_lines)
    nodes = np.empty(len(table.kept_ids), dtype=NODE_DTYPE)
    nodes["id"] = table.kept_ids
    nodes["lat"] = nodes["lon"] = np.nan
    rows = table(np.frombuffer(geo_ids, dtype=np.int64))
    known = rows >= 0
    report.geo_for_unknown_nodes = len(rows) - int(known.sum())
    # From the last line back, a node's first line is its last in the file, the one np.unique picks.
    backwards = np.argsort(np.frombuffer(geo_linenos, dtype=np.int64)[known], kind="stable")[::-1]
    rows, last = np.unique(rows[known][backwards], return_index=True)
    lat_lon = np.frombuffer(geo_lat_lon, dtype=np.float64).reshape(-1, 2)[known][backwards][last]
    nodes["lat"][rows], nodes["lon"][rows] = lat_lon.T
    return nodes


def _sort_links(source, table: _IdTable, report: CleaningReport, strict: bool) -> np.ndarray:
    """The kept links, in file order, as a ``(k, 2)`` int64 array of the rows of their ends a and b in the kept nodes.

    ``sort_rows`` alone sorts links into kept, removed, self and dangling, counting each removal in ``report``, and
    reads the fate of both ends off ``table`` in one lookup. A path's block is taken whole, as the ends of each link,
    only when it ends in a newline and each of its lines is a link line that ``_LINK_SCAN_RE`` matches or a blank or
    comment line. Any other block goes through ``parse_lines``, with its line numbers, and so does one where strict
    mode meets a dangling link.
    """
    flat = array("q")
    huge: dict[int, int] = {}  # node references above MAX_ID, each to its negative code

    def sort_rows(ends: np.ndarray, link_ids: array | None = None) -> bool:
        """Sort links given as a ``(k, 2)`` int64 array of their ends a and b; False, with nothing
        counted, when strict mode meets a dangling link and no ``link_ids`` were given to name it."""
        codes = table(ends)
        is_kept = codes >= 0
        undeclared = codes == -2
        self_link = ends[:, 0] == ends[:, 1]
        missing = ~self_link & ~is_kept.all(axis=1)
        dangling = missing & undeclared.any(axis=1)
        if strict and dangling.any():
            if link_ids is None:
                return False
            row = int(np.argmax(dangling))
            code = int(ends[row, 0] if undeclared[row, 0] else ends[row, 1])
            node = code if code >= 0 else list(huge)[-1 - code]
            raise DanglingLinkEndpoint(f"link L{link_ids[row]} references undefined node N{node}")
        report.input_links += len(ends)
        report.self_links += int(self_link.sum())
        report.dangling_links += int(dangling.sum())
        report.removed_links += int((missing & ~dangling).sum())
        flat.frombytes(codes[~self_link & ~missing].astype(np.int64).tobytes())
        return True

    def block(start: int, text: str, n: int) -> Iterator[tuple[int, str]]:
        ends = _LINK_SCAN_RE.findall(text)
        whole = text[-1] == "\n" and (len(ends) == n or len(ends) + len(_SKIP_SCAN_RE.findall(text)) == n)
        if whole and ends:
            whole = sort_rows(np.fromstring(" ".join(chain.from_iterable(ends)), dtype=np.int64, sep=" ").reshape(-1, 2))
        return iter(()) if whole else _unscanned(text, start)

    def parse_lines(numbered: Iterator[tuple[int, str]]) -> None:
        """The per-line link parser: every line, malformed ones included, to rows for ``sort_rows``."""
        link_ids, ends = array("q"), array("q")
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
                pair = [_int(ref, lineno, "node reference") for ref in refs[:2]]
                link_ids.append(link_id)
                ends.extend([n if n <= MAX_ID else huge.setdefault(n, -1 - len(huge)) for n in pair])
        finally:  # the links before a failing line come first: one may dangle
            if link_ids:
                sort_rows(np.frombuffer(ends, dtype=np.int64).reshape(-1, 2), link_ids)

    _scan(source, block, parse_lines)
    return np.frombuffer(flat, dtype=np.int64).reshape(-1, 2)


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
    non-numeric coordinates, or an id an earlier row (skipped or not)
    carries, raise MalformedRow. The ``kind`` argument fills rows whose
    kind cell is empty.
    """
    components: list[InfraComponent] = []
    skipped: list[tuple[int, str]] = []
    first_row: dict[str, int] = {}
    for rowno, row in _csv_rows(source, required=("id", "kind", "lat", "lon", "weight", "attrs_json")):
        component_id = (row.get("id") or "").strip()
        if component_id in first_row:
            raise MalformedRow(rowno, f"duplicate id {component_id!r}, first on row {first_row[component_id]}")
        if component_id:
            first_row[component_id] = rowno
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
                id=component_id,
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
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
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
