"""Slow reference topology parser: the per-line parser of every file.

This is ``netwattzap.ingest.parse_topology`` as it was before link files
were scanned in chunks, node interfaces got a dotted-quad fast path and
geolocation went from a dict of points to columns, kept as written but
for three changes: an id with more digits than ``int()`` converts raises
``MalformedLine``, the nodes are returned as a ``NODE_DTYPE`` array, and
the links as the rows of their ends in it, found with ``np.searchsorted``
over the sorted node ids (link ids are checked, not returned).
The differential tests hold the library to it: same node array bytes,
same link array bytes, same cleaning report, and the same exception type
and message (line number included) on bad input.
"""

from __future__ import annotations

import logging
import re
from array import array
from ipaddress import AddressValueError, IPv4Address, IPv6Address
from pathlib import Path
from typing import Iterator

import numpy as np

from netwattzap.errors import DanglingLinkEndpoint, MalformedLine
from netwattzap.geo import GeoPoint
from netwattzap.ingest import GEO_LAT_COL, GEO_LON_COL, MAX_ID, NODE_DTYPE, CleaningReport, ParsedTopology

logger = logging.getLogger(__name__)

MULTICAST_LO = IPv4Address("224.0.0.0")
MULTICAST_HI = IPv4Address("239.255.255.255")

_NODE_RE = re.compile(r"^node\s+N(\d+):\s*(.*)$")
_GEO_RE = re.compile(r"^node\.geo\s+N(\d+):\s?(.*)$")
_LINK_RE = re.compile(r"^link\s+L(\d+):\s*(.*)$")
_NODE_REF_RE = re.compile(r"N(\d+)(?::\S+)?")


def _lines(source) -> Iterator[tuple[int, str]]:
    """Yield (lineno, stripped line), skipping comments and blanks.

    str/Path sources are opened as files; anything else is iterated as
    lines (file objects, io.StringIO, lists).
    """
    if isinstance(source, (str, Path)):
        handle = open(source, "r", encoding="utf-8-sig")  # a leading byte-order mark dropped, as the library does
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


def _int(digits: str, lineno: int, what: str) -> int:
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
    kept_nodes: set[int] = set()
    declared_nodes: set[int] = set()

    for lineno, line in _lines(nodes_source):
        m = _NODE_RE.match(line)
        if not m:
            raise MalformedLine(lineno, f"expected 'node N<id>: ...', got {line!r}")
        node_id = _int(m.group(1), lineno, "node id")
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
            node_id = _int(m.group(1), lineno, "node id")
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

    ends = array("q")  # a, b of each kept link, 8 bytes per value
    if links_source is not None:
        for lineno, line in _lines(links_source):
            m = _LINK_RE.match(line)
            if not m:
                raise MalformedLine(lineno, f"expected 'link L<id>: ...', got {line!r}")
            link_id = _int(m.group(1), lineno, "link id")
            if link_id > MAX_ID:
                raise MalformedLine(lineno, f"link id L{link_id} above {MAX_ID}")
            report.input_links += 1
            refs = _NODE_REF_RE.findall(m.group(2))
            if len(refs) < 2:
                raise MalformedLine(lineno, "link needs at least two node references")
            a, b = _int(refs[0], lineno, "node reference"), _int(refs[1], lineno, "node reference")
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
            ends.extend((a, b))

    rows = []
    for nid in sorted(kept_nodes):
        point = geo_by_node.get(nid)
        rows.append((nid, np.nan, np.nan) if point is None else (nid, point.lat, point.lon))
    nodes = np.array(rows, dtype=NODE_DTYPE)
    links = np.searchsorted(nodes["id"], np.frombuffer(ends, dtype=np.int64).reshape(-1, 2))
    return ParsedTopology(nodes=nodes, links=links, report=report)
