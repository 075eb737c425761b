"""``parse_topology`` against ``topology_reference``, the per-line parser.

Link files given as a path or a text file are scanned in chunks, and
node interfaces that are dotted quads skip ``ipaddress``. On random ITDK
text both parsers must give the same nodes, the same link array bytes,
dtype and shape, the same cleaning report, and the same exception type
and message. The text mixes lines the chunk scan takes (plain links,
hyperedges, ASCII annotations, comments, blanks) with lines only the
per-line parser handles (19- and 20-digit ids, Unicode digits and
spaces, ``XN5`` references, leading form feeds, malformed lines), and
the chunk size is patched down to a few characters so that chunk
boundaries fall everywhere and scanned and per-line chunks alternate.
"""

from __future__ import annotations

import dataclasses
import io
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netwattzap import ingest
from netwattzap.errors import MalformedLine
from netwattzap.ingest import parse_topology

import topology_reference

# Node ids: five that every node file declares, the largest 18-digit id, MAX_ID.
NODE_IDS = ["1", "2", "3", "4", "5", "123456789012345678", str(ingest.MAX_ID)]
# Octets and interfaces that IPv4Address or IPv6Address accept, and ones
# they refuse.
OCTETS = ["0", "1", "9", "10", "99", "100", "199", "200", "223", "224", "239", "240", "249", "250", "255"]
BAD_OCTETS = ["01", "00", "256", "300", "\u0661"]
INTERFACES = ["2001:db8::1", "::ffff:1.2.3.4", "224.0.0.5", "239.255.255.255"]
BAD_INTERFACES = ["1.2.3", "1.2.3.4.5", "not-an-ip", "1.2.3.4/8"]
# The parts of a link line: PLAIN ones the chunk scan takes, ODD ones only
# the per-line parser handles. A line has at most one kind of part that
# may be odd, and each part of that kind is odd or plain by a coin flip,
# so that odd parts are tried next to plain ones. No part makes the line
# malformed: an error ends the parse, and the counts of the lines before
# it are then not compared, so malformed lines only come last.
PLAIN = {
    "lead": ["", "", " ", "\t"],
    "link_id": ["1", "2", "7", "0042", "123456789012345678"],
    "count": [2, 2, 2, 3, 4],
    # Declared, undeclared, leading zeros, 18 digits.
    "ref_id": ["1", "2", "3", "4", "5", "1", "2", "6", "99", "05", "123456789012345678", "999999999999999999"],
    "prefix": [""],
    "annotation": ["", "", "", ":1.2.3.4", ":x", ":N3"],
    "blank": [" ", " ", "\t", "  "],
    "tail": ["", "", " ", " trailing words", "\xa0", " N\u0662"],
}
ODD = {
    "lead": ["\x0c", "\xa0"],
    "link_id": [str(ingest.MAX_ID), "0" * 19 + "7", "\u0661", "3\u0662"],
    "ref_id": [str(ingest.MAX_ID), str(2**63), "12345678901234567890", "\u0661", "3\u0662", "1\u0662"],
    "prefix": ["X", "x"],
    "annotation": [":\u00e9", ":a\xa0N3", ":a\u2003N3", ":a\xa0b", ":a N3"],
    "blank": ["\xa0", "\u2003", ""],
}
LINE_ENDS = ["\n", "\n", "\n", "\r\n", "\r"]
SKIPPED_LINES = ["# a comment", "  # indented comment", "", "   ", "\t", "\xa0# comment after a no-break space", "\x0c"]
MALFORMED_LINES = ["garbage", "link L1 N1 N2", "link L7: N1", "link L7:", f"link L{2**63}: N1 N2",
                   "link L12345678901234567890: N1 N2"]


# Strategies are built once: a strategy made inside a draw is validated on
# every draw, which costs more than the parsing under test.
PLAIN_PARTS = {kind: st.sampled_from(values) for kind, values in PLAIN.items()}
ODD_PARTS = {kind: st.sampled_from(values) for kind, values in ODD.items()}
LINE_KINDS = st.sampled_from([None] * 8 + ["skipped", *ODD])
REF_KINDS = ("blank", "prefix", "ref_id", "annotation")
# A plain node reference with the blank before it, in one draw.
PLAIN_REFS = st.sampled_from(
    [blank + "N" + ref_id + note for blank in PLAIN["blank"] for ref_id in PLAIN["ref_id"] for note in PLAIN["annotation"]]
)


def _quads(octets: list[str]):
    """Dotted quads of the given octets, one draw each."""
    n = len(octets)
    return st.integers(0, n**4 - 1).map(lambda k: ".".join(octets[k // n**i % n] for i in range(4)))


INTERFACE = {
    False: st.one_of(st.sampled_from(INTERFACES), _quads(OCTETS), _quads(OCTETS), _quads(OCTETS)),
    True: st.one_of(st.sampled_from(INTERFACES + BAD_INTERFACES), _quads(OCTETS + BAD_OCTETS)),
}


@st.composite
def node_text(draw) -> str:
    ids = NODE_IDS[:5] + draw(st.lists(st.sampled_from(NODE_IDS[5:]), unique=True))
    # At most one line, about one file in five, may hold a refused address.
    odd = draw(st.integers(0, 4 * len(ids)))
    lines = [
        f"node N{node_id}:  " + " ".join(draw(st.lists(INTERFACE[i == odd], min_size=1, max_size=3)))
        for i, node_id in enumerate(ids)
    ]
    lines = draw(st.permutations(lines))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# nodes")
    return "".join(line + "\n" for line in lines)


@st.composite
def link_line(draw) -> str:
    odd = draw(LINE_KINDS)
    if odd == "skipped":
        return draw(SKIPPED)

    def part(kind):
        return draw(ODD_PARTS[kind] if kind == odd and draw(st.booleans()) else PLAIN_PARTS[kind])

    head = f"{part('lead')}link L{part('link_id')}:"
    if odd in REF_KINDS:
        refs = [part("blank") + part("prefix") + "N" + part("ref_id") + part("annotation") for _ in range(part("count"))]
    else:
        refs = [draw(PLAIN_REFS) for _ in range(part("count"))]
    return head + "".join(refs) + part("tail")


LINK_LINE = link_line()
SKIPPED = st.sampled_from(SKIPPED_LINES)


@st.composite
def link_text(draw) -> str:
    lines = [draw(LINK_LINE) for _ in range(draw(st.integers(0, 30)))]
    if draw(st.integers(0, 5)) == 3:
        lines.append(draw(st.sampled_from(MALFORMED_LINES)))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


GEO_TEXT = st.sampled_from([None, "node.geo N1: NA US TX Dallas 32.78 -96.80\nnode.geo N6: EU DE BE Berlin 52.5 13.4\n"])


def _sources(form: str, texts: list[str | None], folder: Path) -> list:
    sources = []
    for i, text in enumerate(texts):
        if text is None:
            sources.append(None)
        elif form == "path":
            path = folder / f"part{i}.txt"
            path.write_bytes(text.encode("utf-8"))
            sources.append(path)
        elif form == "stringio":
            sources.append(io.StringIO(text))
        else:
            sources.append(text.splitlines(keepends=True))
    return sources


def _outcome(parse, form: str, texts: list[str | None], strict: bool):
    with tempfile.TemporaryDirectory() as folder:
        try:
            topo = parse(*_sources(form, texts, Path(folder)), strict=strict)
        except Exception as exc:  # the exception itself is the outcome compared
            return type(exc), str(exc), getattr(exc, "lineno", None)
    nodes = [(n.node_id, None if n.geo is None else (n.geo.lat, n.geo.lon)) for n in topo.nodes]
    return nodes, topo.links.tobytes(), topo.links.dtype, topo.links.shape, dataclasses.asdict(topo.report)


EXAMPLE_NODES = "node N1: 1.1.1.1\nnode N2: 2.2.2.2\nnode N3: 3.3.3.3\n"


@settings(max_examples=150, deadline=None)
# A no-break space inside an annotation, where the per-line parser finds N3
# as the second reference; a Unicode digit right after the second id. One
# line per chunk, so that neither sends the other to the per-line parser.
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1:a\xa0N3 N2\nlink L2: N1 N3\u0662\n", strict=False,
         form="path", chunk=1)
# Strict mode names the first dangling link of a chunk, and its a end before b.
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N6 N99\nlink L3: N1 N98\n", strict=True,
         form="stringio", chunk=ingest._CHUNK_CHARS)
@given(
    nodes=node_text(),
    geo=GEO_TEXT,
    links=link_text(),
    strict=st.booleans(),
    form=st.sampled_from(["path", "stringio", "list"]),
    chunk=st.sampled_from([1, 5, 40, 120, ingest._CHUNK_CHARS]),
)
def test_parse_topology_matches_the_line_parser(nodes, geo, links, strict, form, chunk):
    texts = [nodes, geo, links]
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
        got = _outcome(parse_topology, form, texts, strict)
    assert got == _outcome(topology_reference.parse_topology, form, texts, strict)


def _fate(classify, token: str) -> str:
    try:
        return classify(token, 1)
    except MalformedLine:
        return "refused"


def test_dotted_quad_octets_classify_as_ipaddress_does():
    """Every octet string of one to three digits, in each position of a quad."""
    digits = "0123456789"
    octets = {a + b + c for a in ["", *digits] for b in ["", *digits] for c in digits}
    for octet in octets:
        for pos in range(4):
            token = ".".join(octet if i == pos else "1" for i in range(4))
            assert _fate(ingest._classify_interface, token) == _fate(topology_reference._classify_interface, token), token


def test_scanned_and_per_line_chunks_keep_file_order_and_line_numbers(tmp_path):
    nodes = tmp_path / "nodes"
    nodes.write_text("node N1: 1.1.1.1\nnode N2: 2.2.2.2\nnode N3: 224.0.0.1\n")
    lines = ["link L1: N1 N2", f"link L{2**63 - 1}: N2 N1", "link L3: N1 N3", "link L4: N1:x N2 N3",
             "link L5: N2\u00a0N1", "# end", "link L6: N2 N9"]
    good = tmp_path / "good"
    good.write_text("\n".join(lines) + "\n")
    bad = tmp_path / "bad"
    bad.write_text("\n".join(lines + ["link L8 N1 N2"]) + "\n")
    for chunk in (1, 16, 64, ingest._CHUNK_CHARS):
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
            topo = parse_topology(nodes, None, good)
            with pytest.raises(MalformedLine) as err:
                parse_topology(nodes, None, bad)
        assert topo.links.tolist() == [[1, 1, 2], [2**63 - 1, 2, 1], [4, 1, 2], [5, 2, 1]]
        assert (topo.report.removed_links, topo.report.dangling_links) == (1, 1)
        assert err.value.lineno == 8
