"""``parse_topology`` against ``topology_reference``, the per-line parser.

Link files given as a path are scanned in blocks ended by a newline,
and node interfaces that are dotted quads skip ``ipaddress``. On random ITDK
text both parsers must give the same node and link array bytes, dtypes
and shapes, the same cleaning report, and the same exception type and
message. The text mixes lines the chunk scan takes (plain links,
hyperedges, ASCII annotations, comments, blanks) with lines only the
per-line parser handles (19- and 20-digit ids, Unicode digits and
spaces, ``XN5`` references, leading form feeds, malformed lines), and
the chunk size is patched down to a few characters so that chunk
boundaries fall everywhere and scanned and per-line chunks alternate.
The id table that maps node ids to rows is held to two ``_find`` calls.
"""

from __future__ import annotations

import dataclasses
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
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
MALFORMED_NODE_LINES = ["garbage", "node N1 1.1.1.1", f"node N{2**63}: 1.1.1.1", "node N" + "9" * 5000 + ": 1.1.1.1"]
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
    # About one file in three repeats an id, on a line that may hold a
    # refused address too; about one in four has a malformed line. Either
    # may come before the other or before the line with a refused address.
    if draw(st.integers(0, 2)) == 0:
        interfaces = draw(st.lists(INTERFACE[draw(st.booleans())], min_size=1, max_size=3))
        lines.append(f"node N{draw(st.sampled_from(ids))}: " + " ".join(interfaces))
    lines = draw(st.permutations(lines))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED_NODE_LINES)))
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


GEO_TEXT = st.sampled_from([
    None,
    "node.geo N1: NA US TX Dallas 32.78 -96.80\nnode.geo N6: EU DE BE Berlin 52.5 13.4\n",
    # A repeated node: its last line wins.
    "node.geo N2: NA US TX Dallas 32.78 -96.80\nnode.geo N1: EU DE BE Berlin 52.5 13.4\n"
    "node.geo N2: AS JP 13 Tokyo 35.69 139.69\n",
])


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
    arrays = [(a.tobytes(), a.dtype, a.shape) for a in (topo.nodes, topo.links)]
    return arrays, dataclasses.asdict(topo.report)


EXAMPLE_NODES = "node N1: 1.1.1.1\nnode N2: 2.2.2.2\nnode N3: 3.3.3.3\n"


@settings(max_examples=150, deadline=None)
# A no-break space inside an annotation, where the per-line parser finds N3
# as the second reference; a Unicode digit right after the second id. One
# line per chunk, so that neither sends the other to the per-line parser.
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1:a\xa0N3 N2\nlink L2: N1 N3\u0662\n", strict=False,
         form="path", chunk=1)
# Strict mode names the first dangling link of a chunk, and its a end before b.
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N6 N99\nlink L3: N1 N98\n", strict=True,
         form="path", chunk=ingest._CHUNK_CHARS)
# Ids with more digits than int() converts: a node id, a second link
# endpoint, a node id that is 1 after 4,999 zeros, and a geo line's id.
@example(nodes=EXAMPLE_NODES + "node N" + "9" * 5000 + ": 1.2.3.4\n", geo=None, links=None, strict=False,
         form="path", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N1 N" + "9" * 5000 + "\n", strict=False,
         form="path", chunk=ingest._CHUNK_CHARS)
@example(nodes="node N" + "0" * 4999 + "1: 1.2.3.4\n", geo=None, links=None, strict=True, form="list",
         chunk=ingest._CHUNK_CHARS)
# Strict mode: a dangling link before a malformed line of the same chunk is the first error.
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N1 N99\ngarbage\n", strict=True,
         form="path", chunk=ingest._CHUNK_CHARS)
# A repeated id is the first error: before a malformed line, and on a
# line whose own address is refused.
@example(nodes=EXAMPLE_NODES + "node N2: 4.4.4.4\nnode N1: 5.5.5.5\ngarbage\n", geo=None, links=None, strict=False,
         form="path", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES + "node N3: 1.2.3\n", geo=None, links=None, strict=False, form="list",
         chunk=ingest._CHUNK_CHARS)
# References above MAX_ID: the first undeclared end in strict mode, a
# self link, two distinct ones; and a geo line naming one, next to node MAX_ID.
@example(nodes=EXAMPLE_NODES, geo=None, links=f"link L1: N1 N2\nlink L2: N{2**63} N98\n", strict=True,
         form="stringio", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo=None, links=f"link L1: N1 N2\nlink L2: N{2**63} N{2**63}\nlink L3: N{2**64} N{2**63}\n",
         strict=True, form="path", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo=None, links=f"link L1: N{2**63} N{2**63}\nlink L2: N{2**63} N{2**64}\nlink L3: N1 N2\n",
         strict=False, form="list", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES + f"node N{ingest.MAX_ID}: 4.4.4.4\n", geo=f"node.geo N{2**63}: NA US TX Dallas 32.78 -96.80\n",
         links=None, strict=False, form="stringio", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo="node.geo N" + "9" * 5000 + ": NA US TX Dallas 32.78 -96.80\n", links=None,
         strict=False, form="stringio", chunk=ingest._CHUNK_CHARS)
# Chunk reads: CRLF and lone-CR line ends in a file, which reading
# translates to newlines; a last line without a newline; a link line
# longer than the chunk size; a malformed line right after a chunk
# boundary, the first line being 15 characters with its newline; the
# strict-mode first dangling link of a scanned chunk, named by its link
# id; node ids too sparse for the id table, with a geo line and a removed
# node; a form feed, a file separator and a line separator, which end
# lines for str.splitlines but not for a file, before a malformed line;
# CRLF line ends read a character at a time, so that a block may end
# between CR and LF; a block of 15 characters that ends on its newline,
# so that reading to the end of its line takes the next line whole.
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\r\nlink L2: N2 N9\r\n# c\r\nlink L3 N1\r\n",
         strict=False, form="path", chunk=1)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N2 N3\nlink L3: N3 N9\ngarbage\n",
         strict=False, form="path", chunk=15)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\r\n# c\r\nlink L2: N2 N3\r\nlink L3 N1\r\n", strict=False,
         form="path", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\rlink L2: N2 N9\r\rlink L3 N1\r", strict=False,
         form="path", chunk=5)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N2 N3", strict=False, form="path", chunk=5)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L2: N3", strict=False, form="path",
         chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1:" + "x" * 100 + " N2\nlink L2: N2 N3\n", strict=False,
         form="path", chunk=40)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\ngarbage\nlink L2: N2 N3\n", strict=False, form="path",
         chunk=15)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\nlink L70: N1 N99\nlink L80: N98 N2\n", strict=True,
         form="path", chunk=ingest._CHUNK_CHARS)
@example(nodes=EXAMPLE_NODES, geo=None, links="link L1: N1 N2\x0c\nlink L2: N2\x1cN3\nlink L3: N1 N2 \u2028\ngarbage\n",
         strict=False, form="path", chunk=5)
@example(nodes=f"node N1: 1.1.1.1\nnode N{2**40}: 2.2.2.2\nnode N{2**62}: 224.0.0.1\nnode N{ingest.MAX_ID}: 3.3.3.3\n",
         geo=f"node.geo N{2**40}: NA US TX Dallas 32.78 -96.80\n",
         links=f"link L1: N1 N{2**40}\nlink L2: N{ingest.MAX_ID} N{2**62}\nlink L3: N1 N{2**41}\nlink L4: N1 N{2**63}\n",
         strict=False, form="path", chunk=ingest._CHUNK_CHARS)
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
    nodes.write_text(
        "node N1: 1.1.1.1\nnode N2: 2.2.2.2\nnode N3: 224.0.0.1\nnode N4: 4.4.4.4\nnode N5: 5.5.5.5\n", encoding="utf-8"
    )
    # Each kept link has its own pair of ends, so its rows show its place in the file.
    lines = ["link L1: N1 N2", f"link L{2**63 - 1}: N2 N1", "link L3: N1 N3", "link L4: N1:x N4 N3",
             "link L5: N5\u00a0N2", "# end", "link L6: N2 N9"]
    good = tmp_path / "good"
    good.write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad = tmp_path / "bad"
    bad.write_text("\n".join(lines + ["link L8 N1 N2"]) + "\n", encoding="utf-8")
    for chunk in (1, 16, 64, ingest._CHUNK_CHARS):
        with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
            topo = parse_topology(nodes, None, good)
            with pytest.raises(MalformedLine) as err:
                parse_topology(nodes, None, bad)
        assert topo.links.tolist() == [[0, 1], [1, 0], [0, 2], [3, 1]]
        assert topo.nodes["id"][topo.links].tolist() == [[1, 2], [2, 1], [1, 4], [5, 2]]
        assert (topo.report.removed_links, topo.report.dangling_links) == (1, 1)
        assert err.value.lineno == 8


@pytest.mark.parametrize("newline", [None, "", "\n", "\r", "\r\n"])
def test_open_files_split_lines_as_iterating_them_does(newline):
    """Some newline modes end a line at a lone CR, others keep a newline inside a line: an open file's
    lines are the ones iterating it gives."""
    def outcome(parse, links):
        handle = io.TextIOWrapper(io.BytesIO(links.encode("utf-8")), encoding="utf-8", newline=newline)
        try:
            topo = parse(io.StringIO(EXAMPLE_NODES), None, handle)
        except MalformedLine as exc:
            return str(exc)
        return topo.links.tolist(), dataclasses.asdict(topo.report)

    links = "link L1: N1 N2\rlink L2: N1 N3\r\nlink L3: N2 N9\n"
    texts = (links, links + "link L4 N1\r", "link L1: N1 N2\nlink L2: N1 N3\rgarbage\r", "link L1: N1 N2\ngarbage",
             "link L1: N1 N2\ngarbage\n", "link L1: N1 N2\n#\rgarbage\n")
    for text in texts:
        assert outcome(parse_topology, text) == outcome(topology_reference.parse_topology, text)


# The size rule of the id table: it is allocated when the largest declared
# id is at most 4 times the declared count plus 2**16 - 1.
SLACK = 2**16 - 1


@st.composite
def id_tables(draw):
    """Sorted distinct declared ids, a kept flag for each, and ids to look up."""
    base = draw(st.lists(st.integers(0, 300), unique=True, max_size=40))
    top = draw(st.sampled_from(["none", "rule", "past_rule", "max_id", "any"]))
    n = len(base) + 1
    extra = {"none": [], "rule": [4 * n + SLACK], "past_rule": [4 * n + SLACK + 1], "max_id": [ingest.MAX_ID],
             "any": [draw(st.integers(0, ingest.MAX_ID))]}[top]
    declared = np.array(sorted(set(base + extra)), dtype=np.int64)
    kept = np.array(draw(st.lists(st.booleans(), min_size=len(declared), max_size=len(declared))), dtype=bool)
    near = [int(v) + d for v in declared for d in (-1, 0, 1) if 0 <= int(v) + d <= ingest.MAX_ID]
    probe = st.one_of(
        st.sampled_from(near or [0]), st.sampled_from([0, 1, ingest.MAX_ID, 4 * n + SLACK + 1]),
        st.integers(-5, -1), st.integers(0, ingest.MAX_ID),
    )
    ids = np.array(draw(st.lists(probe, max_size=30)), dtype=np.int64)
    return declared, kept, ids.reshape(-1, 2) if len(ids) % 2 == 0 and draw(st.booleans()) else ids


@settings(max_examples=300, deadline=None)
@example(tables=(np.array([], dtype=np.int64), np.array([], dtype=bool), np.array([], dtype=np.int64)))
@example(tables=(np.array([], dtype=np.int64), np.array([], dtype=bool), np.array([0, -1, ingest.MAX_ID])))
@example(tables=(np.array([0, ingest.MAX_ID]), np.array([True, False]), np.array([[0, ingest.MAX_ID], [-1, 1]])))
@given(tables=id_tables())
def test_id_table_matches_find(tables):
    """Table and sparse lookups against two ``_find`` calls: the kept rows, then the declared ids."""
    declared, kept, ids = tables
    table = ingest._IdTable(declared, kept)
    dense = len(declared) == 0 or int(declared[-1]) <= 4 * len(declared) + SLACK
    assert (table.sparse_ids is None) == dense
    assert table.kept_ids.tolist() == declared[kept].tolist()
    rows, found = ingest._find(ids, declared[kept])
    expected = np.where(found, rows, np.where(ingest._find(ids, declared)[1], -1, -2))
    got = table(ids)
    assert got.shape == ids.shape
    assert got.tolist() == expected.tolist()


def test_sparse_node_ids_parse_without_the_table():
    """Ids 1 and 2**62: a table over every id up to the largest would take 16 EiB."""
    nodes = f"node N1: 1.1.1.1\nnode N{2**62}: 2.2.2.2\n"
    links = f"link L1: N1 N{2**62}\nlink L2: N{2**62} N2\n"
    table = ingest._parse_nodes(io.StringIO(nodes), ingest.CleaningReport())
    assert table.sparse_ids.tolist() == [1, 2**62]
    assert table.codes.tolist() == [0, 1, -2]
    for strict in (False, True):
        got = _outcome(parse_topology, "stringio", [nodes, None, links], strict)
        assert got == _outcome(topology_reference.parse_topology, "stringio", [nodes, None, links], strict)
    assert parse_topology(io.StringIO(nodes), None, io.StringIO(links)).links.tolist() == [[0, 1]]
