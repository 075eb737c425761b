"""Topology, component, and statistics parsers."""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netwattzap.errors import DanglingLinkEndpoint, MalformedLine, MalformedRow, NetWattZapError
from netwattzap.ingest import (
    NODE_DTYPE,
    parse_components,
    parse_stats,
    parse_topology,
)

NODES = """\
# comment line
node N1:  1.2.3.4 5.6.7.8
node N2:  224.0.0.5 9.9.9.9
node N3:  230.1.2.3
node N4:  10.0.0.1
"""

GEO = """\
# node.geo lines: continent country region city lat lon
node.geo N1: NA US TX Dallas 32.78 -96.80
node.geo N2: EU DE BE Berlin 52.52 13.40
node.geo N3: EU FR __ Paris 48.85 2.35
"""

LINKS = """\
link L1: N1:1.2.3.4 N2:9.9.9.9
link L2: N1:1.2.3.4 N3:230.1.2.3
link L3: N3 N4
link L4: N2 N4 N1
link L5: N1 N99
"""


class TestParseTopology:
    def test_cleaning_pipeline(self):
        topo = parse_topology(io.StringIO(NODES), io.StringIO(GEO), io.StringIO(LINKS))
        # N2 keeps one interface, N3 loses its only interface and drops.
        assert topo.nodes.dtype == NODE_DTYPE
        assert topo.nodes["id"].tolist() == [1, 2, 4]
        assert topo.report.input_nodes == 4
        assert topo.report.removed_nodes == 1
        assert topo.report.removed_interfaces == 2
        assert topo.report.kept_nodes == 3
        # L2 and L3 reference dropped N3; L5 dangles on N99. Links hold node rows.
        assert topo.links.dtype == np.int64
        assert topo.links.tolist() == [[0, 1], [1, 2]]
        assert topo.nodes["id"][topo.links].tolist() == [[1, 2], [2, 4]]
        assert topo.report.input_links == 5
        assert topo.report.removed_links == 2
        assert topo.report.dangling_links == 1
        assert topo.report.kept_links == 2

    def test_counts_reconcile_exactly(self):
        topo = parse_topology(io.StringIO(NODES), io.StringIO(GEO), io.StringIO(LINKS))
        assert len(topo.nodes) == topo.report.input_nodes - topo.report.removed_nodes
        assert len(topo.links) == (
            topo.report.input_links
            - topo.report.removed_links
            - topo.report.self_links
            - topo.report.dangling_links
        )

    def test_geo_attachment_and_unknown_geo(self):
        topo = parse_topology(io.StringIO(NODES), io.StringIO(GEO), io.StringIO(LINKS))
        assert topo.nodes.tolist()[:2] == [(1, 32.78, -96.80), (2, 52.52, 13.40)]
        # N4 has no geolocation.
        assert np.isnan(topo.nodes[2]["lat"]) and np.isnan(topo.nodes[2]["lon"])
        # N3's geo line targets a dropped node.
        assert topo.report.geo_for_unknown_nodes == 1

    def test_cleaning_idempotent(self):
        topo = parse_topology(io.StringIO(NODES), io.StringIO(GEO), io.StringIO(LINKS))
        # Interface strings are not kept: write each kept node with one unicast address.
        nodes_text = "\n".join(f"node N{node_id}: 10.0.0.{node_id}" for node_id in topo.nodes["id"].tolist())
        ends = topo.nodes["id"][topo.links].tolist()
        links_text = "\n".join(f"link L{link_id}: N{a} N{b}" for link_id, (a, b) in enumerate(ends, start=1))
        again = parse_topology(io.StringIO(nodes_text), None, io.StringIO(links_text))
        assert again.nodes["id"].tolist() == topo.nodes["id"].tolist()
        assert again.links.tolist() == topo.links.tolist()
        assert again.report.removed_interfaces == 0
        assert again.report.removed_nodes == 0
        assert again.report.removed_links == 0

    def test_strict_dangling_raises(self):
        with pytest.raises(DanglingLinkEndpoint):
            parse_topology(io.StringIO(NODES), io.StringIO(GEO), io.StringIO(LINKS), strict=True)

    def test_self_link_dropped(self):
        topo = parse_topology(io.StringIO("node N1: 1.2.3.4\nnode N2: 2.3.4.5"), None, io.StringIO("link L1: N1 N1\nlink L2: N1 N2"))
        assert topo.links.tolist() == [[0, 1]]
        assert topo.report.self_links == 1

    def test_hyperedge_uses_first_two_refs(self):
        topo = parse_topology(
            io.StringIO("node N1: 1.1.1.1\nnode N2: 2.2.2.2\nnode N3: 3.3.3.3"),
            None,
            io.StringIO("link L1: N2:2.2.2.2 N3 N1"),
        )
        assert topo.nodes["id"][topo.links].tolist() == [[2, 3]]

    def test_ipv6_passthrough(self):
        topo = parse_topology(io.StringIO("node N1: 2001:db8::1 1.2.3.4\nnode N2: 2001:db8::2"), None, None)
        assert topo.nodes["id"].tolist() == [1, 2]
        assert topo.report.ipv6_interfaces == 2
        assert topo.links.shape == (0, 2)

    def test_malformed_lines(self):
        with pytest.raises(MalformedLine) as err:
            parse_topology(io.StringIO("node N1 1.2.3.4"), None, None)
        assert err.value.lineno == 1
        with pytest.raises(MalformedLine):
            parse_topology(io.StringIO("node N1: not-an-ip"), None, None)
        with pytest.raises(MalformedLine):
            parse_topology(io.StringIO("node N1: 1.2.3.4"), io.StringIO("node.geo N1: NA US"), None)
        with pytest.raises(MalformedLine):
            parse_topology(io.StringIO("node N1: 1.2.3.4"), io.StringIO("node.geo N1: NA US XX City 95.0 10.0"), None)
        with pytest.raises(MalformedLine):
            parse_topology(io.StringIO("node N1: 1.2.3.4"), None, io.StringIO("link L1: N1"))

    @pytest.mark.parametrize(
        "nodes, links",
        [
            (f"node N1: 1.2.3.4\nnode N{2**63}: 2.3.4.5", None),
            ("node N1: 1.2.3.4\nnode N2: 2.3.4.5", f"link L1: N1 N2\nlink L{2**63}: N1 N2"),
        ],
        ids=["node_id", "link_id"],
    )
    def test_id_above_int64_rejected(self, nodes, links):
        with pytest.raises(MalformedLine, match="above") as err:
            parse_topology(io.StringIO(nodes), None, io.StringIO(links) if links else None)
        assert err.value.lineno == 2

    def test_largest_int64_id_kept(self):
        top = 2**63 - 1
        topo = parse_topology(
            io.StringIO(f"node N1: 1.2.3.4\nnode N{top}: 2.3.4.5"), None, io.StringIO(f"link L{top}: N1 N{top}")
        )
        assert topo.links.tolist() == [[0, 1]]
        assert topo.nodes["id"][topo.links].tolist() == [[1, top]]

    def test_tab_separated_geo_with_spaced_city(self):
        geo = "node.geo N1:\tNA\tUS\tNY\tNew York\t40.71\t-74.00\textra"
        topo = parse_topology(io.StringIO("node N1: 1.2.3.4"), io.StringIO(geo), None)
        assert topo.nodes.tolist() == [(1, 40.71, -74.0)]


COMPONENTS_CSV = """\
id,kind,lat,lon,weight,attrs_json
ix1,ixp,10.5,20.25,,
ix2,,48.85,2.35,,"{""az_count"": 3}"
dc1,datacenter,1.5,103.8,2.0,
skipme,ixp,,,,
"""


class TestParseComponents:
    def test_three_valid_rows(self):
        parsed = parse_components(io.StringIO(COMPONENTS_CSV), kind="ixp")
        assert [c.id for c in parsed.components] == ["ix1", "ix2", "dc1"]
        assert parsed.components[1].kind == "ixp"
        assert parsed.components[1].attr("az_count") == 3
        assert parsed.components[2].weight == 2.0
        assert parsed.skipped == [(5, "missing geolocation")]

    def test_out_of_range_latitude(self):
        csv_doc = "id,kind,lat,lon,weight,attrs_json\nbad,ixp,95,0,,\n"
        with pytest.raises(MalformedRow):
            parse_components(io.StringIO(csv_doc))

    def test_negative_weight(self):
        csv_doc = "id,kind,lat,lon,weight,attrs_json\nbad,ixp,5,0,-2,\n"
        with pytest.raises(MalformedRow):
            parse_components(io.StringIO(csv_doc))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_weight(self, bad):
        csv_doc = f"id,kind,lat,lon,weight,attrs_json\nbad,ixp,5,0,{bad},\n"
        with pytest.raises(MalformedRow, match="not finite"):
            parse_components(io.StringIO(csv_doc))

    def test_unknown_kind(self):
        csv_doc = "id,kind,lat,lon,weight,attrs_json\nbad,teapot,5,0,,\n"
        with pytest.raises(MalformedRow):
            parse_components(io.StringIO(csv_doc))

    def test_missing_header_column(self):
        with pytest.raises(MalformedRow):
            parse_components(io.StringIO("id,kind,lat,lon\n"))

    def test_empty_kind_without_default(self):
        with pytest.raises(MalformedRow, match=r"^row 2: kind missing and no default given$"):
            parse_components(io.StringIO("id,kind,lat,lon,weight,attrs_json\nx,,5,0,,\n"))

    def test_empty_id(self):
        with pytest.raises(MalformedRow, match=r"^row 2: empty id$"):
            parse_components(io.StringIO("id,kind,lat,lon,weight,attrs_json\n ,ixp,5,0,,\n"))

    @pytest.mark.parametrize(
        "rows",
        ["X1,ixp,5,5,,\n X1 ,ixp,6,6,,\n", "X1,ixp,,,,\nX1,ixp,6,6,,\n", "X1,ixp,5,5,,\nX1,ixp,,,,\n"],
        ids=["both-located", "first-skipped", "second-skipped"],
    )
    def test_repeated_id(self, rows):
        # A skipped row still holds its id.
        with pytest.raises(MalformedRow, match=r"^row 3: duplicate id 'X1', first on row 2$"):
            parse_components(io.StringIO("id,kind,lat,lon,weight,attrs_json\n" + rows))

    def test_empty_ids_are_not_repeats(self):
        parsed = parse_components(io.StringIO("id,kind,lat,lon,weight,attrs_json\n,ixp,,,,\n,ixp,,,,\n"))
        assert parsed.skipped == [(2, "missing geolocation"), (3, "missing geolocation")]


STATS_CSV = """\
code,population,internet_users,penetration,area_km2
US,331000000,307000000,,9833520
US-CA,39500000,,0.93,423970
"""


class TestParseStats:
    def test_absent_cells(self):
        records = parse_stats(io.StringIO(STATS_CSV))
        assert records[0].penetration is None
        assert records[0].internet_users == 307000000
        assert records[1].internet_users is None
        assert records[1].effective_internet_users() == int(round(39500000 * 0.93))

    def test_negative_population(self):
        with pytest.raises(MalformedRow):
            parse_stats(io.StringIO("code,population,internet_users,penetration,area_km2\nX,-5,1,,\n"))

    def test_empty_code(self):
        with pytest.raises(MalformedRow, match=r"^row 3: empty code$"):
            parse_stats(io.StringIO("code,population,internet_users,penetration,area_km2\nX,5,1,,\n ,5,1,,\n"))

    def test_missing_users_and_penetration(self):
        with pytest.raises(MalformedRow):
            parse_stats(io.StringIO("code,population,internet_users,penetration,area_km2\nX,5,,,\n"))

    @pytest.mark.parametrize("area", ["nan", "inf", "-inf", "-5"])
    def test_bad_area_rejected(self, area):
        with pytest.raises(MalformedRow, match="area_km2"):
            parse_stats(io.StringIO(f"code,population,internet_users,penetration,area_km2\nX,5,1,,{area}\n"))

    def test_file_source(self, tmp_path):
        path = tmp_path / "stats.csv"
        path.write_text(STATS_CSV, encoding="utf-8")
        assert len(parse_stats(path)) == 2


def test_duplicate_node_id_rejected():
    with pytest.raises(MalformedLine):
        parse_topology(io.StringIO("node N1: 1.2.3.4\nnode N1: 2.3.4.5"), None, None)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_component_weight_must_be_finite(bad):
    from netwattzap.geo import GeoPoint
    from netwattzap.ingest import InfraComponent

    with pytest.raises(ValueError, match="not finite"):
        InfraComponent(id="c", kind="ixp", geo=GeoPoint(0, 0), weight=bad)


def test_datacenter_az_count_validated():
    from netwattzap.geo import GeoPoint
    from netwattzap.ingest import InfraComponent

    with pytest.raises(ValueError):
        InfraComponent(id="d", kind="datacenter", geo=GeoPoint(0, 0), attrs=(("az_count", 0),))
    InfraComponent(id="d", kind="datacenter", geo=GeoPoint(0, 0), attrs=(("az_count", 3),))


# Arbitrary text, and text built from pieces of valid lines and cells so
# that the parsers get past their first line.
FRAGMENTS = st.sampled_from(
    [
        "node N1: 1.2.3.4", "node N2: 2001:db8::1", "node.geo N1: NA US TX City 1.5 2.5", "link L1: N1 N2",
        "link L2: N1:1.2.3.4 N2 N3", "N", "L", ":", " ", "\t", "\n", "\r\n", "#", "1", "9" * 20, "\xa0", "\u0661",
        "id,kind,lat,lon,weight,attrs_json", "code,population,internet_users,penetration,area_km2",
        ",", '"', "{", "}", '{"az_count": 2}', "ixp", "nan", "-1", "1e400", "0.5",
    ]
)
TEXTS = st.one_of(st.text(), st.lists(st.one_of(FRAGMENTS, st.text(max_size=3))).map("".join))
VALID_NODES = "node N1: 1.2.3.4\nnode N2: 2.3.4.5\nnode N3: 224.0.0.1\n"


# Numbers with more digits than int() converts; random text does not reach them.
HUGE_NUMBERS = {
    "node_id": ("node N1: 1.2.3.4\nnode N" + "9" * 5000 + ": 1.2.3.4\n", "nodes"),
    "link_endpoint": ("link L1: N1 N2\nlink L2: N1 N" + "9" * 5000 + "\n", "links"),
    "zero_padded_node_id": ("node N1: 1.2.3.4\nnode N" + "0" * 4999 + "1: 1.2.3.4\n", "nodes"),
    "attrs_json": ("id,kind,lat,lon,weight,attrs_json\nc1,ixp,1,2,,{}\nc2,ixp,1,2,,\"{\"\"n\"\": " + "9" * 5000 + "}\"\n",
                   "components"),
}


@settings(max_examples=200, deadline=None)
@given(text=TEXTS, role=st.sampled_from(["nodes", "geo", "links", "components", "stats"]), strict=st.booleans())
@example(text=HUGE_NUMBERS["node_id"][0], role="nodes", strict=False)
@example(text=HUGE_NUMBERS["link_endpoint"][0], role="links", strict=False)
@example(text=HUGE_NUMBERS["zero_padded_node_id"][0], role="nodes", strict=False)
@example(text=HUGE_NUMBERS["attrs_json"][0], role="components", strict=False)
def test_text_parsers_return_or_raise_their_error(text, role, strict):
    """On any text file each parser returns or raises a NetWattZapError."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "input.txt"
        path.write_text(text, encoding="utf-8")
        nodes = Path(folder) / "nodes.txt"
        nodes.write_text(VALID_NODES, encoding="utf-8")
        try:
            if role == "components":
                parse_components(path)
            elif role == "stats":
                parse_stats(path)
            else:
                # The links file goes through the block scan, which only paths take.
                sources = {"nodes": (path, None, None), "geo": (nodes, path, None), "links": (nodes, None, path)}
                parse_topology(*sources[role], strict=strict)
        except NetWattZapError:
            pass


@pytest.mark.parametrize("case", sorted(HUGE_NUMBERS))
def test_huge_number_names_its_line(case, tmp_path):
    text, role = HUGE_NUMBERS[case]
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    nodes = tmp_path / "nodes.txt"
    nodes.write_text(VALID_NODES, encoding="utf-8")
    error = MalformedRow if role == "components" else MalformedLine
    with pytest.raises(error) as err:
        if role == "components":
            parse_components(path)
        else:
            parse_topology(*((path, None, None) if role == "nodes" else (nodes, None, path)))
    if role == "components":
        assert err.value.rowno == 3
    else:
        assert err.value.lineno == 2
        assert str(err.value).endswith(" of 5000 digits is too long")
