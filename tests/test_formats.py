"""Serialization: golden documents, round trips, malformed input."""

from __future__ import annotations

import gc
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchart import (
    AndState,
    Basic,
    DuplicateIdError,
    HyperEdge,
    MembershipError,
    ModelError,
    NetchartError,
    OrState,
    ParseError,
    PetriNet,
    PreconditionError,
    SpSpec,
    StateChart,
    TraceEntry,
    TreeError,
    ValidationError,
    detect_format,
    generate_sp,
    parse_chart,
    parse_net,
    parse_trace,
    transform,
    validate_chart,
    write_chart,
    write_net,
    write_trace,
)
from netchart import formats
from netchart import net as net_module
from netchart.cli import main
from netchart.formats import FORMATS, _NOT_XML_CHAR, _net_from_json, _net_from_xml, _xml_attr
from netchart.net import _valid_ids, check_id
from families import FAMILIES
from oracle import (
    reference_net_from_json,
    reference_net_from_xml,
    reference_parse_chart,
    reference_write_chart,
)
from support import (
    chart_identical,
    child_env,
    diamond,
    fork_join_nest,
    general_nets,
    line_events,
    round_trip_corpus,
    single_place,
    three_cycle,
)

D1_NET_XML = b"""\
<petrinet name="D1">
  <place id="q"/>
  <place id="a"/>
  <place id="b"/>
  <place id="r"/>
  <transition id="t1" src="q" tgt="a b"/>
  <transition id="t2" src="a b" tgt="r"/>
</petrinet>
"""

D1_CHART_XML = b"""\
<statechart name="D1">
  <and id="s0">
    <or id="s1">
      <basic id="s2" place="q"/>
      <and id="s9">
        <or id="s3">
          <basic id="s4" place="a"/>
        </or>
        <or id="s5">
          <basic id="s6" place="b"/>
        </or>
      </and>
      <basic id="s8" place="r"/>
    </or>
  </and>
  <hyperedge id="h0" transition="t1" src="s2" tgt="s4 s6"/>
  <hyperedge id="h1" transition="t2" src="s4 s6" tgt="s8"/>
</statechart>
"""

SOLO_CHART_XML = b"""\
<statechart name="solo">
  <and id="s0">
    <or id="s1">
      <basic id="s2" place="p0"/>
    </or>
  </and>
</statechart>
"""

D1_TRACE_ROWS = [
    ("AndRulePlace2Or", "m0", "s10"),
    ("PetriNet2StateChart", "D1", "D1"),
    ("PetriNet2TopState", "D1", "s0"),
    ("Place2Basic", "a", "s4"),
    ("Place2Basic", "b", "s6"),
    ("Place2Basic", "q", "s2"),
    ("Place2Basic", "r", "s8"),
    ("Place2Or", "a", "s3"),
    ("Place2Or", "b", "s5"),
    ("Place2Or", "q", "s1"),
    ("Place2Or", "r", "s7"),
    ("Transition2HyperEdge", "t1", "h0"),
    ("Transition2HyperEdge", "t2", "h1"),
]


def test_detect_format():
    assert detect_format(b"  <petrinet/>") == "xml"
    assert detect_format('{"name": "n"}') == "json"
    assert detect_format(b"\n[]") == "json"
    with pytest.raises(ParseError):
        detect_format(b"name: n")


def test_unknown_format_is_rejected_everywhere():
    with pytest.raises(PreconditionError):
        write_net(diamond(), "yaml")
    with pytest.raises(PreconditionError):
        write_chart(transform(diamond()).chart, "yaml")


def test_write_net_xml_golden():
    assert write_net(diamond(), "xml") == D1_NET_XML


def test_parse_net_xml():
    net = parse_net(D1_NET_XML)
    assert net.name == "D1"
    assert list(net.places) == ["q", "a", "b", "r"]
    _, post = net.transitions["t1"]
    assert list(post) == ["a", "b"]
    assert write_net(net) == D1_NET_XML


def test_parse_net_ignores_layout():
    squeezed = (
        b'<petrinet name="D1"><place id="q"/><place id="a"/><place id="b"/>'
        b'<place id="r"/><transition id="t1" src="q" tgt="a b"/>'
        b'<transition id="t2" src="a b" tgt="r"/></petrinet>'
    )
    assert write_net(parse_net(squeezed)) == D1_NET_XML


def test_net_json_round_trip():
    blob = write_net(diamond(), "json")
    net = parse_net(blob)
    assert write_net(net, "json") == blob
    assert write_net(net, "xml") == D1_NET_XML
    doc = json.loads(blob)
    assert set(doc) == {"name", "places", "transitions"}
    assert doc["transitions"][0] == {"id": "t1", "src": ["q"], "tgt": ["a", "b"]}


def test_parsers_report_syntax_positions():
    with pytest.raises(ParseError, match=r"xml syntax error at line \d+, column \d+"):
        parse_net(b'<petrinet name="n">\n  <place\n</petrinet>')
    with pytest.raises(ParseError, match=r"line 1, column"):
        parse_net(b'{"name": }')


def test_parse_net_rejects_foreign_structure():
    with pytest.raises(ParseError, match="expected root element"):
        parse_net(b"<statechart name='c'/>")
    with pytest.raises(ParseError, match="unexpected element <arc>"):
        parse_net(b'<petrinet name="n"><arc/></petrinet>')
    with pytest.raises(ParseError, match="missing: id"):
        parse_net(b'<petrinet name="n"><place/></petrinet>')
    with pytest.raises(ParseError, match="unexpected: label"):
        parse_net(b'<petrinet name="n"><place id="p" label="x"/></petrinet>')
    with pytest.raises(ParseError, match="unexpected text"):
        parse_net(b'<petrinet name="n">hello</petrinet>')
    with pytest.raises(ParseError, match="child elements"):
        parse_net(b'<petrinet name="n"><place id="p"><x/></place></petrinet>')
    with pytest.raises(ParseError, match="^unexpected text after <place>$"):
        parse_net(b'<petrinet name="n"><place id="p"/>tail</petrinet>')
    with pytest.raises(ParseError, match="^unexpected text inside <place>$"):
        parse_net(b'<petrinet name="n"><place id="a">hello</place></petrinet>')
    with pytest.raises(ParseError, match="^unexpected text inside <transition>$"):
        parse_net(b'<petrinet name="n"><place id="p"/>'
                  b'<transition id="t" src="p" tgt="p">hello</transition></petrinet>')
    with pytest.raises(
        ParseError, match="^element <transition> cannot contain child elements$"
    ):
        parse_net(b'<petrinet name="n"><place id="p"/>'
                  b'<transition id="t" src="p" tgt="p"><x/></transition></petrinet>')
    # a str document must encode as UTF-8 for the XML parser
    with pytest.raises(
        ParseError, match=r"^xml error: 'utf-8' codec can't encode character '\\ud800'"
    ):
        parse_net('<petrinet name="n"><place id="\ud800"/></petrinet>')


def test_parse_net_rejects_bad_json_shapes():
    with pytest.raises(ParseError, match="bad keys"):
        parse_net(b'{"name": "n", "places": []}')
    with pytest.raises(ParseError, match="unexpected: extra"):
        parse_net(b'{"name": "n", "places": [], "transitions": [], "extra": 1}')
    with pytest.raises(ParseError, match="must be a list"):
        parse_net(b'{"name": "n", "places": {}, "transitions": []}')
    with pytest.raises(ParseError, match="must be a string"):
        parse_net(b'{"name": "n", "places": [{"id": 3}], "transitions": []}')
    with pytest.raises(ParseError, match="must be an object"):
        parse_net(b'["not", "a", "net"]')
    with pytest.raises(ParseError, match="^'transitions' must be a list$"):
        parse_net(b'{"name": "n", "places": [], "transitions": {}}')
    with pytest.raises(ParseError, match="^'src' must be a list, got str$"):
        parse_net(b'{"name": "n", "places": [{"id": "p"}],'
                  b' "transitions": [{"id": "t", "src": "p", "tgt": ["p"]}]}')


def test_parse_net_rejects_invalid_utf8_json():
    data = b'{"name": "n\xff\xfe", "places": [], "transitions": []}'
    with pytest.raises(ParseError, match="not valid utf-8 at byte 11"):
        parse_net(data)


def test_parse_net_rejects_deeply_nested_json():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_net("[" * 100000)


@pytest.mark.parametrize("format", ["xml", "json"])
def test_parsers_accept_a_utf8_byte_order_mark(format):
    blob = write_net(diamond(), format)
    assert write_net(parse_net(b"\xef\xbb\xbf" + blob), format) == blob
    blob = write_chart(transform(diamond()).chart, format)
    assert write_chart(parse_chart(b"\xef\xbb\xbf" + blob), format) == blob


@pytest.mark.parametrize("format", ["xml", "json"])
def test_parsers_accept_a_byte_order_mark_on_text(format):
    # what reading a file that starts with a byte-order mark as UTF-8 text gives
    blob = write_net(diamond(), format)
    assert write_net(parse_net("﻿" + blob.decode()), format) == blob
    blob = write_chart(transform(diamond()).chart, format)
    assert write_chart(parse_chart("﻿" + blob.decode()), format) == blob
    assert detect_format("﻿" + blob.decode()) == format


def test_parse_trace_accepts_a_byte_order_mark():
    blob = write_trace(transform(diamond()).trace)
    assert write_trace(parse_trace("﻿" + blob.decode())) == blob
    assert write_trace(parse_trace(b"\xef\xbb\xbf" + blob)) == blob


def test_parse_net_enforces_model_rules():
    with pytest.raises(MembershipError, match="'ghost'"):
        parse_net(b'<petrinet name="n"><place id="p"/>'
                  b'<transition id="t" src="p" tgt="ghost"/></petrinet>')
    with pytest.raises(DuplicateIdError):
        parse_net(b'<petrinet name="n"><place id="p"/><place id="p"/></petrinet>')
    with pytest.raises(PreconditionError, match="nonempty"):
        parse_net(b'<petrinet name="n"><place id="p"/>'
                  b'<transition id="t" src="" tgt="p"/></petrinet>')
    with pytest.raises(PreconditionError, match="whitespace"):
        parse_net(b'{"name": "n", "places": [{"id": "a b"}], "transitions": []}')


def test_write_net_refuses_broken_nets():
    net = diamond()
    pre, _ = net.transitions["t1"]
    pre.clear()
    with pytest.raises(ValidationError) as info:
        write_net(net)
    assert info.value.violations


# a C0 control, a noncharacter and a lone surrogate: legal in JSON strings,
# outside XML 1.0's character range
@pytest.mark.parametrize(
    "char", ["\x01", "\ufffe", "\ud800"], ids=["control", "noncharacter", "surrogate"]
)
@pytest.mark.parametrize("where", ["id", "name"])
def test_xml_writers_refuse_characters_xml_cannot_carry(char, where):
    bad = f"a{char}"
    net = PetriNet(bad if where == "name" else "n")
    net.add_place("q")
    net.add_place(bad if where == "id" else "p")
    net.add_transition("t", ["q"], [bad if where == "id" else "p"])
    chart = transform(net).chart
    for write in (write_net, write_chart):
        model = net if write is write_net else chart
        with pytest.raises(ModelError, match=re.escape(repr(bad))):
            write(model, "xml")
        assert write(model, "json").decode("ascii")  # JSON escapes them


def test_xml_writers_keep_every_character_xml_can_carry():
    name = "\t\n\r \ud7ff\ue000\ufffd\U00010000\U0010ffff<&>\"'"
    net = PetriNet(name)
    net.add_place("\ud7ff\ue000\ufffd\U0010ffff")
    assert parse_net(write_net(net, "xml")).name == name
    chart = transform(net).chart
    assert parse_chart(write_chart(chart, "xml")).name == name


# what quoteattr escapes or picks its quote by, what XML 1.0 cannot carry
# and astral characters, against a background of any other character
_ATTR_CHARS = st.one_of(
    st.sampled_from(
        "&<>\"'\t\n\r\x00\x01\x08\x0b\x0c\x1f\ud800\udbff\udc00\udfff"
        "\ufffe\uffff\U00010000\U0001f600\U0010ffff"
    ),
    st.characters(),
)


@settings(max_examples=500, deadline=None)
@given(st.text(_ATTR_CHARS, max_size=12))
def test_xml_attr_quotes_byte_for_byte_like_quoteattr(value):
    bad = _NOT_XML_CHAR.search(value)
    if bad:
        with pytest.raises(ModelError, match=re.escape(repr(bad.group()))):
            _xml_attr(value)
    else:
        assert _xml_attr(value) == quoteattr(value)
    # the same text without what XML cannot carry, so every example
    # also exercises the quoting
    kept = _NOT_XML_CHAR.sub("", value)
    assert _xml_attr(kept) == quoteattr(kept)


def test_importing_netchart_loads_no_network_modules():
    heavy = ("xml.sax", "urllib.request", "http.client", "email", "ssl", "socket")
    code = f"import sys, netchart; print(*[m for m in {heavy!r} if m in sys.modules])"
    run = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == []


def test_write_chart_xml_golden():
    chart, _, _ = transform(diamond())
    assert write_chart(chart, "xml") == D1_CHART_XML
    solo, _, _ = transform(single_place())
    assert write_chart(solo, "xml") == SOLO_CHART_XML


def test_parse_chart_xml():
    chart = parse_chart(D1_CHART_XML)
    assert chart.name == "D1"
    assert chart.topstate.id == "s0"
    assert [n.id for n in chart.states()] == [
        "s0", "s1", "s2", "s9", "s3", "s4", "s5", "s6", "s8",
    ]
    edge = chart.hyperedges[0]
    assert edge.origin_transition == "t1"
    assert [b.id for b in edge.targets] == ["s4", "s6"]
    assert write_chart(chart) == D1_CHART_XML


def test_chart_round_trips_both_formats():
    for net in (diamond(), three_cycle(), single_place()):
        chart, _, _ = transform(net)
        for format in ("xml", "json"):
            blob = write_chart(chart, format)
            back = parse_chart(blob)
            assert chart_identical(chart, back)
            assert write_chart(back, format) == blob


@settings(max_examples=200, deadline=None)
@given(general_nets())
def test_documents_round_trip_byte_stable_on_general_nets(net):
    for format in ("xml", "json"):
        blob = write_net(net, format)
        assert write_net(parse_net(blob), format) == blob
    chart, _, trace = transform(net)
    blobs = {format: write_chart(chart, format) for format in ("xml", "json")}
    for blob in blobs.values():
        back = parse_chart(blob)
        assert chart_identical(chart, back)
        assert {format: write_chart(back, format) for format in blobs} == blobs
    blob = write_trace(trace)
    assert write_trace(parse_trace(blob)) == blob


@pytest.mark.parametrize("format", ["xml", "json"])
def test_write_chart_refuses_origin_ids_its_reader_refuses(format):
    # a chart built by hand: nets refuse such ids before any chart exists
    for place, transition, kind in (("a b", "t", "place"), ("p", "t\t1", "transition")):
        chart = StateChart("n")
        q, p, chart.topstate = Basic("s0", "q"), Basic("s1", place), AndState("s4")
        for basic, id in ((q, "s2"), (p, "s3")):
            or_state = OrState(id)
            or_state.children[basic] = None
            chart.topstate.children[or_state] = None
        edge = HyperEdge("h0", transition)
        edge.sources, edge.targets = [q], [p]
        chart.hyperedges.append(edge)
        with pytest.raises(PreconditionError, match=f"^{kind} id .* without whitespace$"):
            write_chart(chart, format)


@pytest.mark.parametrize("format", ["xml", "json"])
def test_writers_report_a_refused_id_before_a_character_xml_cannot_carry(format):
    # built by hand: the model constructors refuse the spaced id
    net = PetriNet("n")
    net.add_place("a\x01")
    net.places["b c"] = None
    net.add_transition("t", ["a\x01"], ["b c"])
    with pytest.raises(PreconditionError, match="^place id 'b c' must be"):
        write_net(net, format)
    # a transition's key is the id `write_net` prints for it
    net = PetriNet("n")
    net.add_place("a\x01")
    net.add_place("b")
    net.add_transition("t", ["a\x01"], ["b"])
    net.transitions["t 9"] = net.transitions.pop("t")
    with pytest.raises(PreconditionError, match="^transition id 't 9' must be"):
        write_net(net, format)
    chart = StateChart("n")
    chart.topstate = AndState("s2")
    for basic, id in ((Basic("a\x01", "p"), "s0"), (Basic("b c", "q"), "s1")):
        or_state = OrState(id)
        or_state.children[basic] = None
        chart.topstate.children[or_state] = None
    with pytest.raises(PreconditionError, match="^state id 'b c' must be"):
        write_chart(chart, format)


@pytest.mark.parametrize("parse", [parse_net, parse_chart])
def test_xml_readers_refuse_an_unknown_declared_encoding(parse):
    with pytest.raises(ParseError, match="^xml error: unknown encoding: bogus$"):
        parse(b'<?xml version="1.0" encoding="bogus"?><x/>')


def test_parse_chart_rejects_foreign_structure():
    with pytest.raises(ParseError, match="expected root element"):
        parse_chart(D1_NET_XML)
    with pytest.raises(ParseError, match="topstate element"):
        parse_chart(b'<statechart name="c"></statechart>')
    with pytest.raises(ParseError, match="want <hyperedge>"):
        parse_chart(b'<statechart name="c"><and id="s0"><or id="s1">'
                    b'<basic id="s2" place="p"/></or></and><and id="s3"/></statechart>')
    with pytest.raises(ParseError, match="in a state tree"):
        parse_chart(b'<statechart name="c"><and id="s0"><state id="s1"/></and></statechart>')
    with pytest.raises(ParseError, match="child elements"):
        parse_chart(b'<statechart name="c"><and id="s0"><or id="s1">'
                    b'<basic id="s2" place="p"><x/></basic></or></and></statechart>')
    head = (b'<statechart name="c"><and id="s0"><or id="s1">'
            b'<basic id="s2" place="p"/></or></and>')
    for doc, where in (
        (b'<statechart name="c">x<and id="s0"/></statechart>', "inside <statechart>"),
        (b'<statechart name="c"><and id="s0">x<or id="s1"/></and></statechart>',
         "inside <and>"),
        (b'<statechart name="c"><and id="s0"><or id="s1"/>x</and></statechart>',
         "after <or>"),
        (head + b'<hyperedge id="h0" transition="t" src="s2" tgt="s2">x</hyperedge>'
         b'</statechart>', "inside <hyperedge>"),
    ):
        with pytest.raises(ParseError, match=f"^unexpected text {where}$"):
            parse_chart(doc)
    # text anywhere in the document does not outrank an earlier fault
    with pytest.raises(ParseError, match=r"^element <or>: bad attributes"):
        parse_chart(b'<statechart name="c"><and id="s0"><or ID="s1"><basic id="s2" place="p"/>'
                    b'</or><or id="s3">x<basic id="s4" place="q"/></or></and></statechart>')
    with pytest.raises(
        ParseError, match="^element <hyperedge> cannot contain child elements$"
    ):
        parse_chart(head + b'<hyperedge id="h0" transition="t" src="s2" tgt="s2"><x/>'
                    b'</hyperedge><hyperedge id="h1" transition="t" src="s2" tgt="s2">'
                    b'x</hyperedge></statechart>')
    with pytest.raises(
        ParseError, match="^element <hyperedge> cannot contain child elements$"
    ):
        parse_chart(head + b'<hyperedge id="h0" transition="t" src="s2" tgt="s2">'
                    b'<x/></hyperedge></statechart>')


def test_parse_chart_rejects_alternation_breaks(tmp_path, capsys):
    # the same two breaks in XML and in JSON: an AND state under the
    # topstate, and an OR state under an OR state
    and_in_and = (
        b'<statechart name="c"><and id="s0"><and id="s1"/></and></statechart>',
        b'{"name": "c", "topstate": {"kind": "and", "id": "s0", "children":'
        b' [{"kind": "and", "id": "s1", "children": []}]}, "hyperedges": []}',
    )
    or_in_or = (
        b'<statechart name="c"><and id="s0"><or id="s1">'
        b'<or id="s2"/></or></and></statechart>',
        b'{"name": "c", "topstate": {"kind": "and", "id": "s0", "children":'
        b' [{"kind": "or", "id": "s1", "children":'
        b' [{"kind": "or", "id": "s2", "children": []}]}]}, "hyperedges": []}',
    )
    for documents, message in (
        (and_in_and, "AND state 's0' can only contain OR states"),
        (or_in_or, "OR state 's1' can only contain Basic or AND states"),
    ):
        for data in documents:
            with pytest.raises(TreeError) as info:
                parse_chart(data)
            assert str(info.value) == message
            path = tmp_path / "chart"
            path.write_bytes(data)
            assert main(["validate", "--chart", str(path)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_chart_checks_endpoints():
    head = (b'<statechart name="c"><and id="s0"><or id="s1">'
            b'<basic id="s2" place="p"/></or></and>')
    with pytest.raises(MembershipError, match="unknown state 'zz'"):
        parse_chart(head + b'<hyperedge id="h0" transition="t" src="s2" tgt="zz"/></statechart>')
    with pytest.raises(PreconditionError, match="not a basic state"):
        parse_chart(head + b'<hyperedge id="h0" transition="t" src="s1" tgt="s2"/></statechart>')
    with pytest.raises(ValidationError):
        # no sources
        parse_chart(head + b'<hyperedge id="h0" transition="t" src="" tgt="s2"/></statechart>')


def test_parse_chart_validates_the_result():
    with pytest.raises(ValidationError, match="not well formed"):
        parse_chart(b'<statechart name="c"><or id="s0">'
                    b'<basic id="s1" place="p"/></or></statechart>')
    with pytest.raises(ValidationError):
        parse_chart(b'<statechart name="c"><and id="s0"><or id="s1">'
                    b'<basic id="s1" place="p"/></or></and></statechart>')
    with pytest.raises(ValidationError):
        # an inner AND needs at least two branches
        parse_chart(b'<statechart name="c"><and id="s0"><or id="s1">'
                    b'<and id="s2"><or id="s3"><basic id="s4" place="p"/></or></and>'
                    b'</or></and></statechart>')


def test_parse_chart_json_mirrors_xml():
    chart, _, _ = transform(diamond())
    doc = json.loads(write_chart(chart, "json"))
    assert set(doc) == {"name", "topstate", "hyperedges"}
    assert doc["topstate"]["kind"] == "and"
    assert doc["hyperedges"][0]["tgt"] == ["s4", "s6"]
    again = parse_chart(write_chart(chart, "json"))
    assert write_chart(again, "xml") == D1_CHART_XML


def test_parse_chart_rejects_bad_json_kinds():
    with pytest.raises(ParseError, match="'kind' must be"):
        parse_chart(b'{"name": "c", "topstate": {"kind": "state", "id": "s0"},'
                    b' "hyperedges": []}')
    with pytest.raises(ParseError, match="bad keys"):
        parse_chart(b'{"name": "c", "topstate": {"kind": "and", "id": "s0"},'
                    b' "hyperedges": []}')
    with pytest.raises(ParseError, match="^state must be an object, got int$"):
        parse_chart(b'{"name": "c", "topstate": 3, "hyperedges": []}')
    with pytest.raises(ParseError, match="^state must be an object, got list$"):
        parse_chart(b'{"name": "c", "topstate": {"kind": "and", "id": "s0",'
                    b' "children": [[]]}, "hyperedges": []}')
    with pytest.raises(ParseError, match="^'children' must be a list$"):
        parse_chart(b'{"name": "c", "topstate": {"kind": "and", "id": "s0",'
                    b' "children": {}}, "hyperedges": []}')
    with pytest.raises(ParseError, match="^'hyperedges' must be a list$"):
        parse_chart(b'{"name": "c", "topstate": {"kind": "and", "id": "s0",'
                    b' "children": []}, "hyperedges": {}}')


def _one_step_chart() -> dict:
    """A JSON chart document: one OR state over basics a and b, and a
    hyperedge from a to b."""
    basics = [{"kind": "basic", "id": id, "place": id} for id in "ab"]
    return {
        "name": "c",
        "topstate": {"kind": "and", "id": "s0",
                     "children": [{"kind": "or", "id": "s1", "children": basics}]},
        "hyperedges": [{"id": "h0", "transition": "t", "src": ["a"], "tgt": ["b"]}],
    }


# the broken basic is the first state read with a place, so a fast walk
# that went past its refusal would have no place to build it from
@pytest.mark.parametrize("change, message", [
    (lambda doc: doc["topstate"]["children"][0]["children"][0].pop("place"),
     "basic state: bad keys (missing: place)"),
    (lambda doc: doc["topstate"]["children"][0]["children"][0].update(extra=1),
     "basic state: bad keys (unexpected: extra)"),
    (lambda doc: doc["hyperedges"][0].update(extra=1), "hyperedge: bad keys (unexpected: extra)"),
    # a one-character string would resolve as a one-endpoint side
    (lambda doc: doc["hyperedges"][0].update(src="a"), "'src' must be a list, got str"),
], ids=["basic missing key", "basic extra key", "hyperedge extra key", "string src"])
def test_the_fast_json_chart_walk_leaves_bad_entries_to_the_strict_one(change, message):
    doc = _one_step_chart()
    assert formats._chart_from_document(doc) is not None
    change(doc)
    assert formats._chart_from_document(doc) is None
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_chart(json.dumps(doc))


def test_write_chart_refuses_invalid_charts():
    chart, _, _ = transform(diamond())
    top_or = list(chart.topstate.children)[0]
    del top_or.children[list(top_or.children)[0]]
    with pytest.raises(ValidationError):
        write_chart(chart)


@pytest.mark.parametrize("format", ["xml", "json"])
def test_write_chart_refuses_a_topstate_that_is_no_and_state(format):
    or_top, no_top = StateChart("c"), StateChart("c")
    or_top.topstate = OrState("x")
    or_top.topstate.children[Basic("b", "p")] = None
    for chart, expected in ((or_top, ["topstate 'x' is not an AND state"]),
                            (no_top, ["chart 'c': no topstate"])):
        with pytest.raises(ValidationError) as info:
            write_chart(chart, format)
        assert str(info.value) == "chart 'c' is not well formed"
        assert info.value.violations == validate_chart(chart) == expected


@pytest.mark.parametrize("format", ["xml", "json"])
def test_write_chart_refuses_unhashable_ids_as_check_id_does(format):
    chart = transform(diamond()).chart
    list(chart.states())[2].id = ["x"]
    with pytest.raises(PreconditionError, match=re.escape(
            "state id ['x'] must be a nonempty string without whitespace")):
        write_chart(chart, format)
    chart = transform(diamond()).chart
    chart.hyperedges[1].id = ["x"]
    with pytest.raises(PreconditionError, match=re.escape(
            "hyperedge id ['x'] must be a nonempty string without whitespace")):
        write_chart(chart, format)


def test_a_transform_and_its_documents_leave_no_cyclic_garbage():
    """Charts hold no back-links, so reference counting frees a
    transformation, its documents and a read-back chart, and the collector
    finds nothing once they are dropped."""
    net = generate_sp(SpSpec(places=1600, seed=3))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        chart, report, trace = transform(net)
        documents = [write_chart(chart, format) for format in ("xml", "json")]
        back = parse_chart(documents[0])
        trace_bytes = write_trace(trace)
        del chart, report, trace, documents, back, trace_bytes
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_trace_golden():
    _, _, trace = transform(diamond())
    rows = [{"rule": r, "input": i, "output": o} for r, i, o in D1_TRACE_ROWS]
    assert write_trace(trace) == (json.dumps(rows, indent=2) + "\n").encode()


def test_write_trace_sorts_entries():
    entries = [
        TraceEntry(rule="Z", input="a", output="1"),
        TraceEntry(rule="A", input="b", output="2"),
        TraceEntry(rule="A", input="a", output="3"),
        TraceEntry(rule="A", input="b", output="0"),
    ]
    blob = write_trace(entries)
    assert [e.rule for e in parse_trace(blob)] == ["A", "A", "A", "Z"]
    assert parse_trace(blob)[0].input == "a"
    # entries equal in rule and input, which no pass records, follow output order
    assert [e.output for e in parse_trace(blob)[1:3]] == ["0", "2"]


def test_write_trace_empty():
    assert write_trace([]) == b"[]\n"
    assert parse_trace(b"[]\n") == []


def test_trace_round_trip():
    _, _, trace = transform(diamond())
    blob = write_trace(trace)
    assert parse_trace(blob) == trace
    assert write_trace(parse_trace(blob)) == blob


def test_parse_trace_rejects_bad_shapes():
    with pytest.raises(ParseError, match="JSON array"):
        parse_trace(b'{"rule": "R"}')
    with pytest.raises(ParseError, match="bad keys"):
        parse_trace(b'[{"rule": "R", "input": "i"}]')
    with pytest.raises(ParseError, match="must be a string"):
        parse_trace(b'[{"rule": "R", "input": "i", "output": 3}]')


def test_documents_end_with_a_single_newline():
    chart, _, trace = transform(diamond())
    for blob in (
        write_net(diamond(), "xml"),
        write_net(diamond(), "json"),
        write_chart(chart, "xml"),
        write_chart(chart, "json"),
        write_trace(trace),
    ):
        assert blob.endswith(b"\n") and not blob.endswith(b"\n\n")
        assert b"\r" not in blob


# -- the JSON writers against the encoder they replaced ----------------------


def _reference(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def _net_obj(net):
    return {
        "name": net.name,
        "places": [{"id": pid} for pid in net.places],
        "transitions": [
            {
                "id": tid,
                "src": list(pre),
                "tgt": list(post),
            }
            for tid, (pre, post) in net.transitions.items()
        ],
    }


def _state_obj(node):
    if isinstance(node, Basic):
        return {"kind": "basic", "id": node.id, "place": node.origin_place}
    kind = "and" if isinstance(node, AndState) else "or"
    return {"kind": kind, "id": node.id, "children": [_state_obj(c) for c in node.children]}


def _chart_obj(chart):
    def ids(endpoints):
        return [b.id for b in endpoints]

    return {
        "name": chart.name,
        "topstate": _state_obj(chart.topstate),
        "hyperedges": [
            {
                "id": edge.id,
                "transition": edge.origin_transition,
                "src": ids(edge.sources),
                "tgt": ids(edge.targets),
            }
            for edge in chart.hyperedges
        ],
    }


def _trace_obj(entries):
    records = [{"rule": e.rule, "input": e.input, "output": e.output} for e in entries]
    return sorted(records, key=lambda record: (record["rule"], record["input"]))


def _assert_writers_match_json_dumps(net):
    assert write_net(net, "json") == _reference(_net_obj(net))
    chart, _, trace = transform(net)
    if net.places:  # a chart without places has an empty topstate
        assert write_chart(chart, "json") == _reference(_chart_obj(chart))
    assert write_trace(trace) == _reference(_trace_obj(trace))


@pytest.mark.parametrize(
    "net",
    [
        *round_trip_corpus(),  # single_place among them: no hyperedges
        PetriNet("empty"),
        generate_sp(SpSpec(places=300, seed=9, max_branch=9)),
    ],
    ids=lambda net: net.name,
)
def test_json_writers_match_json_dumps(net):
    _assert_writers_match_json_dumps(net)


# quotes, backslashes, controls, non-ASCII and astral characters; never
# whitespace, which ids may not contain
_ID_CHARS = st.one_of(
    st.sampled_from('"\\/\x00\x01\x1b\x7f\x80\xe9\u20ac\ufffe\U00010000\U0001f600'),
    st.characters(),
).filter(lambda ch: not ch.isspace())


@settings(max_examples=200, deadline=None)
@given(
    name=st.text(max_size=6),
    ids=st.lists(st.text(_ID_CHARS, min_size=1, max_size=5), min_size=6, max_size=6, unique=True),
)
def test_json_writers_escape_like_json_dumps(name, ids):
    q, a, b, r, t1, t2 = ids
    net = PetriNet(name)
    for pid in (q, a, b, r):
        net.add_place(pid)
    net.add_transition(t1, [q], [a, b])
    net.add_transition(t2, [a, b], [r])
    _assert_writers_match_json_dumps(net)
    chart, _, trace = transform(net)
    assert chart_identical(parse_chart(write_chart(chart, "json")), chart)
    assert parse_trace(write_trace(trace)) == trace


# -- deep charts ---------------------------------------------------------------


@pytest.mark.parametrize("depth", [400, 1000])
def test_deep_charts_write_json_iteratively(depth):
    chart, report, _ = transform(fork_join_nest(depth))
    assert report.fully_reduced
    blob = write_chart(chart, "json")  # no RecursionError
    via_xml = parse_chart(write_chart(chart, "xml"))
    assert chart_identical(via_xml, chart)
    assert write_chart(via_xml, "json") == blob
    # the JSON reader recurses: this nest is past its stated bound
    with pytest.raises(ParseError, match="^json document is nested too deeply$"):
        parse_chart(blob)


def test_nests_of_depth_200_round_trip_through_json():
    chart, _, _ = transform(fork_join_nest(200))
    blob = write_chart(chart, "json")
    back = parse_chart(blob)
    assert chart_identical(chart, back)
    assert write_chart(back, "json") == blob


def _valid_documents() -> list[bytes]:
    chart, _, trace = transform(diamond())
    docs = [write_trace(trace)]
    for format in ("xml", "json"):
        docs += [write_net(diamond(), format), write_chart(chart, format)]
    return docs


@st.composite
def _mutated_documents(draw):
    """A valid net, chart or trace document with a few bytes deleted,
    inserted, replaced or repeated."""
    doc = bytearray(draw(st.sampled_from(_valid_documents())))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(doc)))
        span = draw(st.integers(0, 12))
        op = draw(st.sampled_from(["delete", "insert", "replace", "repeat"]))
        if op == "delete":
            del doc[at : at + span]
        elif op == "repeat":
            doc[at:at] = doc[at : at + span]
        else:
            junk = draw(st.one_of(
                st.binary(min_size=1, max_size=span + 1),
                st.sampled_from([b'"', b"<", b">", b"{", b"}", b"[", b"]", b",", b":",
                                 b" ", b"/", b"=", b"\xff", b"\x01", b"null", b"0",
                                 b'"and"', b'"or"', b'"basic"', b"<or id='x'>"]),
            ))
            doc[at : at + (span if op == "replace" else 0)] = junk
    return bytes(doc)


@st.composite
def _deep_documents(draw):
    """Adversarial nesting: brackets, objects, state trees and elements."""
    depth = draw(st.integers(1, 3000))
    shape = draw(st.sampled_from(["array", "object", "state", "xml", "xml state"]))
    if shape == "array":
        return b"[" * depth + b"]" * draw(st.integers(0, depth))
    if shape == "object":
        return b'{"name": ' * depth + b"1" + b"}" * depth
    if shape == "state":
        state = b'{"kind": "or", "id": "s", "children": ['
        return (b'{"name": "n", "topstate": ' + state * depth + b"]}" * depth
                + b', "hyperedges": []}')
    if shape == "xml":
        return b"<petrinet name='n'>" + b"<place id='p'>" * depth
    return b"<statechart name='n'>" + b"<and id='a'><or id='o'>" * depth + b"</statechart>"


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.text(max_size=32),
    _mutated_documents(),
    _deep_documents(),
))
def test_readers_raise_only_netchart_errors(data):
    for parse in (parse_net, parse_chart, parse_trace):
        try:
            parse(data)
        except NetchartError:
            pass


_NET_FAULTS = ["missing", "extra", "renamed", "child", "text inside", "text after", "tag",
               "odd id", "repeated id", "unknown place", "empty side"]


@st.composite
def _net_elements(draw):
    """A net as [tag, attributes, has a child, stray text] records, places
    first, with up to two faults: an attribute lost, added or renamed, a
    child element, text inside or after the element, a foreign tag, an id
    that is empty, holds whitespace, is made of it or repeats, an unknown
    place, an empty side.  A side is a list of place ids and may name a
    place more than once, which reads as one arc.  A place given an odd
    id is renamed in every side that names it, so a side can be exactly
    a key the readers refuse.  An empty side is [], [""] or ["", ""]:
    XML spells them "", "" and " ", and in JSON the last two name the
    empty id."""
    pids = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    side = st.lists(st.sampled_from(pids), min_size=1, max_size=4)
    records = [["place", {"id": pid}, False, None] for pid in pids]
    records += [
        ["transition", {"id": f"t{j}", "src": draw(side), "tgt": draw(side)}, False, None]
        for j in range(draw(st.integers(0, 4)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        record = draw(st.sampled_from(records))
        attrs = record[1]
        fault = draw(st.sampled_from(_NET_FAULTS))
        name = draw(st.sampled_from(sorted(attrs) or ["id"]))
        if fault == "missing":
            attrs.pop(name, None)
        elif fault == "extra":
            attrs["extra"] = "1"
        elif fault == "renamed":
            attrs[name.upper()] = attrs.pop(name, "p0")
        elif fault == "child":
            record[2] = True
        elif fault.startswith("text"):
            record[3] = fault
        elif fault == "tag":
            record[0] = "arc"
        elif fault == "odd id":
            old = attrs.get("id")
            attrs["id"] = new = draw(st.sampled_from(["", " ", "a b", "p0\t", "\u3000"]))
            if record[0] == "place":
                for other in records:
                    for key in ("src", "tgt"):
                        if key in other[1]:
                            other[1][key] = [new if pid == old else pid for pid in other[1][key]]
        elif fault == "repeated id":
            attrs["id"] = draw(st.sampled_from(pids + ["t0"]))
        elif fault == "unknown place" and record[0] == "transition":
            key = draw(st.sampled_from(["src", "tgt"]))
            if key in attrs:  # an earlier fault can have removed or renamed it
                attrs[key] = [*attrs[key], "zz"]
        elif fault == "empty side" and record[0] == "transition":
            attrs[draw(st.sampled_from(["src", "tgt"]))] = [""] * draw(st.integers(0, 2))
    return records


# ways to write an XML net other than `write_net`'s layout, each a change
# to the document text: `parse_net` reads the writers' layout from the
# text and every other document through ElementTree, and both must read
# as the reference does.  Only the UTF-8 declaration, the non-ASCII ids
# and the extra spaces between elements keep the writers' layout.
_XML_LAYOUTS = {
    "utf-8 declaration": lambda text: '<?xml version="1.0" encoding="UTF-8"?>\n' + text,
    "latin-1 declaration": lambda text: '<?xml version="1.0" encoding="latin-1"?>\n' + text,
    "byte-order mark": lambda text: "\ufeff" + text,
    "comment": lambda text: text.replace("\n", "\n<!-- c -->", 1),
    "processing instruction": lambda text: text.replace("\n", "\n<?pi x?>", 1),
    "character references": lambda text: text.replace(' id="p', ' id="&#112;').replace(
        ' src="p', ' src="&#112;'),
    "ampersand in an id": lambda text: text.replace(' id="p', ' id="&amp;p', 1),
    "tab in src": lambda text: text.replace(' src="', ' src="\t'),
    "newline in src": lambda text: text.replace(' src="', ' src="\n'),
    "tab in the name": lambda text: text.replace(' name="n"', ' name="n\tm"'),
    "single quotes": lambda text: text.replace('"', "'"),
    "reordered attributes": lambda text: re.sub(
        r'<transition (id="[^"]*") (src="[^"]*" tgt="[^"]*")', r"<transition \2 \1", text),
    "spaces inside tags": lambda text: text.replace("<place ", "<place  ").replace('"/>', '" />'),
    "spaces between elements": lambda text: text.replace("\n", "\r\n\t"),
    "ideographic space": lambda text: text.replace("\n  <", "\n\u3000<", 1),
    "junk after the root": lambda text: text + "junk",
    "non-ASCII ids": lambda text: re.sub("p(?=[0-9])", "\xfe", text),
}


def _xml_net(records, syntax_fault: bool, layouts=()) -> str:
    """The records as an XML net, sides joined by spaces and written in
    each of the *layouts* in turn; a syntax fault cuts the last 3
    characters."""
    lines = ['<petrinet name="n">']
    for tag, attrs, child, text in records:
        quoted = "".join(
            f" {key}={quoteattr(' '.join(value) if isinstance(value, list) else value)}"
            for key, value in attrs.items()
        )
        inner = "<x/>" if child else "stray" if text == "text inside" else ""
        after = "stray" if text == "text after" else ""
        lines.append(f"  <{tag}{quoted}>{inner}</{tag}>{after}" if inner
                     else f"  <{tag}{quoted}/>{after}")
    lines.append("</petrinet>")
    text = "\n".join(lines)
    for layout in layouts:
        text = _XML_LAYOUTS[layout](text)
    return text[:-3] if syntax_fault else text


def _json_net(records, syntax_fault: bool, bad) -> str:
    """The records as a JSON net; *bad*, a (value, index) pair, replaces
    the first entry of a side, or else the id, of the index-th record."""
    places, transitions = [], []
    for tag, attrs, child, _ in records:
        obj = {key: list(value) if isinstance(value, list) else value
               for key, value in attrs.items()}
        if child:
            obj["children"] = []
        (places if tag == "place" else transitions).append(obj)
    if bad is not None:
        value, index = bad
        obj = (places + transitions)[index % len(records)]
        side = obj.get("src") or obj.get("tgt")
        if side:
            side[0] = value
        else:
            obj["id"] = value
    text = json.dumps({"name": "n", "places": places, "transitions": transitions})
    return text[:-2] if syntax_fault else text


def _net_outcome(read, data):
    """The net *read* builds from *data*, as ids in declaration order, or
    the type and message of what it raises."""
    try:
        net = read(data)
    except Exception as exc:  # the reference fixes the type as well
        return type(exc), str(exc)
    assert set(net.places.values()) <= {None}
    assert all(type(pair) is tuple for pair in net.transitions.values())
    sides = [(tid, list(pre), list(post)) for tid, (pre, post) in net.transitions.items()]
    for pre, post in net.transitions.values():
        assert all(p in net.places for p in [*pre, *post])
    return net.name, list(net.places), sides


@settings(max_examples=400, deadline=None)
@given(
    _net_elements(),
    st.sampled_from([False] * 5 + [True]),
    st.one_of(
        st.none(), st.none(), st.none(),
        st.tuples(st.sampled_from([7, None, [], {}, 1.5]), st.integers(0, 8)),
    ),
    st.lists(st.sampled_from(sorted(_XML_LAYOUTS)), max_size=2),
)
def test_net_readers_match_the_reference(records, syntax_fault, bad, layouts):
    text = _xml_net(records, syntax_fault, layouts)
    for data in (text, text.encode()):
        assert _net_outcome(_net_from_xml, data) == _net_outcome(reference_net_from_xml, data)
    text = _json_net(records, syntax_fault, bad)
    assert _net_outcome(_net_from_json, text) == _net_outcome(reference_net_from_json, text)


_CHART_BREAKS = ["duplicate node id", "duplicate edge id", "or topstate", "basic topstate",
                 "one-child inner and", "empty or", "empty side", "alternation breach",
                 "odd id", "lone endpoint"]


def _state_dicts(state: dict) -> list[dict]:
    """The states of a chart document's tree, preorder."""
    found, stack = [], [state]
    while stack:
        state = stack.pop()
        found.append(state)
        stack.extend(reversed(state.get("children", [])))
    return found


def _break_chart(doc: dict, kind: str, k: int, j: int) -> None:
    """Break the chart document *doc*, as `json.loads` gives it, in one
    of the ways the chart reader must refuse."""
    states = _state_dicts(doc["topstate"])
    ors = [s for s in states if s["kind"] == "or"]
    ands = [s for s in states if s["kind"] == "and"]
    edges = doc["hyperedges"]
    pick = lambda items, n: items[n % len(items)]  # noqa: E731
    lone = {"kind": "or", "id": f"y{k}", "children": [{"kind": "basic", "id": f"z{k}",
                                                       "place": "p"}]}
    if kind == "duplicate node id":
        pick(states, k)["id"] = pick(states, j)["id"]
    elif kind == "duplicate edge id" and edges:
        pick(edges, k)["id"] = pick(edges, j)["id"]
    elif kind in ("or topstate", "basic topstate"):
        tops = ors if kind == "or topstate" else [s for s in states if s["kind"] == "basic"]
        if tops:
            doc["topstate"] = top = pick(tops, k)
            # keep the hyperedges whose endpoints are still in the tree
            kept = {s["id"] for s in _state_dicts(top)}
            doc["hyperedges"] = [e for e in edges if kept.issuperset(e["src"] + e["tgt"])]
    elif kind == "one-child inner and" and ors:
        pick(ors, k)["children"].append({"kind": "and", "id": f"x{k}", "children": [lone]})
    elif kind == "empty or" and ands:
        pick(ands, k)["children"].append({"kind": "or", "id": f"e{k}", "children": []})
    elif kind == "empty side" and edges:
        pick(edges, k)["src" if j % 2 else "tgt"] = []
    elif kind == "lone endpoint" and edges:
        # a side of one id that names a composite state or no state
        pick(edges, k)["src" if j % 2 else "tgt"] = [pick([*ors, *ands, {"id": "zz"}], j)["id"]]
    elif kind == "alternation breach":
        if j % 2 and ands:
            pick(ands, k)["children"].append({"kind": "basic", "id": f"b{k}", "place": "p"})
        elif ors:
            pick(ors, k)["children"].append(lone)
    elif kind == "odd id":
        value = pick(["", "a b", "\t", 7, None], j)
        if j % 3 or not edges:
            state = pick(states, k)
            state["place" if state["kind"] == "basic" and j % 2 else "id"] = value
        else:
            pick(edges, k)["transition" if j % 2 else "id"] = value


def _xml_chart(doc: dict) -> bytes | None:
    """The XML spelling of the chart document *doc*, or None when it holds
    a value XML attributes cannot carry."""
    root = ET.Element("statechart", name=doc["name"])
    stack = [(doc["topstate"], root)]
    while stack:
        state, parent = stack.pop()
        attrs = {key: value for key, value in state.items() if key not in ("kind", "children")}
        elem = ET.SubElement(parent, state["kind"], attrs)
        stack.extend((child, elem) for child in reversed(state.get("children", [])))
    try:
        for edge in doc["hyperedges"]:
            ET.SubElement(root, "hyperedge", id=edge["id"], transition=edge["transition"],
                          src=" ".join(edge["src"]), tgt=" ".join(edge["tgt"]))
        return ET.tostring(root)
    except TypeError:  # a value that is no string, an endpoint id included
        return None


def _chart_outcome(read, data):
    """The chart *read* builds from *data*, as its JSON document, or the
    type, message and violations of what it raises."""
    try:
        chart = read(data)
    except Exception as exc:  # the reference fixes the type as well
        return type(exc), str(exc), getattr(exc, "violations", None)
    return write_chart(chart, "json")


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(general_nets(), st.integers(1, 30).map(lambda n: generate_sp(SpSpec(n, seed=n)))),
    st.lists(
        st.tuples(st.sampled_from(_CHART_BREAKS), st.integers(0, 99), st.integers(0, 99)),
        min_size=1, max_size=3,
    ),
)
def test_chart_reader_refuses_what_the_reference_refuses(net, breaks):
    """The reader flags inline what only `validate_chart` reports and runs
    it only then: in both formats it must raise what building the chart
    and then running the reference validation raises."""
    doc = json.loads(write_chart(transform(net).chart, "json"))
    for kind, k, j in breaks:
        _break_chart(doc, kind, k, j)
    for data in (json.dumps(doc, indent=2).encode(), _xml_chart(doc)):
        if data is not None:
            assert _chart_outcome(parse_chart, data) == _chart_outcome(reference_parse_chart, data)


def test_full_checks_run_only_on_invalid_input(monkeypatch):
    """Each boundary checks a model once: on valid nets and charts, read,
    transformed, written and read back in both formats, reading,
    `transform`, `write_chart` and `parse_chart` run neither `check_net`
    nor `validate_chart`, and `write_net` runs `check_net` exactly once
    per call, before it prints; on invalid ones each full check runs once
    per refusal, to raise its list.  Every module's binding of the two
    checks is counted, as modules import them by name."""
    calls = []
    for name in ("check_net", "validate_chart"):
        real = getattr(net_module if name == "check_net" else formats, name)
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] == "netchart" and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, lambda model, real=real, name=name: (
                    calls.append(name) or real(model)))
    for net in [*round_trip_corpus(), fork_join_nest(30)]:
        for in_format in FORMATS:
            data = write_net(net, in_format)
            assert calls == ["check_net"]
            calls.clear()
            chart, _, trace = transform(parse_net(data))
            write_trace(trace)
            for out_format in FORMATS:
                parse_chart(write_chart(chart, out_format))
            assert calls == []

    broken = diamond()
    pre, _ = broken.transitions["t1"]
    pre.clear()
    for call in (lambda: transform(broken), lambda: write_net(broken, "json")):
        with pytest.raises(ValidationError):
            call()
    assert calls == ["check_net"] * 2
    calls.clear()
    chart = transform(diamond()).chart
    list(chart.topstate.children)[0].children = {}
    with pytest.raises(ValidationError):
        write_chart(chart, "xml")
    with pytest.raises(ValidationError, match="not well formed"):
        parse_chart(b'<statechart name="c"><or id="s0">'
                    b'<basic id="s1" place="p"/></or></statechart>')
    assert calls == ["validate_chart"] * 2


# whitespace `str.split` splits on beside characters it does not: C0
# information separators, NEL, no-break and line separators, the
# ideographic space, against a zero-width space and a byte-order mark
_SPLIT_CHARS = st.one_of(
    st.sampled_from(
        "a_-.\xe9 \t\n\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
        "\u200b\ufeff\x01"
    ),
    st.characters(),
)


def _accepted(value) -> bool:
    """Whether `check_id` accepts *value*."""
    try:
        check_id("state", value)
    except PreconditionError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.text(_SPLIT_CHARS, max_size=4), st.integers(), st.none())))
def test_bulk_id_test_agrees_with_check_id(ids):
    assert _valid_ids(ids) == all(map(_accepted, ids))


# the ASCII whitespace `str.split` splits on besides the space
_OTHER_ASCII_SPACES = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f"


@pytest.mark.parametrize("ids", [
    [], [""], ["", "a"], ["a", ""], ["a", "", "b"], ["a", "b"],
    ["a b"], ["a  b"], ["a b", "c"], [" a"], ["a "],
    *(["x", bad] for c in _OTHER_ASCII_SPACES for bad in (f"a{c}b", f"{c}a", f"a{c}")),
    *([f"a{c}b"] for c in "\x85\xa0\u3000\u2028"),
    ["\xe9", "b"], ["\xe9", ""],
    ["a", 7], [None], [b"a"],
], ids=repr)
def test_bulk_id_test_agrees_with_check_id_at_its_corners(ids):
    """The corners of the ASCII test that random lists reach only by
    chance: empty ids at either end, spaces inside an id, each other
    ASCII whitespace character, non-ASCII whitespace, which the split
    path tests, and entries that are no string."""
    assert _valid_ids(ids) == all(map(_accepted, ids))


@pytest.mark.parametrize("slot", ["state", "place", "hyperedge", "transition"])
def test_writers_refuse_an_id_with_an_information_separator(slot):
    """An id holding `\\x1f`, ASCII whitespace to `str.split` but not to
    XML's escaping, is refused in both formats as the reference refuses it."""
    chart = transform(diamond()).chart
    basic = next(node for node in chart.states() if isinstance(node, Basic))
    edge = chart.hyperedges[0]
    target, name = {
        "state": (basic, "id"), "place": (basic, "origin_place"),
        "hyperedge": (edge, "id"), "transition": (edge, "origin_transition"),
    }[slot]
    setattr(target, name, "a\x1fb")
    for format in ("xml", "json"):
        outcome = _write_outcome(write_chart, chart, format)
        assert outcome == _write_outcome(reference_write_chart, chart, format)
        assert outcome[0] is PreconditionError and "'a\\x1fb'" in outcome[1]


# prefixes that keep an id valid whatever its alphabet, make XML escape
# it or refuse it, or make every document refuse it; and whole ids no
# document can carry
_PLAIN_ID_CHARS = "ab09_-.\xe9\u5b57\U0001f600"
_XML_ID_CHARS = _PLAIN_ID_CHARS + "&<>\"'\x01\ufffe\ud800"
_ID_PREFIXES = st.one_of(
    st.text(_PLAIN_ID_CHARS, max_size=3),
    st.text(_XML_ID_CHARS, max_size=3),
    st.text(_XML_ID_CHARS + " \t\x1c\x85\xa0\u2028\u3000", max_size=3),
)
_REFUSED_IDS = st.sampled_from(["", " ", "\u3000", 0, 7, None, ["x"]])


@st.composite
def _charts_with_drawn_ids(draw) -> StateChart:
    """The chart of a general net with some node, place, hyperedge and
    transition ids redrawn: prefixed from `_ID_PREFIXES`, which keeps
    them apart, or, in half the charts, also replaced from
    `_REFUSED_IDS`."""
    chart = transform(draw(general_nets())).chart
    refuse = draw(st.booleans())
    prefixes = _ID_PREFIXES if refuse else st.text(_XML_ID_CHARS, max_size=3)

    def redraw(value):
        choice = draw(st.integers(0, 5))
        if choice == 0:
            return draw(prefixes) + value
        return draw(_REFUSED_IDS) if choice == 1 and refuse else value

    for node in list(chart.states()):
        node.id = redraw(node.id)
        if isinstance(node, Basic):
            node.origin_place = redraw(node.origin_place)
    for edge in chart.hyperedges:
        edge.id = redraw(edge.id)
        edge.origin_transition = redraw(edge.origin_transition)
    return chart


def _write_outcome(write, chart, format):
    """The bytes *write* gives, or the type, message and violations of
    what it raises."""
    try:
        return write(chart, format)
    except Exception as exc:  # the reference fixes the type as well
        return type(exc), str(exc), getattr(exc, "violations", None)


@settings(max_examples=300, deadline=None)
@given(_charts_with_drawn_ids())
def test_writers_match_the_reference_on_any_ids(chart):
    """Testing ids once per document changes nothing the writers give:
    in both formats the reference's bytes, or its exception."""
    for format in ("xml", "json"):
        assert _write_outcome(write_chart, chart, format) == _write_outcome(
            reference_write_chart, chart, format
        )


def test_valid_ids_cost_no_check_of_their_own(monkeypatch):
    """The valid path costs the same whatever the id alphabet: writing and
    reading back a chart whose ids use punctuation, digits and non-ASCII
    letters never calls `check_id`.  An id that XML escapes sends the XML
    writer through one strict walk, which only escapes and writes the
    reference's bytes."""
    calls, passes = [], []
    real = formats.check_id
    monkeypatch.setattr(formats, "check_id", lambda *args: calls.append(args) or real(*args))
    to_xml = formats._chart_to_xml
    monkeypatch.setattr(formats, "_chart_to_xml", lambda chart, top, strict=False: (
        passes.append(strict) or to_xml(chart, top, strict)))
    net = PetriNet("ids")
    for pid in ("p_0", "p-1", "p.2", "3", "\xe9t\xe9", "\u5b57_x", "\u03a9.\u0416-9"):
        net.add_place(pid)
    net.add_transition("t_1", ["p_0"], ["p-1", "p.2"])
    net.add_transition("t-2.\xe9", ["p-1", "p.2"], ["3"])
    net.add_transition("\u5b57", ["3"], ["\xe9t\xe9", "\u5b57_x"])
    net.add_transition("9", ["\xe9t\xe9", "\u5b57_x"], ["\u03a9.\u0416-9"])
    chart = transform(net).chart
    for index, node in enumerate(chart.states()):
        node.id = f"n_{index}-\xe9.{index}"
    for index, edge in enumerate(chart.hyperedges):
        edge.id = f"\u03b5-{index}_"
    for format in ("xml", "json"):
        data = write_chart(chart, format)
        assert chart_identical(parse_chart(data), chart)
    assert calls == [] and passes == [False]

    passes.clear()
    net = PetriNet("escaped")
    for pid in ("q", "a&b"):
        net.add_place(pid)
    net.add_transition("t", ["q"], ["a&b"])
    chart = transform(net).chart
    data = write_chart(chart, "xml")
    assert calls == [] and passes == [False, True]
    assert b'place="a&amp;b"' in data
    assert data == reference_write_chart(chart, "xml")


def test_net_readers_test_ids_once_per_document(monkeypatch):
    """Writing a valid net and reading it back, in either format, tests
    its ids together: `check_id` never runs, and neither do the builders
    `add_place` and `add_transition`, whatever the id alphabet."""
    nets = [*round_trip_corpus(), fork_join_nest(30)]
    odd = PetriNet("ids")
    for pid in ("p_0", "p-1", "p.2", "3", "\xe9t\xe9", "\u5b57_x", "\u03a9.\u0416-9"):
        odd.add_place(pid)
    odd.add_transition("t_1", ["p_0"], ["p-1", "p.2"])
    odd.add_transition("t-2.\xe9", ["p-1", "p.2"], ["3"])
    odd.add_transition("\u5b57", ["3"], ["\xe9t\xe9", "\u5b57_x"])
    calls = []
    for module, name in ((net_module, "check_id"), (formats, "check_id"),
                         (PetriNet, "add_place"), (PetriNet, "add_transition")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: (
            calls.append(name) or real(*args)))
    for net in [*nets, odd]:
        for format in FORMATS:
            data = write_net(net, format)
            assert _net_outcome(parse_net, data) == _net_outcome(lambda _: net, data)
    assert calls == []


def test_xml_net_elements_may_interleave():
    """A transition may follow a place it does not name; it resolves its
    sides against the places read before it, as the reference does, so
    naming a place read only later is an unknown place."""
    data = (b'<petrinet name="n"><place id="a"/><place id="b"/>'
            b'<transition id="t" src="a" tgt="b"/><place id="c"/>'
            b'<transition id="u" src="b" tgt="c"/></petrinet>')
    assert _net_outcome(parse_net, data) == _net_outcome(reference_net_from_xml, data)
    net = parse_net(data)
    assert list(net.places) == ["a", "b", "c"] and list(net.transitions) == ["t", "u"]
    forward = (b'<petrinet name="n"><place id="a"/>'
               b'<transition id="t" src="a" tgt="b"/><place id="b"/></petrinet>')
    with pytest.raises(MembershipError, match="^unknown place 'b'$"):
        parse_net(forward)
    assert _net_outcome(parse_net, forward) == _net_outcome(reference_net_from_xml, forward)


def test_written_xml_nets_read_from_their_text():
    """Every XML net `write_net` prints, for sp2000 and each family, reads
    to the same net through `_net_from_text`, with or without an XML
    declaration naming UTF-8, and so never reaches the strict walk."""
    nets = [generate_sp(SpSpec(places=2000, seed=11)), *(build(60) for build in FAMILIES.values())]
    for net in nets:
        data = write_net(net, "xml")
        for document in (data, b'<?xml version="1.0" encoding="UTF-8"?>\n' + data):
            assert formats._net_from_text(document) is not None
            assert _net_outcome(formats._net_from_text, document) == _net_outcome(
                lambda _: net, document)


def test_xml_nets_that_miss_the_layout_at_the_end_read_as_the_reference_reads():
    """At sp20000, a document whose last element is cut short or names an
    unknown place, or that ends in a comment after `</petrinet>`, fails
    the text path only at its end and reads as the reference reads it:
    the same error, or for the comment the same net."""
    data = write_net(generate_sp(SpSpec(places=20000, seed=11)), "xml")
    last = data.rindex(b"<transition")
    damaged = data[:data.rindex(b'tgt="')] + b'tgt="zz"/>\n</petrinet>\n'
    for document in (data[:last + 20] + b"\n</petrinet>\n", damaged, data + b"<!-- end -->\n"):
        assert formats._net_from_text(document) is None
        outcome = _net_outcome(parse_net, document)
        assert outcome == _net_outcome(reference_net_from_xml, document)
    assert outcome == _net_outcome(parse_net, data)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_net_documents_work_scales_linearly_on_every_family(name):
    """`write_net` and `parse_net` of the XML and the JSON net document at
    8 times the size execute at most 8.4 times the lines of netchart's
    code, the gate `test_reduce_work_scales_linearly_on_every_family` puts
    on `reduce`.  Work inside C calls is not counted (see `line_events`):
    tokenizing by ElementTree or `json` counts as the one line that calls
    it, and the collector's passes, which run in C too, count nothing."""
    counts: dict[str, list[int]] = {}
    for k in (1000, 8000):
        net = FAMILIES[name](k)
        for format in ("xml", "json"):
            data, count = line_events(write_net, net, format)
            counts.setdefault(f"write {format}", []).append(count)
            counts.setdefault(f"parse {format}", []).append(line_events(parse_net, data)[1])
    for layer, (small, large) in counts.items():
        assert large <= 8.4 * small, (layer, small, large)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_chart_documents_work_scales_linearly_on_every_family(name):
    """`validate_chart`, `write_chart` and `parse_chart` in both formats,
    and `write_trace`, at 8 times the size execute at most 8.4 times the
    lines of netchart's code, the gate
    `test_reduce_work_scales_linearly_on_every_family` puts on `reduce`.
    Work inside C calls is not counted (see `line_events`): the `join` and
    `split` that test a document's ids together count as one line each,
    whatever the document's size, and so do ElementTree's tokenizing and
    the `sorted` that orders a trace."""
    counts: dict[str, list[int]] = {}
    for k in (1000, 8000):
        chart, _, trace = transform(FAMILIES[name](k))
        counts.setdefault("validate", []).append(line_events(validate_chart, chart)[1])
        for format in ("xml", "json"):
            data, count = line_events(write_chart, chart, format)
            counts.setdefault(f"write {format}", []).append(count)
            counts.setdefault(f"parse {format}", []).append(line_events(parse_chart, data)[1])
        counts.setdefault("trace", []).append(line_events(write_trace, trace)[1])
    for layer, (small, large) in counts.items():
        assert large <= 8.4 * small, (layer, small, large)
