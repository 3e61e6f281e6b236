"""Deterministic document IO for nets, charts and traces.

Two self-contained formats per model: XML and a JSON mirror; a parser
reads the one that the document's first character names.  Writers
emit UTF-8 bytes with LF line endings, two-space indentation and a
fixed attribute order, so equal models produce identical bytes.
The JSON writers emit their text directly, walking charts with an
explicit stack, and produce the bytes of `json.dumps(doc, indent=2)`
plus a newline, so any nesting depth writes.  Parsers are strict:
unknown elements, attributes or keys are syntax errors; semantic
problems (duplicate ids, dangling references, empty transition sides)
raise model errors naming the offending id.  The XML chart reader only
translates its document into what `json.loads` gives for the same chart
in JSON, and one builder makes the chart from either.  The chart builder
and the writers check well-formedness in the walk they make anyway and
run `validate_chart` or `check_net` only to raise its list.

Ids must be nonempty and free of whitespace because the XML documents
carry space-separated id lists; the readers refuse other ids and the
writers check each id as they print it.  An id the check refuses outranks
any other fault of the document, such as a character XML cannot carry.
"""

from __future__ import annotations

import io
import json
import re
import xml.etree.ElementTree as ET
from json.encoder import encode_basestring_ascii as _quote
from itertools import repeat
from operator import itemgetter
from typing import Iterable

from .chart import AndState, Basic, HyperEdge, Node, OrState, StateChart, validate_chart
from .errors import (
    MembershipError,
    ModelError,
    ParseError,
    PreconditionError,
    ValidationError,
)
from .net import _ID, PetriNet, check_id, invalid_net
from .pipeline import TraceEntry

FORMATS = ("xml", "json")

# the characters XML 1.0's Char production leaves out
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# what `_xml_attr` cannot copy verbatim: what `_NOT_XML_CHAR` refuses, the
# tab, line feed and carriage return a reader would turn into spaces, & < > "
_XML_ATTR_SPECIAL = re.compile('[\x00-\x1f&<>"\ud800-\udfff\ufffe\uffff]')
# an id `_xml_id` prints verbatim: nonempty, free of whitespace and of what
# `_XML_ATTR_SPECIAL` finds
_XML_PLAIN_ID = re.compile('[^\\s&<>"\x00-\x1f\ud800-\udfff\ufffe\uffff]+')


def detect_format(data: bytes | str) -> str:
    """Guess the document format from the first non-whitespace character;
    a document may start with a byte-order mark, as every parser accepts."""
    if isinstance(data, bytes):
        data = data.removeprefix(b"\xef\xbb\xbf")
        head = data.lstrip()[:1].decode("utf-8", "replace")
    else:
        head = data.removeprefix("\ufeff").lstrip()[:1]
    if head == "<":
        return "xml"
    if head in ("{", "["):
        return "json"
    raise ParseError("cannot detect document format (expected XML or JSON)")


def _xml_root(data: bytes | str, expected_tag: str) -> ET.Element:
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(
            f"xml syntax error at line {line}, column {column}: {exc.msg}"
        ) from exc
    except (ValueError, LookupError) as exc:
        # a str with a lone surrogate, or bytes declaring an unknown encoding
        raise ParseError(f"xml error: {exc}") from exc
    if root.tag != expected_tag:
        raise ParseError(f"expected root element <{expected_tag}>, found <{root.tag}>")
    return root


def _key_mismatch(got: Iterable[str], need: tuple[str, ...]) -> str:
    """How the names in `got` differ from `need`: "missing: …; unexpected: …"."""
    got, wanted = set(got), set(need)
    parts = []
    if wanted - got:
        parts.append("missing: " + ", ".join(sorted(wanted - got)))
    if got - wanted:
        parts.append("unexpected: " + ", ".join(sorted(got - wanted)))
    return "; ".join(parts)


def _attrs(elem: ET.Element, required: tuple[str, ...]) -> list[str]:
    attrib = elem.attrib
    if len(attrib) == len(required):
        try:
            return [attrib[name] for name in required]
        except KeyError:
            pass
    detail = _key_mismatch(attrib, required)
    raise ParseError(f"element <{elem.tag}>: bad attributes ({detail})")


def _xml_attr(value: str) -> str:
    """`value` as a quoted XML attribute, the text the standard library's
    `saxutils.quoteattr` gives; refuses any character XML 1.0 cannot
    carry, which no XML reader, netchart's own included, accepts."""
    if not _XML_ATTR_SPECIAL.search(value):
        return '"' + value + '"'
    bad = _NOT_XML_CHAR.search(value)
    if bad:
        raise ModelError(f"cannot write {value!r} as XML: it holds {bad.group()!r}")
    value = (
        value.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
        .replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    )
    if '"' not in value:
        return '"' + value + '"'
    if "'" not in value:
        return "'" + value + "'"
    return '"' + value.replace('"', "&quot;") + '"'


def _xml_id(kind: str, value: str) -> str:
    """`value` quoted as `_xml_attr` quotes it, after `check_id` for a
    value it cannot print verbatim."""
    if _XML_PLAIN_ID.fullmatch(value):
        return '"' + value + '"'
    return _xml_attr(check_id(kind, value))


def _reject_text(elem: ET.Element) -> None:
    if elem.text and elem.text.strip():
        raise ParseError(f"unexpected text inside <{elem.tag}>")
    for child in elem:
        if child.tail and child.tail.strip():
            raise ParseError(f"unexpected text after <{child.tag}>")


def _json_document(data: bytes | str):
    if isinstance(data, str):
        # what reading a file with a byte-order mark as UTF-8 text gives
        data = data.removeprefix("\ufeff")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"json syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"json document is not valid {exc.encoding} at byte {exc.start}: {exc.reason}"
        ) from exc
    except RecursionError:
        raise ParseError("json document is nested too deeply") from None


def _json_object(obj, what: str, keys: tuple[str, ...]):
    """The values of the object *obj* under exactly *keys*, as
    `itemgetter(*keys)` gives them: a tuple, or the bare value of one key."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object, got {type(obj).__name__}")
    if len(obj) == len(keys):
        try:
            return itemgetter(*keys)(obj)
        except KeyError:
            pass
    raise ParseError(f"{what}: bad keys ({_key_mismatch(obj, keys)})")


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _string_list(value, what: str) -> list[str]:
    """`value` itself, once it is checked to be a list of strings."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {type(value).__name__}")
    for item in value:
        if not isinstance(item, str):
            _string(item, f"{what} entry")
    return value


def _json_strings(values: Iterable[str], pad: str) -> str:
    """A JSON string array as `json.dumps(indent=2)` prints it at indent `pad`."""
    items = f",\n{pad}  ".join(map(_quote, values))
    return f"[\n{pad}  {items}\n{pad}]" if items else "[]"


def _json_records(records: list[str], pad: str) -> str:
    """A JSON array of objects already printed one level below `pad`."""
    return ("[\n" + ",\n".join(records) + f"\n{pad}]") if records else "[]"


# -- Petri nets ------------------------------------------------------------


_PLACE_KEYS = {"id"}
_TRANSITION_KEYS = {"id", "src", "tgt"}


def parse_net(data: bytes | str) -> PetriNet:
    """Read a net document in the format `detect_format` finds."""
    if detect_format(data) == "xml":
        return _net_from_xml(data)
    return _net_from_json(data)


def _net_from_xml(data: bytes | str) -> PetriNet:
    root = _xml_root(data, "petrinet")
    (name,) = _attrs(root, ("name",))
    _reject_text(root)
    net = PetriNet(name)
    add_place, add_transition = net.add_place, net.add_transition
    # an element's attributes are read directly once their names fit;
    # `_attrs` runs only to raise its message
    for elem in root:
        tag, attrib = elem.tag, elem.attrib
        if tag == "place":
            if attrib.keys() != _PLACE_KEYS:
                _attrs(elem, ("id",))
            if len(elem):
                raise ParseError("element <place> cannot contain child elements")
            add_place(attrib["id"])
        elif tag == "transition":
            if attrib.keys() != _TRANSITION_KEYS:
                _attrs(elem, ("id", "src", "tgt"))
            if len(elem):
                raise ParseError("element <transition> cannot contain child elements")
            add_transition(attrib["id"], attrib["src"].split(), attrib["tgt"].split())
        else:
            raise ParseError(f"unexpected element <{tag}> inside <petrinet>")
    return net


def _net_from_json(data: bytes | str) -> PetriNet:
    obj = _json_document(data)
    name, places, transitions = _json_object(
        obj, "net document", ("name", "places", "transitions")
    )
    net = PetriNet(_string(name, "net name"))
    if not isinstance(places, list):
        raise ParseError("'places' must be a list")
    for entry in places:
        pid = _json_object(entry, "place", ("id",))
        net.add_place(_string(pid, "place id"))
    if not isinstance(transitions, list):
        raise ParseError("'transitions' must be a list")
    for entry in transitions:
        tid, src, tgt = _json_object(entry, "transition", ("id", "src", "tgt"))
        net.add_transition(
            _string(tid, "transition id"), _string_list(src, "'src'"), _string_list(tgt, "'tgt'")
        )
    return net


def write_net(net: PetriNet, format: str = "xml") -> bytes:
    """Serialize a net; refuses nets with structural violations."""
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}, expected one of {FORMATS}")
    try:
        data = _net_to_xml(net) if format == "xml" else _net_to_json(net)
    except (ModelError, TypeError):
        # a structural violation outranks any id; then an id `check_id`
        # refuses, or one that is no string (TypeError), outranks any other
        # fault: raise the first such id in document order
        error = invalid_net(net)
        if error.violations:
            raise error from None
        for place in net.places.values():
            check_id("place", place.id)
        for transition in net.transitions.values():
            check_id("transition", transition.id)
        raise
    if data is None:
        raise invalid_net(net)
    return data


def _sound_transition(tid: str, transition, members: set) -> bool:
    """Whether *transition*, stored under *tid*, passes `check_net`: its
    id is its key and both sides are nonempty sets of *members*."""
    src, tgt = transition.preset, transition.postset
    if transition.id != tid or not src or not tgt:
        return False
    return members.issuperset(src) and members.issuperset(tgt)


def _net_to_xml(net: PetriNet) -> bytes | None:
    """The net as XML, or None at the first fault `check_net` reports."""
    lines = [f"<petrinet name={_xml_attr(net.name)}>"]
    members = set()
    for pid, place in net.places.items():
        if place.id != pid:
            return None
        members.add(place)
        lines.append(f"  <place id={_xml_id('place', place.id)}/>")
    for tid, t in net.transitions.items():
        if not _sound_transition(tid, t, members):
            return None
        src = " ".join(p.id for p in t.preset)
        tgt = " ".join(p.id for p in t.postset)
        lines.append(
            f"  <transition id={_xml_id('transition', t.id)} src={_xml_attr(src)}"
            f" tgt={_xml_attr(tgt)}/>"
        )
    lines.append("</petrinet>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _net_to_json(net: PetriNet) -> bytes | None:
    """The net as JSON, or None at the first fault `check_net` reports."""
    places, members = [], set()
    for pid, place in net.places.items():
        if place.id != pid:
            return None
        members.add(place)
        places.append(f'    {{\n      "id": {_quote(check_id("place", place.id))}\n    }}')
    transitions = []
    for tid, t in net.transitions.items():
        if not _sound_transition(tid, t, members):
            return None
        transitions.append(
            f'    {{\n      "id": {_quote(check_id("transition", t.id))},\n'
            f'      "src": {_json_strings((p.id for p in t.preset), "      ")},\n'
            f'      "tgt": {_json_strings((p.id for p in t.postset), "      ")}\n    }}'
        )
    return (
        f'{{\n  "name": {_quote(net.name)},\n'
        f'  "places": {_json_records(places, "  ")},\n'
        f'  "transitions": {_json_records(transitions, "  ")}\n}}\n'
    ).encode("utf-8")


# -- statecharts -----------------------------------------------------------


def parse_chart(data: bytes | str) -> StateChart:
    """Read a chart document in the format `detect_format` finds; raises
    on any well-formedness violation."""
    read = _chart_document_from_xml if detect_format(data) == "xml" else _json_document
    return _chart_from_document(read(data))


def _invalid_chart(chart: StateChart) -> ValidationError:
    """The error that refuses *chart*, carrying `validate_chart`'s list.

    The chart reader and writers flag a fault inline, in the walk they
    already make, and build this error only to raise it."""
    return ValidationError(f"chart {chart.name!r} is not well formed", validate_chart(chart))


def _chart_document_from_xml(data: bytes | str) -> dict:
    """The object `json.loads` gives for the same chart written as JSON;
    checks the XML syntax only and leaves the model to the builder."""
    root = _xml_root(data, "statechart")
    (name,) = _attrs(root, ("name",))
    _reject_text(root)
    children = list(root)
    if not children or children[0].tag not in ("and", "or", "basic"):
        raise ParseError("<statechart> must start with its topstate element")
    for elem in children[1:]:
        if elem.tag != "hyperedge":
            raise ParseError(
                f"unexpected element <{elem.tag}> after the topstate (want <hyperedge>)"
            )

    top: list[dict] = []
    # explicit stack: containment can nest deeper than Python's recursion cap
    stack: list[tuple[ET.Element, list[dict]]] = [(children[0], top)]
    while stack:
        elem, siblings = stack.pop()
        _reject_text(elem)
        if elem.tag == "basic":
            node_id, place = _attrs(elem, ("id", "place"))
            if len(elem):
                raise ParseError("element <basic> cannot contain child elements")
            siblings.append({"kind": "basic", "id": node_id, "place": place})
        elif elem.tag in ("or", "and"):
            (node_id,) = _attrs(elem, ("id",))
            state = {"kind": elem.tag, "id": node_id, "children": []}
            siblings.append(state)
            stack.extend((child, state["children"]) for child in reversed(elem))
        else:
            raise ParseError(f"unexpected element <{elem.tag}> in a state tree")

    hyperedges = []
    for elem in children[1:]:
        edge_id, transition, src, tgt = _attrs(elem, ("id", "transition", "src", "tgt"))
        if len(elem):
            raise ParseError("element <hyperedge> cannot contain child elements")
        _reject_text(elem)
        hyperedges.append(
            {"id": edge_id, "transition": transition, "src": src.split(), "tgt": tgt.split()}
        )
    return {"name": name, "topstate": top[0], "hyperedges": hyperedges}


def _resolve_endpoints(
    edge_id: str, ids: list[str], basics: dict[str, Basic | None]
) -> list[Basic]:
    """The states *ids* name; *basics* maps the id of every state read to
    that state when it is basic, else to None."""
    endpoints = list(map(basics.get, ids))
    if None in endpoints:
        for node_id, node in zip(ids, endpoints):
            if node is None:
                if node_id in basics:
                    raise PreconditionError(
                        f"hyperedge {edge_id!r}: endpoint {node_id!r} is not a basic state"
                    )
                raise MembershipError(f"hyperedge {edge_id!r}: unknown state {node_id!r}")
    return endpoints


def _chart_from_document(obj) -> StateChart:
    """Build the chart a parsed JSON chart document, or its XML
    translation, describes; checks ids, tree shape and endpoints.

    Building raises on a bad id, an alternation breach or a bad endpoint.
    The faults only `validate_chart` reports (a topstate that is no AND
    state, too few children, a repeated node or hyperedge id, an empty
    side) are flagged as the chart is built, and `validate_chart` runs
    only when one is, to raise its list once the whole document is read.
    """
    name, topstate, hyperedges = _json_object(
        obj, "chart document", ("name", "topstate", "hyperedges")
    )
    chart = StateChart(_string(name, "chart name"))
    # each id read, mapped to its last state when that is basic, else None
    basics: dict[str, Basic | None] = {}
    nodes, sound = 0, True
    # explicit stack of (state object, parent); the topstate has none.
    # An id is tested once, and `_string`/`check_id` run only to raise
    stack: list[tuple[object, Node | None]] = [(topstate, None)]
    while stack:
        entry, parent = stack.pop()
        if not isinstance(entry, dict):
            raise ParseError(f"state must be an object, got {type(entry).__name__}")
        kind = entry.get("kind")
        if kind == "basic":
            _, node_id, place = _json_object(entry, "basic state", ("kind", "id", "place"))
            if not (type(node_id) is str and _ID.fullmatch(node_id)):
                check_id("state", _string(node_id, "state id"))
            if not (type(place) is str and _ID.fullmatch(place)):
                check_id("place", _string(place, "'place'"))
            node = Basic(node_id, place)
            basics[node_id] = node
        else:
            if kind == "or":
                cls, what = OrState, "or state"
            elif kind == "and":
                cls, what = AndState, "and state"
            else:
                raise ParseError(f"state 'kind' must be 'basic', 'or' or 'and', got {kind!r}")
            _, node_id, children = _json_object(entry, what, ("kind", "id", "children"))
            if not isinstance(children, list):
                raise ParseError("'children' must be a list")
            if not (type(node_id) is str and _ID.fullmatch(node_id)):
                check_id("state", _string(node_id, "state id"))
            node = cls(node_id)
            basics[node_id] = None
            # an AND state below the topstate needs two children
            if len(children) < (2 if cls is AndState and parent is not None else 1):
                sound = False
            stack.extend(zip(reversed(children), repeat(node)))
        nodes += 1
        if parent is None:
            chart.topstate = node  # type: ignore[assignment]
            if type(node) is not AndState:
                sound = False
        elif (type(node) is OrState) is (type(parent) is AndState):
            # the nodes are fresh, so a child of the right kind is linked
            # directly; `attach` raises the TreeError of any other
            node.parent = parent
            parent.children[node] = None
        else:
            parent.attach(node)
    if len(basics) != nodes:  # a repeated node id
        sound = False

    if not isinstance(hyperedges, list):
        raise ParseError("'hyperedges' must be a list")
    edges = chart.hyperedges
    for entry in hyperedges:
        edge_id, transition, src, tgt = _json_object(
            entry, "hyperedge", ("id", "transition", "src", "tgt")
        )
        if not (type(edge_id) is str and _ID.fullmatch(edge_id)):
            check_id("hyperedge", _string(edge_id, "hyperedge id"))
        if not (type(transition) is str and _ID.fullmatch(transition)):
            check_id("transition", _string(transition, "'transition'"))
        edge = HyperEdge(edge_id, transition)
        edge.sources = _resolve_endpoints(edge_id, _string_list(src, "'src'"), basics)
        edge.targets = _resolve_endpoints(edge_id, _string_list(tgt, "'tgt'"), basics)
        if not (edge.sources and edge.targets):
            sound = False
        edges.append(edge)
    if not sound or len({edge.id for edge in edges}) != len(edges):
        raise _invalid_chart(chart)
    return chart


def write_chart(chart: StateChart, format: str = "xml") -> bytes:
    """Serialize a chart; refuses invalid charts and ids its reader refuses.

    The writers check what `validate_chart` checks as they walk the
    chart, and stop at the first fault; `validate_chart` then runs only
    to raise its list."""
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}, expected one of {FORMATS}")
    top = chart.topstate
    if not isinstance(top, AndState) or top.parent is not None:
        raise _invalid_chart(chart)
    try:
        data = _chart_to_xml(chart, top) if format == "xml" else _chart_to_json(chart, top)
    except (ModelError, TypeError):
        # a well-formedness violation outranks any id; then an id
        # `check_id` refuses, or one that is no string (TypeError),
        # outranks any other fault: raise the first such id in document order
        error = _invalid_chart(chart)
        if error.violations:
            raise error from None
        for node in chart.states():
            check_id("state", node.id)
            if isinstance(node, Basic):
                check_id("place", node.origin_place)
        for edge in chart.hyperedges:
            check_id("hyperedge", edge.id)
            check_id("transition", edge.origin_transition)
        raise
    if data is None:
        raise _invalid_chart(chart)
    return data


def _misplaced_children(node: OrState | AndState, children, top: AndState) -> bool:
    """Whether the *children* of *node* break a rule `validate_chart`
    checks: too few of them, one of the wrong kind, or one whose parent
    link points elsewhere. The links also keep the writers' walks from
    reaching any node twice."""
    if isinstance(node, AndState):
        if len(children) < (1 if node is top else 2):
            return True
        for child in children:
            if child.parent is not node or not isinstance(child, OrState):
                return True
    else:
        if not children:
            return True
        for child in children:
            if child.parent is not node or isinstance(child, OrState):
                return True
    return False


def _sound_edges(edges: list[HyperEdge], basics: set[Basic]) -> bool:
    """Whether *edges* pass `validate_chart`: distinct ids, and nonempty
    sides of *basics*, the basic states of the tree."""
    for edge in edges:
        sources, targets = edge.sources, edge.targets
        if not (sources and targets and basics.issuperset(sources)
                and basics.issuperset(targets)):
            return False
    return len({edge.id for edge in edges}) == len(edges)


def _chart_to_xml(chart: StateChart, top: AndState) -> bytes | None:
    """The chart under its root *top* as XML, or None at the first fault
    `validate_chart` reports."""
    lines = [f"<statechart name={_xml_attr(chart.name)}>"]
    ids: set[str] = set()
    basics: set[Basic] = set()
    nodes = 1
    # explicit stack: containment can nest deeper than Python's recursion cap
    stack: list[tuple[Node, int, bool]] = [(top, 1, False)]
    while stack:
        node, depth, closing = stack.pop()
        pad = "  " * depth
        if closing:
            lines.append(f"{pad}</{'and' if isinstance(node, AndState) else 'or'}>")
            continue
        ids.add(node.id)
        if isinstance(node, Basic):
            basics.add(node)
            lines.append(
                f"{pad}<basic id={_xml_id('state', node.id)}"
                f" place={_xml_id('place', node.origin_place)}/>"
            )
            continue
        children = node.children
        if _misplaced_children(node, children, top):
            return None
        nodes += len(children)
        tag = "and" if isinstance(node, AndState) else "or"
        lines.append(f"{pad}<{tag} id={_xml_id('state', node.id)}>")
        stack.append((node, depth, True))
        for child in reversed(children):
            stack.append((child, depth + 1, False))
    edges = chart.hyperedges
    if len(ids) != nodes or not _sound_edges(edges, basics):
        return None
    del ids, basics  # not held while the document is joined
    for edge in edges:
        src = " ".join(b.id for b in edge.sources)
        tgt = " ".join(b.id for b in edge.targets)
        lines.append(
            f"  <hyperedge id={_xml_id('hyperedge', edge.id)}"
            f" transition={_xml_id('transition', edge.origin_transition)}"
            f" src={_xml_attr(src)} tgt={_xml_attr(tgt)}/>"
        )
    lines.append("</statechart>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _chart_to_json(chart: StateChart, top: AndState) -> bytes | None:
    """The chart under its root *top* as JSON, or None at the first fault
    `validate_chart` reports."""
    # pieces go straight into one buffer: the document is never held both
    # as pieces and as their join, which a deep chart's indentation makes large
    out = io.BytesIO()
    emit = out.write
    emit(f'{{\n  "name": {_quote(chart.name)},\n  "topstate": '.encode())
    ids: set[str] = set()
    basics: set[Basic] = set()
    nodes = 1
    # explicit stack of (state, indent level of its braces) and literal
    # text: containment can nest deeper than Python's recursion cap
    stack: list[tuple[Node, int] | bytes] = [(top, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, bytes):
            emit(item)
            continue
        node, level = item
        pad = "  " * level
        ids.add(node.id)
        if isinstance(node, Basic):
            basics.add(node)
            emit(
                f'{{\n{pad}  "kind": "basic",\n{pad}  "id": {_quote(check_id("state", node.id))},\n'
                f'{pad}  "place": {_quote(check_id("place", node.origin_place))}\n{pad}}}'.encode()
            )
            continue
        children = list(node.children)
        if _misplaced_children(node, children, top):
            return None
        nodes += len(children)
        kind = "and" if isinstance(node, AndState) else "or"
        emit(
            f'{{\n{pad}  "kind": "{kind}",\n{pad}  "id": {_quote(check_id("state", node.id))},\n'
            f'{pad}  "children": [\n{pad}    '.encode()
        )
        stack.append(f"\n{pad}  ]\n{pad}}}".encode())
        separator = f",\n{pad}    ".encode()
        for index in range(len(children) - 1, 0, -1):
            stack.append((children[index], level + 2))
            stack.append(separator)
        stack.append((children[0], level + 2))
    edges = chart.hyperedges
    if len(ids) != nodes or not _sound_edges(edges, basics):
        return None
    del ids, basics  # not held while the document is copied out
    records = [
        f'    {{\n      "id": {_quote(check_id("hyperedge", edge.id))},\n'
        f'      "transition": {_quote(check_id("transition", edge.origin_transition))},\n'
        f'      "src": {_json_strings((b.id for b in edge.sources), "      ")},\n'
        f'      "tgt": {_json_strings((b.id for b in edge.targets), "      ")}\n'
        "    }"
        for edge in edges
    ]
    emit(f',\n  "hyperedges": {_json_records(records, "  ")}\n}}\n'.encode())
    return out.getvalue()


# -- traces ----------------------------------------------------------------


def parse_trace(data: bytes | str) -> list[TraceEntry]:
    """Read a trace document (JSON array of rule/input/output records)."""
    obj = _json_document(data)
    if not isinstance(obj, list):
        raise ParseError("trace document must be a JSON array")
    entries = []
    for record in obj:
        rule, input_id, output_id = _json_object(
            record, "trace entry", ("rule", "input", "output")
        )
        entries.append(
            TraceEntry(
                rule=_string(rule, "'rule'"),
                input=_string(input_id, "'input'"),
                output=_string(output_id, "'output'"),
            )
        )
    return entries


def write_trace(entries: Iterable[TraceEntry]) -> bytes:
    """Serialize trace entries as a JSON array sorted by (rule, input);
    entries equal in both follow output order, though no pass records such
    a pair."""
    records = [
        f'  {{\n    "rule": {_quote(rule)},\n    "input": {_quote(input_id)},\n'
        f'    "output": {_quote(output)}\n  }}'
        for rule, input_id, output in sorted(entries)
    ]
    return (_json_records(records, "") + "\n").encode("utf-8")
