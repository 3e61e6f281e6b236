"""Deterministic document IO for nets, charts and traces.

Two self-contained formats per model: XML and a JSON mirror; a parser
reads the one that the document's first character names.  Writers
emit UTF-8 bytes with LF line endings, two-space indentation and a
fixed attribute order, so equal models produce identical bytes.
The chart writers walk the tree with an explicit stack, so any nesting
depth writes: the XML one keeps an iterator over the children of each
open composite, the JSON one a stack of nodes and literal text.  The
JSON writers emit their text directly and produce the bytes of
`json.dumps(doc, indent=2)` plus a newline.  Parsers are strict:
unknown elements, attributes or keys, and text inside or between XML
elements, are syntax errors; semantic problems (duplicate ids,
dangling references, empty transition sides) raise model errors
naming the offending id.  The XML chart reader only
translates its document into what `json.loads` gives for the same chart
in JSON, and one builder makes the chart from either.  The chart builder
and the chart writers check well-formedness in the walk they make anyway
and run `validate_chart` only to raise its list; `write_net` runs
`check_net` once, before it prints.

Ids must be nonempty and free of whitespace because the XML documents
carry space-separated id lists; the readers refuse other ids and the
writers refuse to print them.  The readers and the writers collect the
ids they read or print and test them together, once per document, on
their join: C-level scans test an ASCII join, a split any other
(`net._joined_ids`).  The readers build the model in one fast walk
that stops at any fault.  The XML net reader walks the document text:
one regular expression matches the layout `write_net` prints and
another finds its elements, so no tree is built; the XML chart reader
tests its whole tree at once for text.  Only a document that walk or
the id test refuses is walked again, with each element and id checked
on its own, to name the first fault; the net readers then build
through `add_place` and `add_transition`.  So an XML net in any other
layout, with a comment or an entity say, is parsed by ElementTree and
still reads, strictly.  A writer names the first id `check_id` refuses, in document order, only
once the test has refused one, and the XML chart writer walks again
only to escape an id that needs it.  A model violation outranks a
refused id, which outranks any other fault of a written document, such
as a character XML cannot carry.
"""

from __future__ import annotations

import io
import json
import re
import xml.etree.ElementTree as ET
from json.encoder import encode_basestring_ascii as _quote
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import Iterable

from .chart import AndState, Basic, HyperEdge, Node, OrState, StateChart
from .chart import _id_of, child_faults, edge_faults, validate_chart
from .errors import (
    MembershipError,
    ModelError,
    ParseError,
    PreconditionError,
    TreeError,
    ValidationError,
)
from .net import PetriNet, _collector_paused, _joined_ids, _valid_ids
from .net import check_id, check_net
from .pipeline import TraceEntry

FORMATS = ("xml", "json")

# the characters XML 1.0's Char production leaves out
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# what `_xml_attr` cannot copy verbatim: what `_NOT_XML_CHAR` refuses, the
# tab, line feed and carriage return a reader would turn into spaces, & < > "
_XML_ATTR_SPECIAL = re.compile('[\x00-\x1f&<>"\ud800-\udfff\ufffe\uffff]')


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


@_collector_paused
def parse_net(data: bytes | str) -> PetriNet:
    """Read a net document in the format `detect_format` finds."""
    if detect_format(data) == "xml":
        return _net_from_xml(data)
    return _net_from_json(data)


def _net_from_xml(data: bytes | str) -> PetriNet:
    net = _net_from_text(data)
    if net is None:  # another layout, or a fault: the strict walk names it
        net = _net_from_tree_strictly(_xml_root(data, "petrinet"))
    return net


# an attribute value XML returns verbatim, as `_xml_attr` prints it: none
# of the characters `_XML_ATTR_SPECIAL` names, so no entity, no tab, line
# feed or carriage return to normalize, no character XML refuses, no `"`
_VERBATIM = "[^" + _XML_ATTR_SPECIAL.pattern[1:] + "*"
# a net document in the layout `write_net` prints, an XML declaration
# naming UTF-8 allowed; no value admits the `"` that ends it, so each
# element has one parse, and a match or a failed one takes linear time
_NET_LAYOUT = re.compile(
    f'(?:<\\?xml version="1\\.0" encoding="UTF-8"\\?>)?[ \t\r\n]*<petrinet name="({_VERBATIM})">'
    f'(?:[ \t\r\n]*(?:<place id="{_VERBATIM}"/>'
    f'|<transition id="{_VERBATIM}" src="{_VERBATIM}" tgt="{_VERBATIM}"/>))*'
    "[ \t\r\n]*</petrinet>[ \t\r\n]*"
)
# the elements of such a document: (place id, "", "", "") for a place,
# ("", transition id, src, tgt) for a transition
_NET_ELEMENT = re.compile(
    f'<place id="({_VERBATIM})"/>'
    f'|<transition id="({_VERBATIM})" src="({_VERBATIM})" tgt="({_VERBATIM})"/>'
)


def _net_from_text(data: bytes | str) -> PetriNet | None:
    """The net an XML net document in `write_net`'s layout describes, read
    from its text; None for any other document, or at a fault.

    A UTF-8 document that `_NET_LAYOUT` matches holds the values
    ElementTree would read and only whitespace between its elements, so
    one `findall` finds them, and each is built straight into the net; a
    transition's sides must name places read before it, and an element
    with no transition id is built as a place, whose empty id the id test
    refuses.  A side that is a place key is that one place, found in one
    lookup; only a side the lookup misses is split, and goes straight
    into its dict, where an unknown place fails the subset test against
    the net's places.  A key holding whitespace could match a side that
    names several places, but the ids are tested at the end, in one
    `_valid_ids` call, which refuses such a key and so sends the document
    to the strict walk.  A repeated id leaves fewer places and
    transitions than elements."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    layout = _NET_LAYOUT.fullmatch(data)
    if layout is None:
        return None
    elements = _NET_ELEMENT.findall(data)
    net = PetriNet(layout.group(1))
    places, transitions = net.places, net.transitions
    known = places.keys()
    for pid, tid, src, tgt in elements:
        if not tid:
            places[pid] = None
            continue
        pre = {src: None} if src in places else dict.fromkeys(src.split())
        post = {tgt: None} if tgt in places else dict.fromkeys(tgt.split())
        if not (pre and post and pre.keys() <= known and post.keys() <= known):
            return None
        transitions[tid] = pre, post
    if len(places) + len(transitions) != len(elements) or not _valid_ids([*places, *transitions]):
        return None
    return net


def _net_from_tree_strictly(root: ET.Element) -> PetriNet:
    """The net the `<petrinet>` element *root* describes, read element by
    element through `add_place` and `add_transition`; raises the
    document's first fault."""
    (name,) = _attrs(root, ("name",))
    _reject_text(root)
    net = PetriNet(name)
    for elem in root:
        if elem.tag == "place":
            (pid,) = _attrs(elem, ("id",))
            _reject_inner(elem)
            net.add_place(pid)
        elif elem.tag == "transition":
            tid, src, tgt = _attrs(elem, ("id", "src", "tgt"))
            _reject_inner(elem)
            net.add_transition(tid, src.split(), tgt.split())
        else:
            raise ParseError(f"unexpected element <{elem.tag}> inside <petrinet>")
    return net


def _reject_inner(elem: ET.Element) -> None:
    """Refuse a child element or text inside *elem*, an element that is
    a leaf of its document."""
    if len(elem):
        raise ParseError(f"element <{elem.tag}> cannot contain child elements")
    _reject_text(elem)


# the values of a transition entry of a JSON net, in order; the id of a
# place entry
_TRANSITION_ENTRY = itemgetter("id", "src", "tgt")
_PLACE_ENTRY = itemgetter("id")


def _net_from_json(data: bytes | str) -> PetriNet:
    obj = _json_document(data)
    try:
        net = _net_from_object(obj)
    except Exception:  # any fault stops the fast walk; the strict one names it
        net = None
    return _net_from_object_strictly(obj) if net is None else net


def _net_from_object(obj) -> PetriNet | None:
    """The net a parsed JSON net document describes, or None at a fault;
    builds it in one walk and tests its ids once, as `_net_from_text` does."""
    name, place_entries, transition_entries = _json_object(
        obj, "net document", ("name", "places", "transitions")
    )
    if (type(name) is not str or type(place_entries) is not list
            or type(transition_entries) is not list):
        return None
    net = PetriNet(name)
    places, transitions = net.places, net.transitions
    known = places.keys()
    # each entry is an object with an id, and with nothing else when the
    # lengths of all entries add up to their count
    pids = list(map(_PLACE_ENTRY, place_entries))
    if sum(map(len, place_entries)) != len(pids):
        return None
    places.update(dict.fromkeys(pids))
    for entry in transition_entries:
        tid, src, tgt = _TRANSITION_ENTRY(entry)
        if len(entry) != 3 or type(src) is not list or type(tgt) is not list:
            return None
        # a one-place side skips the call to `dict.fromkeys`
        pre = {src[0]: None} if len(src) == 1 else dict.fromkeys(src)
        post = {tgt[0]: None} if len(tgt) == 1 else dict.fromkeys(tgt)
        if not (pre and post and pre.keys() <= known and post.keys() <= known):
            return None
        transitions[tid] = pre, post
    if (len(places) + len(transitions) != len(pids) + len(transition_entries)
            or not _valid_ids([*places, *transitions])):
        return None
    return net


def _net_from_object_strictly(obj) -> PetriNet:
    """The net a parsed JSON net document describes, read entry by entry
    through `add_place` and `add_transition`; raises its first fault."""
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


@_collector_paused
def write_net(net: PetriNet, format: str = "xml") -> bytes:
    """Serialize a net; refuses nets with structural violations, then ids
    its reader refuses, then, in XML, a character XML cannot carry."""
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}, expected one of {FORMATS}")
    violations = check_net(net)
    if violations:
        raise ValidationError(f"net {net.name!r} is not well formed", violations)
    # every key is now its element's id: test them together, and only on
    # a refusal name the first in document order
    if not _valid_ids([*net.places, *net.transitions]):
        for pid in net.places:
            check_id("place", pid)
        for tid in net.transitions:
            check_id("transition", tid)
    return _net_to_xml(net) if format == "xml" else _net_to_json(net)


def _net_to_xml(net: PetriNet) -> bytes:
    """The net as XML, once `write_net` has checked it."""
    lines = [f"<petrinet name={_xml_attr(net.name)}>"]
    lines += [f"  <place id={_xml_attr(pid)}/>" for pid in net.places]
    for tid, (pre, post) in net.transitions.items():
        src = " ".join(pre)
        tgt = " ".join(post)
        lines.append(
            f"  <transition id={_xml_attr(tid)} src={_xml_attr(src)} tgt={_xml_attr(tgt)}/>"
        )
    lines.append("</petrinet>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _net_to_json(net: PetriNet) -> bytes:
    """The net as JSON, once `write_net` has checked it."""
    places = [f'    {{\n      "id": {_quote(pid)}\n    }}' for pid in net.places]
    transitions = [
        f'    {{\n      "id": {_quote(tid)},\n'
        f'      "src": {_json_strings(pre, "      ")},\n'
        f'      "tgt": {_json_strings(post, "      ")}\n    }}'
        for tid, (pre, post) in net.transitions.items()
    ]
    return (
        f'{{\n  "name": {_quote(net.name)},\n'
        f'  "places": {_json_records(places, "  ")},\n'
        f'  "transitions": {_json_records(transitions, "  ")}\n}}\n'
    ).encode("utf-8")


# -- statecharts -----------------------------------------------------------


@_collector_paused
def parse_chart(data: bytes | str) -> StateChart:
    """Read a chart document in the format `detect_format` finds; raises
    on any well-formedness violation."""
    read = _chart_document_from_xml if detect_format(data) == "xml" else _json_document
    document = read(data)
    try:
        chart = _chart_from_document(document)
    except Exception:  # any fault stops the fast walk; the strict one names it
        chart = None
    if chart is None:
        chart = _chart_from_document(document, strict=True)
    return chart


def _invalid_chart(chart: StateChart) -> ValidationError:
    """The error that refuses *chart*, carrying `validate_chart`'s list.

    The chart reader and writers flag a fault inline, in the walk they
    already make, and build this error only to raise it, in the `raise`
    statement, as `invalid_net` says."""
    return ValidationError(f"chart {chart.name!r} is not well formed", validate_chart(chart))


def _chart_document_from_xml(data: bytes | str) -> dict:
    """The object `json.loads` gives for the same chart written as JSON;
    checks the XML syntax only and leaves the model to the builder.

    One test over the whole tree finds any text but whitespace; only
    when it does is each element tested on its own, in the walk, so
    that the first fault in document order is the one named."""
    root = _xml_root(data, "statechart")
    (name,) = _attrs(root, ("name",))
    texts = bool("".join(root.itertext()).strip())
    if texts:
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
        if texts:
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
        if texts:
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


# the values of a state or hyperedge entry of a chart document, in order
_BASIC_ENTRY = itemgetter("kind", "id", "place")
_COMPOSITE_ENTRY = itemgetter("kind", "id", "children")
_EDGE_ENTRY = itemgetter("id", "transition", "src", "tgt")


def _chart_from_document(obj, strict: bool = False) -> StateChart | None:
    """Build the chart a parsed JSON chart document, or its XML
    translation, describes; checks ids, tree shape and endpoints.

    The default, fast walk reads each entry at once and tests every id
    it reads in one go at the end.  It returns None, or raises anything,
    on any fault, and `parse_chart` then walks again with *strict* set,
    which checks each entry and id on its own and raises the document's
    first fault: a bad id, key or value, an alternation breach or a bad
    endpoint.  The faults only `validate_chart` reports (a topstate that
    is no AND state, too few children, a repeated node or hyperedge id,
    an empty side) are flagged as the chart is built, and the strict
    walk runs `validate_chart` only when one is, to raise its list once
    the whole document is read.
    """
    name, topstate, hyperedges = _json_object(
        obj, "chart document", ("name", "topstate", "hyperedges")
    )
    chart = StateChart(_string(name, "chart name"))
    # each id read, mapped to its last state when that is basic, else None
    basics: dict[str, Basic | None] = {}
    read: list[str] = []  # the ids a fast walk reads
    nodes, sound = 0, True
    # explicit stack of (state object, its container); the topstate has none
    stack: list[tuple[object, Node | None]] = [(topstate, None)]
    while stack:
        entry, container = stack.pop()
        if not isinstance(entry, dict):
            raise ParseError(f"state must be an object, got {type(entry).__name__}")
        kind = entry.get("kind")
        if kind == "basic":
            if strict:
                _, node_id, place = _json_object(entry, "basic state", ("kind", "id", "place"))
                check_id("state", _string(node_id, "state id"))
                check_id("place", _string(place, "'place'"))
            elif len(entry) == 3:
                _, node_id, place = _BASIC_ENTRY(entry)
                read += node_id, place
            else:
                return None
            node = Basic(node_id, place)
            basics[node_id] = node
        else:
            if kind == "or":
                cls, what = OrState, "or state"
            elif kind == "and":
                cls, what = AndState, "and state"
            else:
                raise ParseError(f"state 'kind' must be 'basic', 'or' or 'and', got {kind!r}")
            if strict:
                _, node_id, children = _json_object(entry, what, ("kind", "id", "children"))
            elif len(entry) == 3:
                _, node_id, children = _COMPOSITE_ENTRY(entry)
                read.append(node_id)
            else:
                return None
            if not isinstance(children, list):
                raise ParseError("'children' must be a list")
            if strict:
                check_id("state", _string(node_id, "state id"))
            node = cls(node_id)
            basics[node_id] = None
            # an AND state below the topstate needs two children
            if len(children) < (2 if cls is AndState and container is not None else 1):
                sound = False
            stack.extend(zip(reversed(children), repeat(node)))
        nodes += 1
        if container is None:
            chart.topstate = node  # type: ignore[assignment]
            if type(node) is not AndState:
                sound = False
        elif (type(node) is OrState) is (type(container) is AndState):
            container.children[node] = None
        elif type(container) is AndState:
            raise TreeError(f"AND state {container.id!r} can only contain OR states")
        else:
            raise TreeError(f"OR state {container.id!r} can only contain Basic or AND states")
    if len(basics) != nodes:  # a repeated node id
        sound = False

    if not isinstance(hyperedges, list):
        raise ParseError("'hyperedges' must be a list")
    edges = chart.hyperedges
    get = basics.get
    for entry in hyperedges:
        if strict:
            edge_id, transition, src, tgt = _json_object(
                entry, "hyperedge", ("id", "transition", "src", "tgt")
            )
            check_id("hyperedge", _string(edge_id, "hyperedge id"))
            check_id("transition", _string(transition, "'transition'"))
            edge = HyperEdge(edge_id, transition)
            edge.sources = _resolve_endpoints(edge_id, _string_list(src, "'src'"), basics)
            edge.targets = _resolve_endpoints(edge_id, _string_list(tgt, "'tgt'"), basics)
        else:
            edge_id, transition, src, tgt = _EDGE_ENTRY(entry)
            if len(entry) != 4 or type(src) is not list or type(tgt) is not list:
                return None
            read += edge_id, transition
            edge = HyperEdge(edge_id, transition)
            # a one-endpoint side is one lookup
            edge.sources = [get(src[0])] if len(src) == 1 else list(map(get, src))
            edge.targets = [get(tgt[0])] if len(tgt) == 1 else list(map(get, tgt))
            if None in edge.sources or None in edge.targets:
                return None
        if not (edge.sources and edge.targets):
            sound = False
        edges.append(edge)
    if not sound or len({edge.id for edge in edges}) != len(edges):
        if strict:
            raise _invalid_chart(chart)
        return None
    return chart if strict or _valid_ids(read) else None


@_collector_paused
def write_chart(chart: StateChart, format: str = "xml") -> bytes:
    """Serialize a chart; refuses invalid charts and ids its reader refuses.

    The writers report with `validate_chart`'s own `child_faults` and
    `edge_faults` as they walk the chart, and stop at the first fault;
    `validate_chart` then runs only to raise its list.  They test the
    ids they print together, once the walk is done."""
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}, expected one of {FORMATS}")
    top = chart.topstate
    if not isinstance(top, AndState):
        raise _invalid_chart(chart)
    try:
        data = _chart_to_xml(chart, top) if format == "xml" else _chart_to_json(chart, top)
    except (ModelError, TypeError):
        # a well-formedness violation outranks any id; then an id
        # `check_id` refuses, or one that is no string (TypeError),
        # outranks any other fault: raise the first such id in document order
        if validate_chart(chart):
            raise _invalid_chart(chart) from None
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


# the place of a basic state; the transition of a hyperedge
_place_of = attrgetter("origin_place")
_transition_of = attrgetter("origin_transition")


def _printed_ids(
    chart: StateChart, ids: set[str], basics: set[Basic], edges: list[HyperEdge]
) -> str:
    """The ids a writer of *chart* prints, joined by spaces in no particular
    order: the node ids *ids*, the places of *basics* and each edge's id
    and transition.  Raises when `check_id` would refuse one, tested by
    `_joined_ids`, which gives the join; `write_chart` then names the
    first such id."""
    printed = list(ids)
    printed += map(_place_of, basics)
    printed += map(_id_of, edges)
    printed += map(_transition_of, edges)
    text = _joined_ids(printed)
    if text is None:
        raise PreconditionError(f"chart {chart.name!r} holds an id no reader accepts")
    return text


def _chart_to_xml(chart: StateChart, top: AndState, strict: bool = False) -> bytes | None:
    """The chart under its root *top* as XML, or None at the first fault
    `validate_chart` reports.

    The tree is walked in preorder, children in order, with an explicit
    stack, as containment can nest deeper than Python's recursion cap:
    one iterator over the children of each open composite, with the
    composite's closing tag, so a run of sibling basic states prints
    with no push or pop.  Ids are printed verbatim and tested together
    before the hyperedges are printed, and an id the test refuses raises.
    When one needs escaping, the chart is written again with *strict*
    set, a walk that only escapes: it quotes each id with `_xml_attr`."""
    lines = [f"<statechart name={_xml_attr(chart.name)}>"]
    append = lines.append
    ids: set[str] = {top.id}
    basics: set[Basic] = set()
    violations: list[str] = []
    child_faults(top, top, violations)
    if violations:
        return None
    append(f"  <and id={_xml_attr(top.id)}>" if strict else f'  <and id="{top.id}">')
    stack = [(iter(top.children), "  </and>")]
    pads = ["", "  "]  # the indentation of each depth, made once
    while stack:
        children, closing = stack[-1]
        depth = len(stack) + 1
        if depth == len(pads):
            pads.append(pads[-1] + "  ")
        pad = pads[depth]
        for node in children:
            node_id = node.id
            # a repeated id is a fault, which also stops the walk on a node
            # reached twice, so on a cyclic `children` graph
            if node_id in ids:
                return None
            ids.add(node_id)
            if isinstance(node, Basic):
                basics.add(node)
                if strict:
                    append(
                        f"{pad}<basic id={_xml_attr(node_id)}"
                        f" place={_xml_attr(node.origin_place)}/>"
                    )
                else:
                    append(f'{pad}<basic id="{node_id}" place="{node.origin_place}"/>')
                continue
            child_faults(node, top, violations)
            if violations:
                return None
            tag = "and" if isinstance(node, AndState) else "or"
            append(f"{pad}<{tag} id={_xml_attr(node_id)}>" if strict
                   else f'{pad}<{tag} id="{node_id}">')
            # descend: the loop resumes this iterator once the child closes
            stack.append((iter(node.children), f"{pad}</{tag}>"))
            break
        else:
            stack.pop()
            append(closing)
    edges = chart.hyperedges
    edge_faults(edges, basics, violations)
    if violations:
        return None
    if not strict:
        # the sides list basic states of the tree, so their ids are tested too
        if _XML_ATTR_SPECIAL.search(_printed_ids(chart, ids, basics, edges)):
            return _chart_to_xml(chart, top, strict=True)
    del ids, basics  # not held while the document is joined
    for edge in edges:
        sources, targets = edge.sources, edge.targets
        src = sources[0].id if len(sources) == 1 else " ".join(map(_id_of, sources))
        tgt = targets[0].id if len(targets) == 1 else " ".join(map(_id_of, targets))
        if strict:
            append(
                f"  <hyperedge id={_xml_attr(edge.id)}"
                f" transition={_xml_attr(edge.origin_transition)}"
                f" src={_xml_attr(src)} tgt={_xml_attr(tgt)}/>"
            )
        else:
            append(
                f'  <hyperedge id="{edge.id}" transition="{edge.origin_transition}"'
                f' src="{src}" tgt="{tgt}"/>'
            )
    append("</statechart>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _chart_to_json(chart: StateChart, top: AndState) -> bytes | None:
    """The chart under its root *top* as JSON, or None at the first fault
    `validate_chart` reports; raises when an id it prints is refused."""
    # pieces go straight into one buffer: the document is never held both
    # as pieces and as their join, which a deep chart's indentation makes large
    out = io.BytesIO()
    emit = out.write
    emit(f'{{\n  "name": {_quote(chart.name)},\n  "topstate": '.encode())
    ids: set[str] = set()
    basics: set[Basic] = set()
    violations: list[str] = []
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
        # a repeated id is a fault, as in `_chart_to_xml`
        if node.id in ids:
            return None
        ids.add(node.id)
        if isinstance(node, Basic):
            basics.add(node)
            emit(
                f'{{\n{pad}  "kind": "basic",\n{pad}  "id": {_quote(node.id)},\n'
                f'{pad}  "place": {_quote(node.origin_place)}\n{pad}}}'.encode()
            )
            continue
        child_faults(node, top, violations)
        if violations:
            return None
        children = list(node.children)
        kind = "and" if isinstance(node, AndState) else "or"
        emit(
            f'{{\n{pad}  "kind": "{kind}",\n{pad}  "id": {_quote(node.id)},\n'
            f'{pad}  "children": [\n{pad}    '.encode()
        )
        stack.append(f"\n{pad}  ]\n{pad}}}".encode())
        separator = f",\n{pad}    ".encode()
        for index in range(len(children) - 1, 0, -1):
            stack.append((children[index], level + 2))
            stack.append(separator)
        stack.append((children[0], level + 2))
    edges = chart.hyperedges
    edge_faults(edges, basics, violations)
    if violations:
        return None
    _printed_ids(chart, ids, basics, edges)
    del ids, basics  # not held while the document is copied out
    records = []
    for edge in edges:
        sources, targets = edge.sources, edge.targets
        # a one-endpoint side is printed as `_json_strings` prints it
        src = (f"[\n        {_quote(sources[0].id)}\n      ]" if len(sources) == 1
               else _json_strings(map(_id_of, sources), "      "))
        tgt = (f"[\n        {_quote(targets[0].id)}\n      ]" if len(targets) == 1
               else _json_strings(map(_id_of, targets), "      "))
        records.append(
            f'    {{\n      "id": {_quote(edge.id)},\n'
            f'      "transition": {_quote(edge.origin_transition)},\n'
            f'      "src": {src},\n      "tgt": {tgt}\n    }}'
        )
    emit(f',\n  "hyperedges": {_json_records(records, "  ")}\n}}\n'.encode())
    return out.getvalue()


# -- traces ----------------------------------------------------------------


@_collector_paused
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


@_collector_paused
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
