"""Reference implementations used to cross-check the package.

`oracle_reduce` is a brute-force reducer implementing the same two
reduction rules over plain sets and dicts: every round it re-derives
adjacency from scratch and tries both rules at every transition, in the
net's transition order, until nothing fires.  No worklist, no trace, no
code shared with the package under test; the only common vocabulary is
the canonical signature grammar from `support`.

`reference_validate_chart` is the straightforward form of
`validate_chart`: one dict entry per id, one loop per check, every
endpoint looked up on its own.  It shares only the node classes.

`reference_parse_chart` reads a chart document the straightforward
way: it builds the chart with `check_id` on every id and its own
alternation check on every link, then runs `reference_validate_chart`
over the result.

`reference_write_chart` is the chart writers as they were before they
tested ids once per document: each id is checked, and for XML quoted
with its own `_xml_id`, as it is printed, and its own yes-or-no checks
of child lists and hyperedges stop the walk.  Its `ValidationError`
carries `reference_validate_chart`'s list.  It fixes the bytes,
exceptions, messages and violations that `write_chart` must give.

`reference_add_place`, `reference_add_transition`,
`reference_net_from_xml` and `reference_net_from_json` build nets the
straightforward way: `check_id` on every id, their own membership test
for every side entry, `_attrs` on every element, and their own test for
text inside a place or transition.  They fix the nets, exceptions and
messages, in their precedence, that the package's builders and readers
must give.

What the references still share with the package: the model classes,
the errors, `check_id`, `detect_format` and `FORMATS`, and the document
helpers that read and print text.  To read: `_xml_root`, `_attrs`,
`_reject_text`, `_json_document`, `_json_object`, `_string`,
`_string_list`, `_chart_document_from_xml`, and `_resolve_endpoints`,
the chart reader's lookup of endpoint ids.  To print: `_xml_attr`,
`_json_strings` and `_json_records`.  No reference imports a
rule it restates (`validate_chart`, `check_net`, `child_faults`,
`edge_faults`, `_invalid_chart`), nor reaches a private attribute of
another object; `test_oracle.py` checks both.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from netchart import (
    AndState,
    Basic,
    HyperEdge,
    OrState,
    PetriNet,
    StateChart,
    detect_format,
)
from netchart.errors import (
    DuplicateIdError,
    MembershipError,
    ModelError,
    ParseError,
    PreconditionError,
    TreeError,
    ValidationError,
)
from netchart.formats import (
    FORMATS,
    _attrs,
    _chart_document_from_xml,
    _json_document,
    _json_object,
    _json_records,
    _json_strings,
    _reject_text,
    _resolve_endpoints,
    _string,
    _string_list,
    _xml_attr,
    _xml_root,
)
from netchart.net import check_id


@dataclass
class OracleResult:
    signature: str
    fully_reduced: bool
    remaining_places: int
    remaining_transitions: int
    and_applications: int
    or_applications: int


def _sig(node) -> str:
    kind, payload = node
    if kind == "basic":
        return f"b[{payload}]"
    return f"{kind}(" + ",".join(sorted(_sig(child) for child in payload)) + ")"


def oracle_reduce(
    places: set[str], transitions: dict[str, tuple[frozenset, frozenset]]
) -> OracleResult:
    places = set(places)
    trans = {
        tid: (frozenset(src), frozenset(tgt))
        for tid, (src, tgt) in transitions.items()
    }
    # per surviving place, the child list of its OR grouping
    ors: dict[str, list] = {p: [("basic", p)] for p in places}
    merges = 0
    and_count = 0
    or_count = 0

    def pre(place: str) -> frozenset:
        return frozenset(tid for tid, (_, tgt) in trans.items() if place in tgt)

    def post(place: str) -> frozenset:
        return frozenset(tid for tid, (src, _) in trans.items() if place in src)

    def connected_elsewhere(q: str, p: str, tid: str) -> bool:
        for other, (src, tgt) in trans.items():
            if other == tid:
                continue
            if (q in src and p in tgt) or (p in src and q in tgt):
                return True
        return False

    changed = True
    while changed:
        changed = False
        # sweep in the net's transition order, the order FIFO starts from
        for tid in list(trans):
            if tid not in trans:
                continue
            src, tgt = trans[tid]

            if len(src) == 1 and len(tgt) == 1:
                q = next(iter(src))
                p = next(iter(tgt))
                if q != p and not connected_elsewhere(q, p, tid):
                    del trans[tid]
                    for other in list(trans):
                        s, g = trans[other]
                        if p in s:
                            s = (s - {p}) | {q}
                        if p in g:
                            g = (g - {p}) | {q}
                        trans[other] = (frozenset(s), frozenset(g))
                    places.discard(p)
                    ors[q].extend(ors.pop(p))
                    or_count += 1
                    changed = True
                    continue

            group = src if len(src) >= 2 else tgt if len(tgt) >= 2 else None
            if group is None:
                continue
            if len({(pre(p), post(p)) for p in group}) != 1:
                continue
            if any(pre(p) & post(p) for p in group):
                continue
            fresh = f"bm{merges}"
            merges += 1
            for other in list(trans):
                s, g = trans[other]
                if s & group:
                    s = (s - group) | {fresh}
                if g & group:
                    g = (g - group) | {fresh}
                trans[other] = (frozenset(s), frozenset(g))
            places -= set(group)
            places.add(fresh)
            and_node = ("and", [("or", ors.pop(p)) for p in sorted(group)])
            ors[fresh] = [and_node]
            and_count += 1
            changed = True

    top = "and(" + ",".join(
        sorted("or(" + ",".join(sorted(_sig(c) for c in ors[p])) + ")" for p in places)
    ) + ")"
    return OracleResult(
        signature=top,
        fully_reduced=len(places) == 1 and not trans,
        remaining_places=len(places),
        remaining_transitions=len(trans),
        and_applications=and_count,
        or_applications=or_count,
    )


def reference_validate_chart(chart) -> list[str]:
    """Every well-formedness violation of *chart*, in the order
    `validate_chart` must report them."""
    violations = []
    if chart.topstate is None:
        return [f"chart {chart.name!r}: no topstate"]
    if not isinstance(chart.topstate, AndState):
        violations.append(f"topstate {chart.topstate.id!r} is not an AND state")
        return violations

    seen = {}
    members: set[int] = set()
    stack = [chart.topstate]
    while stack:
        node = stack.pop()
        if id(node) in members:
            violations.append(f"node {node.id!r}: reached twice (containment is not a tree)")
            continue
        members.add(id(node))
        try:
            if node.id in seen and seen[node.id] is not node:
                violations.append(f"duplicate node id {node.id!r}")
            seen[node.id] = node
        except TypeError:  # an id no hash takes repeats none: `check_id` refuses it
            pass

        if isinstance(node, Basic):
            continue
        if isinstance(node, AndState):
            minimum = 1 if node is chart.topstate else 2
            if len(node.children) < minimum:
                violations.append(f"and {node.id!r}: fewer than {minimum} children")
            for child in node.children:
                if not isinstance(child, OrState):
                    violations.append(f"and {node.id!r}: child {child.id!r} is not an OR state")
        else:
            if not node.children:
                violations.append(f"or {node.id!r}: no children")
            for child in node.children:
                if isinstance(child, OrState):
                    violations.append(f"or {node.id!r}: child {child.id!r} is an OR state")
        stack.extend(node.children)

    edge_ids: set[str] = set()
    for edge in chart.hyperedges:
        try:
            if edge.id in edge_ids:
                violations.append(f"duplicate hyperedge id {edge.id!r}")
            edge_ids.add(edge.id)
        except TypeError:
            pass
        if not edge.sources:
            violations.append(f"hyperedge {edge.id!r}: no sources")
        if not edge.targets:
            violations.append(f"hyperedge {edge.id!r}: no targets")
        for endpoint in list(edge.sources) + list(edge.targets):
            if not isinstance(endpoint, Basic):
                violations.append(f"hyperedge {edge.id!r}: endpoint {endpoint.id!r} is not a basic state")
            elif id(endpoint) not in members:
                violations.append(f"hyperedge {edge.id!r}: endpoint {endpoint.id!r} is not in the chart")
    return violations


def _reference_invalid_chart(chart) -> ValidationError:
    return ValidationError(
        f"chart {chart.name!r} is not well formed", reference_validate_chart(chart)
    )


def reference_parse_chart(data) -> StateChart:
    read = _chart_document_from_xml if detect_format(data) == "xml" else _json_document
    chart = _reference_chart_from_document(read(data))
    violations = reference_validate_chart(chart)
    if violations:
        raise ValidationError(f"chart {chart.name!r} is not well formed", violations)
    return chart


def _reference_chart_from_document(obj) -> StateChart:
    name, topstate, hyperedges = _json_object(
        obj, "chart document", ("name", "topstate", "hyperedges")
    )
    chart = StateChart(_string(name, "chart name"))
    basics = {}
    stack = [(topstate, None)]
    while stack:
        entry, parent = stack.pop()
        if not isinstance(entry, dict):
            raise ParseError(f"state must be an object, got {type(entry).__name__}")
        kind = entry.get("kind")
        if kind == "basic":
            _, node_id, place = _json_object(entry, "basic state", ("kind", "id", "place"))
            node = Basic(
                check_id("state", _string(node_id, "state id")),
                check_id("place", _string(place, "'place'")),
            )
            basics[node.id] = node
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
            node = cls(check_id("state", _string(node_id, "state id")))
            basics[node.id] = None
            stack.extend(zip(reversed(children), repeat(node)))
        if parent is None:
            chart.topstate = node
        elif isinstance(parent, AndState):
            if not isinstance(node, OrState):
                raise TreeError(f"AND state {parent.id!r} can only contain OR states")
            parent.children[node] = None
        else:
            if not isinstance(node, (Basic, AndState)):
                raise TreeError(f"OR state {parent.id!r} can only contain Basic or AND states")
            parent.children[node] = None

    if not isinstance(hyperedges, list):
        raise ParseError("'hyperedges' must be a list")
    for entry in hyperedges:
        edge_id, transition, src, tgt = _json_object(
            entry, "hyperedge", ("id", "transition", "src", "tgt")
        )
        edge = HyperEdge(
            check_id("hyperedge", _string(edge_id, "hyperedge id")),
            check_id("transition", _string(transition, "'transition'")),
        )
        edge.sources = _resolve_endpoints(edge.id, _string_list(src, "'src'"), basics)
        edge.targets = _resolve_endpoints(edge.id, _string_list(tgt, "'tgt'"), basics)
        chart.hyperedges.append(edge)
    return chart


def reference_write_chart(chart: StateChart, format: str = "xml") -> bytes:
    if format not in FORMATS:
        raise PreconditionError(f"unknown format {format!r}, expected one of {FORMATS}")
    top = chart.topstate
    if not isinstance(top, AndState):
        raise _reference_invalid_chart(chart)
    try:
        if format == "xml":
            data = _reference_chart_to_xml(chart, top)
        else:
            data = _reference_chart_to_json(chart, top)
    except (ModelError, TypeError):
        # a violation outranks any id; then the first id `check_id`
        # refuses, or that is no string, in document order
        error = _reference_invalid_chart(chart)
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
        raise _reference_invalid_chart(chart)
    return data


def _misplaced_children(node, children, top: AndState) -> bool:
    """Whether the *children* of the composite *node* are too few or of a
    wrong kind, one yes or no for what `reference_validate_chart` lists."""
    if isinstance(node, AndState):
        minimum = 1 if node is top else 2
        return len(children) < minimum or not all(isinstance(c, OrState) for c in children)
    return not children or any(isinstance(c, OrState) for c in children)


def _sound_edges(edges: list[HyperEdge], basics: set[Basic]) -> bool:
    """Whether *edges* have distinct ids and nonempty sides of *basics*."""
    for edge in edges:
        sides = (edge.sources, edge.targets)
        if not all(sides) or not all(basics.issuperset(side) for side in sides):
            return False
    return len({edge.id for edge in edges}) == len(edges)


def _xml_id(kind: str, value: str) -> str:
    """`value` as `_xml_attr` quotes it, once `check_id` accepts it."""
    return _xml_attr(check_id(kind, value))


def _reference_chart_to_xml(chart: StateChart, top: AndState) -> bytes | None:
    lines = [f"<statechart name={_xml_attr(chart.name)}>"]
    ids: set[str] = set()
    basics: set[Basic] = set()
    stack = [(top, 1, False)]
    while stack:
        node, depth, closing = stack.pop()
        pad = "  " * depth
        if closing:
            lines.append(f"{pad}</{'and' if isinstance(node, AndState) else 'or'}>")
            continue
        if node.id in ids:
            return None
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
        tag = "and" if isinstance(node, AndState) else "or"
        lines.append(f"{pad}<{tag} id={_xml_id('state', node.id)}>")
        stack.append((node, depth, True))
        for child in reversed(children):
            stack.append((child, depth + 1, False))
    edges = chart.hyperedges
    if not _sound_edges(edges, basics):
        return None
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


def _reference_chart_to_json(chart: StateChart, top: AndState) -> bytes | None:
    out = io.BytesIO()
    emit = out.write
    emit(f'{{\n  "name": {_quote(chart.name)},\n  "topstate": '.encode())
    ids: set[str] = set()
    basics: set[Basic] = set()
    stack: list = [(top, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, bytes):
            emit(item)
            continue
        node, level = item
        pad = "  " * level
        if node.id in ids:
            return None
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
    if not _sound_edges(edges, basics):
        return None
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


def reference_add_place(net: PetriNet, id) -> str:
    check_id("place", id)
    if id in net.places:
        raise DuplicateIdError(f"duplicate place id {id!r}")
    net.places[id] = None
    return id


def _reference_side(net: PetriNet, entries) -> dict:
    side = {}
    for pid in entries:
        if pid not in net.places:
            raise MembershipError(f"unknown place {pid!r}")
        side[pid] = None
    return side


def reference_add_transition(net: PetriNet, id, preset, postset) -> tuple[dict, dict]:
    check_id("transition", id)
    if id in net.transitions:
        raise DuplicateIdError(f"duplicate transition id {id!r}")
    pre = _reference_side(net, preset)
    post = _reference_side(net, postset)
    if not pre or not post:
        raise PreconditionError(f"transition {id!r}: preset and postset must be nonempty")
    net.transitions[id] = (pre, post)
    return net.transitions[id]


def reference_net_from_xml(data) -> PetriNet:
    root = _xml_root(data, "petrinet")
    (name,) = _attrs(root, ("name",))
    _reject_text(root)
    net = PetriNet(name)
    for elem in root:
        if elem.tag == "place":
            (pid,) = _attrs(elem, ("id",))
            if len(elem):
                raise ParseError("element <place> cannot contain child elements")
            if elem.text and elem.text.strip():
                raise ParseError("unexpected text inside <place>")
            reference_add_place(net, pid)
        elif elem.tag == "transition":
            tid, src, tgt = _attrs(elem, ("id", "src", "tgt"))
            if len(elem):
                raise ParseError("element <transition> cannot contain child elements")
            if elem.text and elem.text.strip():
                raise ParseError("unexpected text inside <transition>")
            reference_add_transition(net, tid, src.split(), tgt.split())
        else:
            raise ParseError(f"unexpected element <{elem.tag}> inside <petrinet>")
    return net


def reference_net_from_json(data) -> PetriNet:
    obj = _json_document(data)
    name, places, transitions = _json_object(
        obj, "net document", ("name", "places", "transitions")
    )
    net = PetriNet(_string(name, "net name"))
    if not isinstance(places, list):
        raise ParseError("'places' must be a list")
    for entry in places:
        pid = _json_object(entry, "place", ("id",))
        reference_add_place(net, _string(pid, "place id"))
    if not isinstance(transitions, list):
        raise ParseError("'transitions' must be a list")
    for entry in transitions:
        tid, src, tgt = _json_object(entry, "transition", ("id", "src", "tgt"))
        reference_add_transition(
            net,
            _string(tid, "transition id"),
            _string_list(src, "'src'"),
            _string_list(tgt, "'tgt'"),
        )
    return net
