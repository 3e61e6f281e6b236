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
way: it builds the chart with `check_id` on every id and `attach` for
every link, then runs `reference_validate_chart` over the result.

`reference_add_place`, `reference_add_transition`,
`reference_net_from_xml` and `reference_net_from_json` build nets the
straightforward way: `check_id` on every id, one lookup per side entry,
`_attrs` on every element.  They share the model classes and the
readers' small helpers, and fix the nets, exceptions and messages, in
their precedence, that the package's builders and readers must give.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from netchart import (
    AndState,
    Basic,
    HyperEdge,
    OrState,
    PetriNet,
    StateChart,
    Transition,
    detect_format,
)
from netchart.errors import DuplicateIdError, ParseError, PreconditionError, ValidationError
from netchart.formats import (
    _attrs,
    _chart_document_from_xml,
    _json_document,
    _json_object,
    _reject_text,
    _resolve_endpoints,
    _string,
    _string_list,
    _xml_root,
)
from netchart.net import Place, check_id


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
    if chart.topstate.parent is not None:
        violations.append(f"topstate {chart.topstate.id!r} has a parent")

    seen = {}
    members: set[int] = set()
    stack = [chart.topstate]
    while stack:
        node = stack.pop()
        if id(node) in members:
            violations.append(f"node {node.id!r}: reached twice (containment is not a tree)")
            continue
        members.add(id(node))
        if node.id in seen and seen[node.id] is not node:
            violations.append(f"duplicate node id {node.id!r}")
        seen[node.id] = node

        if isinstance(node, Basic):
            if not isinstance(node.parent, OrState):
                violations.append(f"basic {node.id!r}: parent is not an OR state")
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
        for child in node.children:
            if child.parent is not node:
                violations.append(f"node {child.id!r}: parent link does not point at {node.id!r}")
            stack.append(child)

    edge_ids: set[str] = set()
    for edge in chart.hyperedges:
        if edge.id in edge_ids:
            violations.append(f"duplicate hyperedge id {edge.id!r}")
        edge_ids.add(edge.id)
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
        else:
            parent.attach(node)

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


def reference_add_place(net: PetriNet, id) -> Place:
    check_id("place", id)
    if id in net.places:
        raise DuplicateIdError(f"duplicate place id {id!r}")
    place = Place(id)
    net.places[id] = place
    return place


def reference_add_transition(net: PetriNet, id, preset, postset) -> Transition:
    check_id("transition", id)
    if id in net.transitions:
        raise DuplicateIdError(f"duplicate transition id {id!r}")
    get, resolve = net.places.get, net._resolve_place
    pre = [get(p) or resolve(p) for p in preset]
    post = [get(p) or resolve(p) for p in postset]
    if not pre or not post:
        raise PreconditionError(f"transition {id!r}: preset and postset must be nonempty")
    transition = Transition(id)
    transition.preset, transition.postset = dict.fromkeys(pre), dict.fromkeys(post)
    net.transitions[id] = transition
    return transition


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
            reference_add_place(net, pid)
        elif elem.tag == "transition":
            tid, src, tgt = _attrs(elem, ("id", "src", "tgt"))
            if len(elem):
                raise ParseError("element <transition> cannot contain child elements")
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
