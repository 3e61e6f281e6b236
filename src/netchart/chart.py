"""Statechart hierarchy: an AND/OR containment tree over Basic leaves,
plus hyperedges connecting Basic states.

Alternation rule: AND children are OR states; OR children are Basic or
AND states; Basic states are leaves.  The tree root ("topstate") is an
AND state.  Node ids are handed out by the owning chart from a creation
counter, as slices of id strings every chart shares, so equal
construction sequences yield equal ids.  A composite's children are a
plain dict mapping each child node, hashed by identity, to None:
insertion-ordered, with O(1) membership.  A hyperedge stores its
endpoint lists once, in the order the writers print them.  Only `reduce`
reshapes a chart after it is built.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

_id_of = attrgetter("id")

# The id strings "s0", "s1", ... and "h0", "h1", ..., shared by every chart
# in the process, so that a process building many charts makes each string
# once: element k is always the k-th id.  A list only grows, by one slice
# assignment at its end, to the most ids one chart has taken but never
# past _CACHED_IDS; a chart's ids past that are made for it alone.  The
# limit holds the ids of every perfbench document (at most 3,669 node ids)
# twice over, and bounds what a process keeps at about 1 MB.  A thread
# that grows a list over a range another thread grew writes the same
# strings in the same places.
_CACHED_IDS = 1 << 13
_NODE_IDS: list[str] = []
_EDGE_IDS: list[str] = []


def _made_ids(prefix: str, start: int, stop: int) -> list[str]:
    """The ids `prefix + str(k)` for k from *start* to *stop*, made in C by
    one %-format and one split: faster than an f-string comprehension,
    and one line event whatever the count."""
    return ((prefix + "%d ") * (stop - start) % tuple(range(start, stop))).split()


def _id_block(cache: list[str], prefix: str, first: int, end: int) -> list[str]:
    """A fresh list of the ids `prefix + str(k)` for k from *first* to
    *end*, sliced from *cache*, which grows toward *end* first."""
    start = len(cache)
    if start < end and start < _CACHED_IDS:
        stop = min(end, _CACHED_IDS)
        cache[start:stop] = _made_ids(prefix, start, stop)
    if end <= _CACHED_IDS:
        return cache[first:end]
    return cache[first:_CACHED_IDS] + _made_ids(prefix, max(first, _CACHED_IDS), end)


class Basic:
    """Leaf state created from exactly one place of the input net."""

    __slots__ = ("id", "origin_place")

    def __init__(self, id: str, origin_place: str):
        self.id = id
        self.origin_place = origin_place

    def __repr__(self) -> str:
        return f"Basic({self.id!r}, place={self.origin_place!r})"


class OrState:
    """Exclusive composite: exactly one child (Basic or AndState) is active."""

    __slots__ = ("id", "children")

    def __init__(self, id: str):
        self.id = id
        self.children: dict[Basic | AndState, None] = {}

    def __repr__(self) -> str:
        return f"OrState({self.id!r}, {len(self.children)} children)"


class AndState:
    """Parallel composite: all children (OR states) are active simultaneously."""

    __slots__ = ("id", "children")

    def __init__(self, id: str):
        self.id = id
        self.children: dict[OrState, None] = {}

    def __repr__(self) -> str:
        return f"AndState({self.id!r}, {len(self.children)} children)"


Node = Basic | OrState | AndState


class HyperEdge:
    """Statechart transition from source to target Basic states, each
    list kept in the order the writers print it."""

    __slots__ = ("id", "origin_transition", "sources", "targets")

    def __init__(self, id: str, origin_transition: str):
        self.id = id
        self.origin_transition = origin_transition
        self.sources: list[Basic] = []
        self.targets: list[Basic] = []

    def __repr__(self) -> str:
        return f"HyperEdge({self.id!r}, transition={self.origin_transition!r})"


class StateChart:
    """Containment tree rooted at an AND topstate, plus hyperedges.

    Callers build the nodes and hyperedges themselves and link them,
    under ids from `node_ids` ("s0", "s1", ...) and `edge_ids` ("h0",
    "h1", ...), which hand out blocks of one sequence each in creation
    order, as slices of `_NODE_IDS` and `_EDGE_IDS` up to `_CACHED_IDS`.
    """

    def __init__(self, name: str):
        self.name = name
        self.topstate: AndState | None = None
        self.hyperedges: list[HyperEdge] = []
        self._next_node = 0
        self._next_edge = 0

    def node_ids(self, count: int) -> list[str]:
        """The ids of the next *count* nodes, in creation order."""
        first = self._next_node
        self._next_node += count
        return _id_block(_NODE_IDS, "s", first, first + count)

    def edge_ids(self, count: int) -> list[str]:
        """The ids of the next *count* hyperedges, in creation order."""
        first = self._next_edge
        self._next_edge += count
        return _id_block(_EDGE_IDS, "h", first, first + count)

    # -- traversal ---------------------------------------------------------

    def states(self) -> Iterator[Node]:
        """All nodes of the containment tree, preorder, children in order.

        Each node is yielded once.  Only a chart built by hand with a node
        under two composites, or a cycle in the `children` dicts, reaches
        a node twice; the walk skips it then, and so ends on a cycle."""
        if self.topstate is None:
            return
        seen: set[Node] = set()  # nodes hash by identity
        stack: list[Node] = [self.topstate]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            yield node
            if not isinstance(node, Basic):
                stack.extend(reversed(node.children))


def validate_chart(chart: StateChart) -> list[str]:
    """Report every well-formedness violation; empty list means valid.

    Checked: a containment tree (no node reached twice), the AND/OR/Basic
    alternation, nonempty child lists (non-root AND states need at least
    two children), unique node ids, and hyperedge endpoints that are Basic
    states present in the tree.  Each node is visited once, so an id seen
    before belongs to another node; an id no hash takes is left to
    `check_id`, which refuses it.

    This is the full check, which reports every violation.  The rules
    for child lists and hyperedges are stated once, in `child_faults` and
    `edge_faults`; the chart writers report with them in the walk they
    make anyway, and call this only to raise its list.
    """
    top = chart.topstate
    if top is None:
        return [f"chart {chart.name!r}: no topstate"]
    if not isinstance(top, AndState):
        return [f"topstate {top.id!r} is not an AND state"]
    violations = []
    report = violations.append

    ids: set[str] = set()
    members: set[Node] = set()  # nodes hash by identity
    basics: set[Basic] = set()
    stack: list[Node] = [top]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        if node in members:
            report(f"node {node.id!r}: reached twice (containment is not a tree)")
            continue
        members.add(node)
        try:
            if node.id in ids:
                report(f"duplicate node id {node.id!r}")
            else:
                ids.add(node.id)
        except TypeError:  # an id no hash takes, which `check_id` refuses
            pass
        if isinstance(node, Basic):
            basics.add(node)
            continue
        child_faults(node, top, violations)
        push(node.children)
    edge_faults(chart.hyperedges, basics, violations)
    return violations


def child_faults(node: OrState | AndState, top: AndState, violations: list[str]) -> None:
    """Append to *violations* what `validate_chart` reports about the children
    of *node*, a composite under the root *top*: too few, or of a wrong kind."""
    children = node.children
    if isinstance(node, AndState):
        minimum = 1 if node is top else 2
        if len(children) < minimum:
            violations.append(f"and {node.id!r}: fewer than {minimum} children")
        for child in children:
            if not isinstance(child, OrState):
                violations.append(f"and {node.id!r}: child {child.id!r} is not an OR state")
    else:
        if not children:
            violations.append(f"or {node.id!r}: no children")
        for child in children:
            if isinstance(child, OrState):
                violations.append(f"or {node.id!r}: child {child.id!r} is an OR state")


def edge_faults(edges: list[HyperEdge], basics: set[Basic], violations: list[str]) -> None:
    """Append to *violations* what `validate_chart` reports about *edges*: a
    repeated id, an empty side, an endpoint not in *basics*, the tree's basic states."""
    report = violations.append
    ids: set[str] = set()
    for edge in edges:
        try:
            if edge.id in ids:
                report(f"duplicate hyperedge id {edge.id!r}")
            ids.add(edge.id)
        except TypeError:  # an id no hash takes, which `check_id` refuses
            pass
        sources, targets = edge.sources, edge.targets
        if not sources:
            report(f"hyperedge {edge.id!r}: no sources")
        if not targets:
            report(f"hyperedge {edge.id!r}: no targets")
        try:  # a one-endpoint side is one membership test
            if ((sources[0] in basics if len(sources) == 1 else basics.issuperset(sources))
                    and (targets[0] in basics if len(targets) == 1
                         else basics.issuperset(targets))):
                continue
        except TypeError:  # an unhashable endpoint: report it below
            pass
        for endpoint in [*sources, *targets]:
            if not isinstance(endpoint, Basic):
                report(f"hyperedge {edge.id!r}: endpoint {endpoint.id!r} is not a basic state")
                continue
            try:
                reached = endpoint in basics
            except TypeError:  # unhashable, so no node of the tree
                reached = False
            if not reached:
                report(f"hyperedge {edge.id!r}: endpoint {endpoint.id!r} is not in the chart")
