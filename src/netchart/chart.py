"""Statechart hierarchy: an AND/OR containment tree over Basic leaves,
plus hyperedges connecting Basic states.

Alternation rule: AND children are OR states; OR children are Basic or
AND states; Basic states are leaves.  The tree root ("topstate") is an
AND state.  Node ids are handed out by the owning chart from a creation
counter, so equal construction sequences yield equal ids.  A composite's
children are a plain dict mapping each child node, hashed by identity, to
None: insertion-ordered, with O(1) membership.  A hyperedge stores its
endpoint lists once, in the order the writers print them.  Only `reduce`
reshapes a chart after it is built.
"""

from __future__ import annotations

from typing import Iterator

from .errors import TreeError

# the id of the node, or hyperedge, a chart hands out n-th
_NODE_ID = "s{}".format
_EDGE_ID = "h{}".format


class Basic:
    """Leaf state created from exactly one place of the input net."""

    __slots__ = ("id", "origin_place", "parent")

    def __init__(self, id: str, origin_place: str):
        self.id = id
        self.origin_place = origin_place
        self.parent: OrState | None = None

    def __repr__(self) -> str:
        return f"Basic({self.id!r}, place={self.origin_place!r})"


class OrState:
    """Exclusive composite: exactly one child (Basic or AndState) is active."""

    __slots__ = ("id", "children", "parent")

    def __init__(self, id: str):
        self.id = id
        self.children: dict[Basic | AndState, None] = {}
        self.parent: AndState | None = None

    def attach(self, child: Basic | AndState) -> None:
        if not isinstance(child, (Basic, AndState)):
            raise TreeError(f"OR state {self.id!r} can only contain Basic or AND states")
        if child.parent is not None:
            raise TreeError(f"node {child.id!r} already has parent {child.parent.id!r}")
        child.parent = self
        self.children[child] = None

    def __repr__(self) -> str:
        return f"OrState({self.id!r}, {len(self.children)} children)"


class AndState:
    """Parallel composite: all children (OR states) are active simultaneously."""

    __slots__ = ("id", "children", "parent")

    def __init__(self, id: str):
        self.id = id
        self.children: dict[OrState, None] = {}
        self.parent: OrState | None = None

    def attach(self, child: OrState) -> None:
        if not isinstance(child, OrState):
            raise TreeError(f"AND state {self.id!r} can only contain OR states")
        if child.parent is not None:
            raise TreeError(f"node {child.id!r} already has parent {child.parent.id!r}")
        child.parent = self
        self.children[child] = None

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
    order.
    """

    def __init__(self, name: str):
        self.name = name
        self.topstate: AndState | None = None
        self.hyperedges: list[HyperEdge] = []
        self._next_node = 0
        self._next_edge = 0

    def node_ids(self, count: int) -> Iterator[str]:
        """The ids of the next *count* nodes, in creation order."""
        first = self._next_node
        self._next_node += count
        return map(_NODE_ID, range(first, first + count))

    def edge_ids(self, count: int) -> Iterator[str]:
        """The ids of the next *count* hyperedges, in creation order."""
        first = self._next_edge
        self._next_edge += count
        return map(_EDGE_ID, range(first, first + count))

    # -- traversal ---------------------------------------------------------

    def states(self) -> Iterator[Node]:
        """All nodes of the containment tree, preorder, children in order."""
        if self.topstate is None:
            return
        stack: list[Node] = [self.topstate]
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, Basic):
                stack.extend(reversed(node.children))


def validate_chart(chart: StateChart) -> list[str]:
    """Report every well-formedness violation; empty list means valid.

    Checked: a single-rooted containment tree with correct parent links,
    the AND/OR/Basic alternation, nonempty child lists (non-root AND states
    need at least two children), unique node ids, and hyperedge endpoints
    that are Basic states present in the tree.  Each node is visited once,
    so an id seen before belongs to another node.

    This is the full check, which reports every violation.  The chart
    reader and writers check the same rules inline, in the walk they make
    anyway, and call it only to raise its list.
    """
    top = chart.topstate
    if top is None:
        return [f"chart {chart.name!r}: no topstate"]
    if not isinstance(top, AndState):
        return [f"topstate {top.id!r} is not an AND state"]
    violations = []
    report = violations.append
    if top.parent is not None:
        report(f"topstate {top.id!r} has a parent")

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
        if node.id in ids:
            report(f"duplicate node id {node.id!r}")
        else:
            ids.add(node.id)

        if isinstance(node, Basic):
            basics.add(node)
            if not isinstance(node.parent, OrState):
                report(f"basic {node.id!r}: parent is not an OR state")
            continue
        children = node.children
        if isinstance(node, AndState):
            minimum = 1 if node is top else 2
            if len(children) < minimum:
                report(f"and {node.id!r}: fewer than {minimum} children")
            for child in children:
                if not isinstance(child, OrState):
                    report(f"and {node.id!r}: child {child.id!r} is not an OR state")
        else:
            if not children:
                report(f"or {node.id!r}: no children")
            for child in children:
                if isinstance(child, OrState):
                    report(f"or {node.id!r}: child {child.id!r} is an OR state")
        for child in children:
            if child.parent is not node:
                report(f"node {child.id!r}: parent link does not point at {node.id!r}")
        push(children)

    edge_ids: set[str] = set()
    for edge in chart.hyperedges:
        if edge.id in edge_ids:
            report(f"duplicate hyperedge id {edge.id!r}")
        edge_ids.add(edge.id)
        sources, targets = edge.sources, edge.targets
        if not sources:
            report(f"hyperedge {edge.id!r}: no sources")
        if not targets:
            report(f"hyperedge {edge.id!r}: no targets")
        try:
            reached = basics.issuperset(sources) and basics.issuperset(targets)
        except TypeError:  # an unhashable endpoint: report it below
            reached = False
        if not reached:
            _endpoint_faults(edge, members, report)
    return violations


def _endpoint_faults(edge: HyperEdge, members: set[Node], report) -> None:
    """Report each endpoint of *edge* that is no Basic state of the tree."""
    for endpoint in list(edge.sources) + list(edge.targets):
        if not isinstance(endpoint, Basic):
            report(f"hyperedge {edge.id!r}: endpoint {endpoint.id!r} is not a basic state")
            continue
        try:
            reached = endpoint in members
        except TypeError:  # unhashable, so no node of the tree
            reached = False
        if not reached:
            report(f"hyperedge {edge.id!r}: endpoint {endpoint.id!r} is not in the chart")
