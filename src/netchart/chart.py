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

from .errors import PreconditionError, TreeError


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

    Nodes are created through `new_basic` / `new_or` / `new_and`, which
    assign ids "s0", "s1", ... in creation order; hyperedges get "h0",
    "h1", ...  Freshly created nodes are detached: the caller attaches
    them.
    """

    def __init__(self, name: str):
        self.name = name
        self.topstate: AndState | None = None
        self.hyperedges: list[HyperEdge] = []
        self._next_node = 0
        self._next_edge = 0

    # -- node factories ----------------------------------------------------

    def _node_id(self) -> str:
        id = f"s{self._next_node}"
        self._next_node += 1
        return id

    def new_basic(self, origin_place: str) -> Basic:
        return Basic(self._node_id(), origin_place)

    def new_or(self, children: list[Basic | AndState]) -> OrState:
        if not children:
            raise PreconditionError("an OR state needs at least one child")
        node = self._new_or_shell()
        for child in children:
            node.attach(child)
        return node

    def new_and(self, children: list[OrState]) -> AndState:
        if not children:
            raise PreconditionError("an AND state needs at least one child")
        node = self._new_and_shell()
        for child in children:
            node.attach(child)
        return node

    def _new_or_shell(self) -> OrState:
        # initialization numbers an OR state before the basic it wraps;
        # the final validation enforces nonemptiness
        return OrState(self._node_id())

    def _new_and_shell(self) -> AndState:
        return AndState(self._node_id())

    def new_hyperedge(self, origin_transition: str) -> HyperEdge:
        edge = HyperEdge(f"h{self._next_edge}", origin_transition)
        self._next_edge += 1
        return edge

    # -- structure changes -------------------------------------------------

    def set_topstate(self, node: AndState) -> None:
        if node.parent is not None:
            raise TreeError("the topstate cannot have a parent")
        self.topstate = node

    def add_hyperedge(self, edge: HyperEdge) -> None:
        self.hyperedges.append(edge)

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
    that are Basic states present in the tree.
    """
    violations = []
    if chart.topstate is None:
        return [f"chart {chart.name!r}: no topstate"]
    if not isinstance(chart.topstate, AndState):
        violations.append(f"topstate {chart.topstate.id!r} is not an AND state")
        return violations
    if chart.topstate.parent is not None:
        violations.append(f"topstate {chart.topstate.id!r} has a parent")

    seen: dict[str, Node] = {}
    members: set[int] = set()
    stack: list[Node] = [chart.topstate]
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
