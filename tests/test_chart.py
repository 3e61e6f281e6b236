"""Statechart model: id blocks, tree building, validation."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchart import (
    AndState,
    Basic,
    HyperEdge,
    OrState,
    SpSpec,
    StateChart,
    TreeError,
    generate_sp,
    transform,
    validate_chart,
)
from oracle import reference_validate_chart
from support import general_nets


def _tiny_chart() -> StateChart:
    chart = StateChart("tiny")
    or_state, chart.topstate = OrState("s1"), AndState("s2")
    or_state.attach(Basic("s0", "p"))
    chart.topstate.attach(or_state)
    return chart


def test_id_blocks_continue_one_sequence():
    chart = StateChart("c")
    assert list(chart.node_ids(3)) == ["s0", "s1", "s2"]
    assert list(chart.node_ids(0)) == []
    assert list(chart.node_ids(2)) == ["s3", "s4"]
    # hyperedges count on their own
    assert list(chart.edge_ids(1)) == ["h0"]
    assert list(chart.edge_ids(2)) == ["h1", "h2"]


def test_attach_enforces_alternation():
    or_state, other, and_state = OrState("s0"), OrState("s2"), AndState("s3")
    other.attach(Basic("s1", "q"))
    with pytest.raises(TreeError):
        or_state.attach(other)
    and_state.attach(other)
    with pytest.raises(TreeError):
        and_state.attach(Basic("s4", "r"))


def test_attach_rejects_nodes_that_already_have_a_parent():
    basic, or_state, and_state = Basic("s0", "p"), OrState("s1"), AndState("s2")
    or_state.attach(basic)
    with pytest.raises(TreeError, match="already has parent"):
        OrState("s3").attach(basic)
    and_state.attach(or_state)
    with pytest.raises(TreeError):
        AndState("s4").attach(or_state)
    assert or_state.parent is and_state


def test_states_yields_preorder():
    a, b, q = Basic("s0", "a"), Basic("s1", "b"), Basic("s5", "q")
    left, right, top_or = OrState("s2"), OrState("s3"), OrState("s6")
    inner, top = AndState("s4"), AndState("s7")
    for parent, child in (
        (left, a), (right, b), (inner, left), (inner, right), (top_or, q), (top_or, inner),
        (top, top_or),
    ):
        parent.attach(child)
    chart = StateChart("c")
    chart.topstate = top
    ids = [node.id for node in chart.states()]
    assert ids == ["s7", "s6", "s5", "s4", "s2", "s0", "s3", "s1"]


def test_states_is_empty_without_topstate():
    assert list(StateChart("c").states()) == []


def test_validate_accepts_a_minimal_chart():
    assert validate_chart(_tiny_chart()) == []


def test_validate_requires_a_topstate():
    chart = StateChart("c")
    assert validate_chart(chart) == ["chart 'c': no topstate"]
    chart.topstate = OrState("s1")  # force a bad root
    chart.topstate.attach(Basic("s0", "p"))
    assert any("not an AND" in v for v in validate_chart(chart))
    chart = _tiny_chart()
    chart.topstate.parent = OrState("s9")  # bypass attach to give the root a parent
    assert validate_chart(chart) == ["topstate 's2' has a parent"]


def test_validate_reports_empty_composites():
    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    del basic.parent.children[basic]
    basic.parent = None
    assert any("no children" in v for v in validate_chart(chart))


def test_validate_requires_two_children_below_the_root():
    chart = StateChart("c")
    leaf_or, inner, top_or = OrState("s1"), AndState("s2"), OrState("s3")
    chart.topstate = AndState("s4")
    for parent, child in (
        (leaf_or, Basic("s0", "p")), (inner, leaf_or), (top_or, inner), (chart.topstate, top_or),
    ):
        parent.attach(child)
    assert validate_chart(chart) == ["and 's2': fewer than 2 children"]


def test_validate_reports_alternation_breaks():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    stray = OrState("s4")
    stray.attach(Basic("s3", "x"))
    # bypass attach to build the illegal shape
    or_state.children[stray] = None
    stray.parent = or_state
    assert any("is an OR state" in v for v in validate_chart(chart))
    chart = _tiny_chart()
    leaf = Basic("s9", "x")
    chart.topstate.children[leaf] = None
    leaf.parent = chart.topstate
    assert validate_chart(chart) == [
        "and 's2': child 's9' is not an OR state",
        "basic 's9': parent is not an OR state",
    ]


def test_validate_reports_duplicate_ids():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    twin = Basic(list(or_state.children)[0].id, "p2")
    or_state.children[twin] = None
    twin.parent = or_state
    assert any(v.startswith("duplicate node id") for v in validate_chart(chart))


def test_validate_reports_shared_subtrees():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    basic = list(or_state.children)[0]
    second = OrState("s99")  # built by hand to bypass the attach checks
    second.children[basic] = None
    chart.topstate.children[second] = None
    second.parent = chart.topstate
    violations = validate_chart(chart)
    assert any("reached twice" in v for v in violations)


def test_validate_reports_broken_parent_links():
    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    basic.parent = chart.topstate
    assert any("parent link" in v for v in validate_chart(chart))


def test_validate_checks_hyperedge_endpoints():
    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    edge = HyperEdge("h0", "t")
    edge.sources.append(basic)
    chart.hyperedges.append(edge)
    assert any("no targets" in v for v in validate_chart(chart))

    loose = Basic("s3", "gone")
    edge.targets.append(loose)
    assert any("not in the chart" in v for v in validate_chart(chart))

    edge.targets[:] = [list(chart.topstate.children)[0]]
    assert any("not a basic state" in v for v in validate_chart(chart))


def test_validate_reports_duplicate_hyperedge_ids():
    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    for id in ("h0", "h1"):
        edge = HyperEdge(id, "t")
        edge.sources.append(basic)
        edge.targets.append(basic)
        chart.hyperedges.append(edge)
    chart.hyperedges[1].id = chart.hyperedges[0].id
    assert any("duplicate hyperedge id" in v for v in validate_chart(chart))


def test_validate_reports_foreign_and_unhashable_endpoints():
    class Unhashable(Basic):
        __slots__ = ()
        __eq__ = object.__eq__  # defining __eq__ drops __hash__

    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    edge = HyperEdge("h0", "t")
    edge.sources[:] = [SimpleNamespace(id="x"), basic]
    edge.targets[:] = [Unhashable("y", "p")]
    chart.hyperedges.append(edge)
    assert validate_chart(chart) == [
        "hyperedge 'h0': endpoint 'x' is not a basic state",
        "hyperedge 'h0': endpoint 'y' is not in the chart",
    ]


def _nodes(chart: StateChart) -> list:
    """Every node reachable from the topstate once, cycles included."""
    found, seen, stack = [], set(), [chart.topstate]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        found.append(node)
        if not isinstance(node, Basic):
            stack.extend(node.children)
    return found


def _pick(items: list, k: int):
    return items[k % len(items)] if items else None


def _mutate(chart: StateChart, kind: str, k: int, j: int) -> None:
    """Break *chart* in one of the ways `validate_chart` must report."""
    nodes = _nodes(chart)
    below = nodes[1:]
    composites = [n for n in nodes if not isinstance(n, Basic)]
    edges = chart.hyperedges
    node, other = _pick(below, k), _pick(nodes, j)
    if kind == "cut parent" and node:
        node.parent = None
    elif kind == "misdirect parent" and node:
        node.parent = other
    elif kind == "duplicate node id" and node:
        node.id = other.id
    elif kind == "duplicate edge id" and len(edges) > 1:
        _pick(edges, k).id = _pick(edges, j).id
    elif kind == "reach twice" and node:
        _pick(composites, j).children[node] = None
    elif kind == "empty composite":
        _pick(composites, k).children = {}
    elif kind == "lone inner and":
        ors = [n for n in nodes if isinstance(n, OrState)]
        if ors:
            inner, leaf = AndState(f"x{k}"), Basic(f"y{k}", "p")
            wrapper = OrState(f"z{k}")
            wrapper.children[leaf], leaf.parent = None, wrapper
            inner.children[wrapper], wrapper.parent = None, inner
            host = _pick(ors, j)
            host.children[inner], inner.parent = None, host
    elif kind == "basic under and":
        ands = [n for n in nodes if isinstance(n, AndState)]
        leaf = _pick([n for n in nodes if isinstance(n, Basic)], k)
        if leaf:  # an emptied composite can leave no basic to move
            _pick(ands, j).children[leaf] = None
    elif kind == "composite endpoint" and edges:
        _pick(edges, k).sources.append(_pick(composites, j))
    elif kind == "outside endpoint" and edges:
        _pick(edges, k).targets.insert(0, Basic(f"w{j}", "p"))
    elif kind == "foreign endpoint" and edges:
        _pick(edges, k).targets.append(SimpleNamespace(id=f"v{j}"))
    elif kind == "empty side" and edges:
        edge = _pick(edges, k)
        if j % 2:
            edge.sources = []
        else:
            edge.targets = []


_MUTATIONS = (
    "cut parent", "misdirect parent", "duplicate node id", "duplicate edge id",
    "reach twice", "empty composite", "lone inner and", "basic under and",
    "composite endpoint", "outside endpoint", "foreign endpoint", "empty side",
)

_SMALL_NETS = st.one_of(
    general_nets(),
    st.builds(
        lambda places, seed: generate_sp(SpSpec(places=places, seed=seed)),
        st.integers(1, 40),
        st.integers(0, 10_000),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    _SMALL_NETS,
    st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 999), st.integers(0, 999)),
        max_size=4,
    ),
)
def test_validate_matches_the_reference_on_mutated_charts(net, mutations):
    chart = transform(net).chart
    for kind, k, j in mutations:
        _mutate(chart, kind, k, j)
    assert validate_chart(chart) == reference_validate_chart(chart)
