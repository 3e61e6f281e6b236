"""Statechart model: factories, tree building, validation."""

from __future__ import annotations

import pytest

from netchart import (
    Basic,
    OrState,
    PreconditionError,
    StateChart,
    TreeError,
    validate_chart,
)


def _tiny_chart() -> StateChart:
    chart = StateChart("tiny")
    basic = chart.new_basic("p")
    or_state = chart.new_or([basic])
    chart.set_topstate(chart.new_and([or_state]))
    return chart


def test_factories_number_nodes_in_creation_order():
    chart = StateChart("c")
    basic = chart.new_basic("p")
    or_state = chart.new_or([basic])
    and_state = chart.new_and([or_state])
    assert (basic.id, or_state.id, and_state.id) == ("s0", "s1", "s2")
    assert chart.new_hyperedge("t").id == "h0"
    assert chart.new_hyperedge("t").id == "h1"


def test_new_or_requires_children():
    chart = StateChart("c")
    with pytest.raises(PreconditionError):
        chart.new_or([])
    with pytest.raises(PreconditionError):
        chart.new_and([])


def test_attach_enforces_alternation():
    chart = StateChart("c")
    or_state = chart.new_or([chart.new_basic("p")])
    other = chart.new_or([chart.new_basic("q")])
    with pytest.raises(TreeError):
        or_state.attach(other)
    and_state = chart.new_and([other])
    with pytest.raises(TreeError):
        and_state.attach(chart.new_basic("r"))


def test_attach_rejects_nodes_that_already_have_a_parent():
    chart = StateChart("c")
    basic = chart.new_basic("p")
    or_state = chart.new_or([basic])
    with pytest.raises(TreeError, match="already has parent"):
        chart.new_or([basic])
    and_state = chart.new_and([or_state])
    with pytest.raises(TreeError):
        chart.new_and([or_state])
    assert or_state.parent is and_state


def test_set_topstate_rejects_parented_nodes():
    chart = StateChart("c")
    inner = chart.new_and([chart.new_or([chart.new_basic("p")])])
    chart.new_or([inner])
    with pytest.raises(TreeError):
        chart.set_topstate(inner)


def test_states_yields_preorder():
    chart = StateChart("c")
    a = chart.new_basic("a")
    b = chart.new_basic("b")
    left = chart.new_or([a])
    right = chart.new_or([b])
    inner = chart.new_and([left, right])
    q = chart.new_basic("q")
    top_or = chart.new_or([q, inner])
    chart.set_topstate(chart.new_and([top_or]))
    ids = [node.id for node in chart.states()]
    assert ids == [chart.topstate.id, top_or.id, q.id, inner.id, left.id, a.id, right.id, b.id]


def test_states_is_empty_without_topstate():
    assert list(StateChart("c").states()) == []


def test_validate_accepts_a_minimal_chart():
    assert validate_chart(_tiny_chart()) == []


def test_validate_requires_a_topstate():
    chart = StateChart("c")
    assert validate_chart(chart) == ["chart 'c': no topstate"]
    chart.topstate = chart.new_or([chart.new_basic("p")])  # force a bad root
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
    inner = chart.new_and([chart.new_or([chart.new_basic("p")])])
    top_or = chart.new_or([inner])
    chart.set_topstate(chart.new_and([top_or]))
    violations = validate_chart(chart)
    assert violations == [f"and {inner.id!r}: fewer than 2 children"]


def test_validate_reports_alternation_breaks():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    stray = chart.new_or([chart.new_basic("x")])
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
    edge = chart.new_hyperedge("t")
    edge.sources.append(basic)
    chart.add_hyperedge(edge)
    assert any("no targets" in v for v in validate_chart(chart))

    loose = chart.new_basic("gone")
    edge.targets.append(loose)
    assert any("not in the chart" in v for v in validate_chart(chart))

    edge.targets[:] = [list(chart.topstate.children)[0]]
    assert any("not a basic state" in v for v in validate_chart(chart))


def test_validate_reports_duplicate_hyperedge_ids():
    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    for _ in range(2):
        edge = chart.new_hyperedge("t")
        edge.sources.append(basic)
        edge.targets.append(basic)
        chart.add_hyperedge(edge)
    chart.hyperedges[1].id = chart.hyperedges[0].id
    assert any("duplicate hyperedge id" in v for v in validate_chart(chart))
