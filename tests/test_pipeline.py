"""Transformation pipeline: initialization, the two reduction rules, reduce."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchart import (
    AndState,
    Basic,
    OrState,
    PetriNet,
    PreconditionError,
    SpSpec,
    Trace,
    TraceEntry,
    TraceError,
    ValidationError,
    generate_sp,
    initialize,
    reduce,
    transform,
    try_and_rule,
    try_or_rule,
    validate_chart,
    write_chart,
)
from oracle import oracle_reduce
from support import (
    chart_signature,
    diamond,
    edges_signature,
    net_edges_signature,
    net_to_plain,
    single_place,
    three_cycle,
    two_chain,
)


def _initialized(net):
    trace = Trace()
    chart = initialize(net, trace)
    return chart, trace


def test_initialize_builds_the_flat_chart():
    net = diamond()
    chart, trace = _initialized(net)
    assert chart.name == "D1"
    assert isinstance(chart.topstate, AndState)
    ors = chart.topstate.children
    assert [type(o) for o in ors] == [OrState] * 4
    assert [list(o.children)[0].origin_place for o in ors] == ["q", "a", "b", "r"]
    assert all(len(o.children) == 1 for o in ors)
    assert [e.origin_transition for e in chart.hyperedges] == ["t1", "t2"]
    t2 = chart.hyperedges[1]
    assert [b.origin_place for b in t2.sources] == ["a", "b"]
    assert [b.origin_place for b in t2.targets] == ["r"]
    assert validate_chart(chart) == []
    assert len(trace.export()) == 12


def test_initialize_smallest_net():
    chart, trace = _initialized(single_place())
    assert chart_signature(chart) == "and(or(b[p0]))"
    assert chart.hyperedges == []
    assert len(trace.export()) == 4


def test_initialize_rejects_broken_nets():
    net = diamond()
    del net.places["a"].pre_transitions[net.transitions["t1"]]
    trace = Trace()
    with pytest.raises(ValidationError) as info:
        initialize(net, trace)
    assert info.value.violations
    assert trace.export() == []


def test_rule_sets_are_single_use():
    net = diamond()
    chart, trace = _initialized(net)
    before = trace.export()
    with pytest.raises(PreconditionError, match="fresh Trace"):
        initialize(net, trace)
    assert trace.export() == before
    assert trace.or_state(net.places["q"]) is list(chart.topstate.children)[0]


def test_trace_export_is_sorted_and_stringly_typed():
    trace = Trace()
    trace.entries.append(("Place2Or", "b", "s3"))
    trace.entries.append(("Place2Or", "a", "s1"))
    trace.entries.append(("PetriNet2StateChart", "n", "n"))
    assert trace.export() == [
        TraceEntry(rule="PetriNet2StateChart", input="n", output="n"),
        TraceEntry(rule="Place2Or", input="a", output="s1"),
        TraceEntry(rule="Place2Or", input="b", output="s3"),
    ]


def test_or_rule_collapses_a_sequential_step():
    net = two_chain()
    chart, trace = _initialized(net)
    survivor = try_or_rule(net, chart, trace, net.transitions["t"])
    assert survivor is net.places["p"]
    assert set(net.places) == {"p"}
    assert set(net.transitions) == set()
    assert chart_signature(chart) == "and(or(b[p2],b[p]))"
    or_q = list(chart.topstate.children)[0]
    assert [b.origin_place for b in or_q.children] == ["p", "p2"]


def test_or_rule_skips_wrong_arities():
    net = diamond()
    chart, trace = _initialized(net)
    assert try_or_rule(net, chart, trace, net.transitions["t1"]) is None
    assert try_or_rule(net, chart, trace, net.transitions["t2"]) is None


def test_or_rule_skips_self_loops():
    net = PetriNet("n")
    net.add_place("p")
    net.add_transition("t", ["p"], ["p"])
    chart, trace = _initialized(net)
    assert try_or_rule(net, chart, trace, net.transitions["t"]) is None


def test_or_rule_skips_doubled_transitions():
    net = PetriNet("n")
    net.add_place("q")
    net.add_place("p")
    net.add_transition("t", ["q"], ["p"])
    net.add_transition("t2", ["q"], ["p"])
    chart, trace = _initialized(net)
    # fusing would turn the twin transition into a self-loop
    assert try_or_rule(net, chart, trace, net.transitions["t"]) is None
    assert try_or_rule(net, chart, trace, net.transitions["t2"]) is None


def test_or_rule_skips_two_place_cycles():
    net = PetriNet("n")
    net.add_place("q")
    net.add_place("p")
    net.add_transition("fwd", ["q"], ["p"])
    net.add_transition("back", ["p"], ["q"])
    chart, trace = _initialized(net)
    assert try_or_rule(net, chart, trace, net.transitions["fwd"]) is None
    assert try_or_rule(net, chart, trace, net.transitions["back"]) is None


def test_or_rule_ignores_removed_transitions():
    net = two_chain()
    chart, trace = _initialized(net)
    t = net.transitions["t"]
    assert try_or_rule(net, chart, trace, t) is not None
    assert try_or_rule(net, chart, trace, t) is None


def test_and_rule_merges_a_parallel_group():
    net = diamond()
    chart, trace = _initialized(net)
    fresh = try_and_rule(net, chart, trace, net.transitions["t2"])
    assert fresh is not None and fresh.id == "m0"
    assert set(net.places) == {"q", "m0", "r"}
    assert [p.id for p in net.transitions["t1"].postset] == ["m0"]

    wrapper = list(chart.topstate.children)[-1]
    assert isinstance(wrapper, OrState)
    assert len(wrapper.children) == 1
    and_state = list(wrapper.children)[0]
    assert isinstance(and_state, AndState)
    assert [list(o.children)[0].origin_place for o in and_state.children] == ["a", "b"]
    assert trace.or_state(fresh) is wrapper
    entries = [e for e in trace.export() if e.rule == "AndRulePlace2Or"]
    assert [(e.input, e.output) for e in entries] == [("m0", wrapper.id)]


def test_and_rule_orders_the_group_by_declaration():
    net = PetriNet("n")
    net.add_place("z")
    net.add_place("y")
    net.add_place("q")
    # transition lists y before z; declaration order must win
    net.add_transition("t", ["q"], ["y", "z"])
    chart, trace = _initialized(net)
    fresh = try_and_rule(net, chart, trace, net.transitions["t"])
    and_state = list(list(chart.topstate.children)[-1].children)[0]
    assert [list(o.children)[0].origin_place for o in and_state.children] == ["z", "y"]
    assert fresh.id == "m0"


def test_and_rule_prefers_the_preset():
    net = PetriNet("n")
    net.add_place("a")
    net.add_place("b")
    net.add_place("c")
    net.add_place("d")
    net.add_transition("t", ["a", "b"], ["c", "d"])
    # break the preset symmetry; the equal postset must not be tried instead
    net.add_place("x")
    net.add_transition("u", ["a"], ["x"])
    chart, trace = _initialized(net)
    assert try_and_rule(net, chart, trace, net.transitions["t"]) is None

    # with the asymmetry removed the same call merges the preset
    net2 = PetriNet("n")
    for id in ("a", "b", "c", "d"):
        net2.add_place(id)
    net2.add_transition("t", ["a", "b"], ["c", "d"])
    chart2, trace2 = _initialized(net2)
    fresh = try_and_rule(net2, chart2, trace2, net2.transitions["t"])
    assert {b.id for b in net2.transitions["t"].preset} == {fresh.id}
    assert {b.id for b in net2.transitions["t"].postset} == {"c", "d"}


def test_and_rule_skips_unequal_groups():
    net = diamond()
    net.add_place("u")
    net.add_transition("t3", ["a"], ["u"])
    chart, trace = _initialized(net)
    assert try_and_rule(net, chart, trace, net.transitions["t2"]) is None


def test_and_rule_skips_self_looped_members():
    net = PetriNet("n")
    net.add_place("a")
    net.add_place("b")
    net.add_transition("t", ["a", "b"], ["a", "b"])
    chart, trace = _initialized(net)
    assert try_and_rule(net, chart, trace, net.transitions["t"]) is None


def test_and_rule_skips_wrong_arities():
    net = two_chain()
    chart, trace = _initialized(net)
    assert try_and_rule(net, chart, trace, net.transitions["t"]) is None


def test_and_rule_ignores_removed_transitions():
    net = diamond()
    chart, trace = _initialized(net)
    t2 = net.transitions["t2"]
    net.remove_transition(t2)
    assert try_and_rule(net, chart, trace, t2) is None


def test_rules_refuse_untraced_places():
    net = two_chain()
    chart, trace = _initialized(net)
    foreign = PetriNet("other")
    foreign.add_place("x")
    foreign.add_place("y")
    foreign.add_transition("t9", ["x"], ["y"])
    with pytest.raises(TraceError):
        try_or_rule(foreign, chart, trace, foreign.transitions["t9"])


def test_rules_bridge_copied_nets_through_ids():
    net = two_chain()
    chart, trace = _initialized(net)
    working = net.copy()
    survivor = try_or_rule(working, chart, trace, working.transitions["t"])
    assert survivor is working.places["p"]
    # the chart built for the original still received the absorb
    assert chart_signature(chart) == "and(or(b[p2],b[p]))"


def test_reduce_diamond_counters():
    net = diamond()
    chart, trace = _initialized(net)
    working = net.copy()
    report = reduce(working, chart, trace)
    assert (report.and_applications, report.or_applications) == (1, 2)
    assert (report.remaining_places, report.remaining_transitions) == (1, 0)
    assert report.fully_reduced


def test_reduce_isolated_place():
    net = single_place()
    chart, trace = _initialized(net)
    report = reduce(net, chart, trace)
    assert report.fully_reduced
    assert report.and_applications == report.or_applications == 0


def test_reduce_cycle_stops_early():
    net = three_cycle()
    chart, trace = _initialized(net)
    report = reduce(net, chart, trace)
    assert not report.fully_reduced
    assert (report.and_applications, report.or_applications) == (0, 1)
    assert (report.remaining_places, report.remaining_transitions) == (2, 2)
    # an exhaustive rule applier agrees on the counters and the shape
    expected = oracle_reduce(*net_to_plain(three_cycle()))
    assert expected.and_applications == report.and_applications
    assert expected.or_applications == report.or_applications
    assert expected.remaining_places == report.remaining_places
    assert expected.remaining_transitions == report.remaining_transitions
    assert chart_signature(chart) == expected.signature


def test_remaining_places_match_topstate_children():
    net = three_cycle()
    chart, trace = _initialized(net)
    working = net.copy()
    reduce(working, chart, trace)
    children = set(chart.topstate.children)
    assert len(children) == len(working.places)
    for place in working.places.values():
        assert trace.or_state(place) in children


def test_randomized_reduce_matches_the_fifo_result():
    for places in (9, 23, 40):
        net = generate_sp(SpSpec(places=places, seed=77))
        baseline_chart, baseline_report, _ = transform(net)
        for seed in range(5):
            chart, report, _ = transform(net, rng=random.Random(seed))
            assert chart_signature(chart) == chart_signature(baseline_chart)
            assert report == baseline_report


def test_random_order_is_not_confluent_on_general_nets():
    # t0 blocks whichever OR fusion comes second, t1 (p5 into p0) or
    # t2 (p5 into p4), so random picks can reach two different shapes
    def counterexample():
        net = PetriNet("cx")
        for pid in ("p0", "p1", "p4", "p5"):
            net.add_place(pid)
        net.add_transition("t0", ["p4"], ["p0", "p1"])
        net.add_transition("t1", ["p5"], ["p0"])
        net.add_transition("t2", ["p4"], ["p5"])
        return net

    fifo = "and(or(b[p0],b[p5]),or(b[p1]),or(b[p4]))"
    other = "and(or(b[p0]),or(b[p1]),or(b[p4],b[p5]))"
    assert chart_signature(transform(counterexample()).chart) == fifo
    assert oracle_reduce(*net_to_plain(counterexample())).signature == fifo
    shapes = {
        chart_signature(transform(counterexample(), rng=random.Random(seed)).chart)
        for seed in range(40)
    }
    assert shapes == {fifo, other}


@st.composite
def general_nets(draw):
    """Nets of 1-8 places and 0-8 transitions; each side holds 1-4
    distinct places, and a place may sit on both sides (a self-loop)."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 8)))]
    side = st.lists(st.sampled_from(places), min_size=1, max_size=4, unique=True)
    net = PetriNet("g")
    for pid in places:
        net.add_place(pid)
    for index, (src, tgt) in enumerate(draw(st.lists(st.tuples(side, side), max_size=8))):
        net.add_transition(f"t{index}", src, tgt)
    return net


@settings(max_examples=300, deadline=None)
@given(general_nets())
def test_fifo_order_matches_the_oracle_on_general_nets(net):
    chart, report, _ = transform(net)
    expected = oracle_reduce(*net_to_plain(net))
    assert chart_signature(chart) == expected.signature
    assert (
        report.and_applications,
        report.or_applications,
        report.remaining_places,
        report.remaining_transitions,
    ) == (
        expected.and_applications,
        expected.or_applications,
        expected.remaining_places,
        expected.remaining_transitions,
    )
    assert edges_signature(chart) == net_edges_signature(net)
    assert validate_chart(chart) == []


def test_transform_leaves_the_input_untouched():
    from netchart import check_net

    net = diamond()
    transform(net)
    assert set(net.places) == {"q", "a", "b", "r"}
    assert set(net.transitions) == {"t1", "t2"}
    assert check_net(net) == []


def test_transform_diamond_end_to_end():
    chart, report, trace = transform(diamond())
    assert report.fully_reduced
    assert len(trace) == 13
    assert chart_signature(chart) == "and(or(and(or(b[a]),or(b[b])),b[q],b[r]))"
    top_or = list(chart.topstate.children)[0]
    kinds = [type(child) for child in top_or.children]
    assert kinds == [Basic, AndState, Basic]
    assert [c.origin_place for c in top_or.children if isinstance(c, Basic)] == ["q", "r"]
    assert validate_chart(chart) == []


def test_transform_trace_names_every_rule_once_per_input():
    _, _, trace = transform(diamond())
    assert [(e.rule, e.input, e.output) for e in trace[:2]] == [
        ("AndRulePlace2Or", "m0", "s10"),
        ("PetriNet2StateChart", "D1", "D1"),
    ]
    rules = {e.rule for e in trace}
    assert rules == {
        "AndRulePlace2Or",
        "PetriNet2StateChart",
        "PetriNet2TopState",
        "Place2Basic",
        "Place2Or",
        "Transition2HyperEdge",
    }
    assert len({(e.rule, e.input) for e in trace}) == len(trace)


def test_transform_charts_are_valid_across_the_corpus():
    nets = [diamond(), three_cycle(), two_chain(), single_place()]
    nets += [generate_sp(SpSpec(places=n, seed=n)) for n in (5, 17, 33)]
    for net in nets:
        chart, report, _ = transform(net)
        assert validate_chart(chart) == []
        assert len([e for e in chart.hyperedges]) == len(net.transitions)
        basics = [s for s in chart.states() if isinstance(s, Basic)]
        assert len(basics) == len(net.places)


def test_merge_groups_share_adjacency_when_replaced(monkeypatch):
    recorded = []
    original = PetriNet.replace_places

    def checked(self, group, fresh_id):
        members = list(group)
        first = members[0]
        for place in members[1:]:
            assert place.pre_transitions == first.pre_transitions
            assert place.post_transitions == first.post_transitions
        recorded.append(len(members))
        return original(self, group, fresh_id)

    monkeypatch.setattr(PetriNet, "replace_places", checked)
    chart, report, _ = transform(generate_sp(SpSpec(places=60, seed=3)))
    assert report.fully_reduced
    assert recorded and all(size >= 2 for size in recorded)
    assert len(recorded) == report.and_applications


def test_merged_place_ids_avoid_the_input_namespace():
    net = PetriNet("n")
    net.add_place("m0")
    net.add_place("a")
    net.add_place("b")
    net.add_place("r")
    net.add_transition("t1", ["m0"], ["a", "b"])
    net.add_transition("t2", ["a", "b"], ["r"])
    _, report, trace = transform(net)
    assert report.fully_reduced
    merged = [e.input for e in trace if e.rule == "AndRulePlace2Or"]
    assert merged == ["m1"]


def test_transform_is_deterministic_in_process():
    blobs = {write_chart(transform(diamond()).chart, "xml") for _ in range(3)}
    assert len(blobs) == 1
