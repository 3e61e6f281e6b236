"""Transformation pipeline: initialization, the two reduction rules, reduce."""

from __future__ import annotations

import hashlib
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
    StateChart,
    Trace,
    TraceEntry,
    TraceError,
    ValidationError,
    check_net,
    generate_sp,
    initialize,
    parse_net,
    reduce,
    transform,
    validate_chart,
    write_chart,
    write_net,
    write_trace,
)
from netchart import chart as chart_module
from families import (
    APPENDED_ARCS_CHART,
    APPENDED_ARCS_SEED,
    APPENDED_ARCS_SEEDED_CHART_SHA256,
    APPENDED_ARCS_TRACE_SHA256,
    FAMILIES,
    KEYED_ORDER_CHART,
    KEYED_ORDER_SEED,
    KEYED_ORDER_TRACE_SHA256,
    NON_CONFLUENT,
    appended_arcs,
    keyed_order,
    two_way_choice,
)
from oracle import oracle_reduce
from support import (
    chart_signature,
    diamond,
    edges_signature,
    general_nets,
    line_events,
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
    _, post = net.transitions["t1"]
    post[PetriNet("other").add_place("x")] = None
    trace = Trace()
    with pytest.raises(ValidationError) as info:
        initialize(net, trace)
    assert info.value.violations
    assert trace.export() == []


def test_rule_sets_are_single_use():
    net = diamond()
    chart, trace = _initialized(net)
    ors = list(chart.topstate.children)
    before = trace.export()
    with pytest.raises(PreconditionError, match="fresh Trace"):
        initialize(net, trace)
    assert trace.export() == before
    assert list(chart.topstate.children) == ors
    assert [basic.origin_place for state in ors for basic in state.children] == list(net.places)


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


def _reduced(net, rng=None):
    chart, trace = _initialized(net)
    report = reduce(net, chart, trace, rng=rng)
    return chart, report, trace


def _counters(report):
    return (
        report.and_applications,
        report.or_applications,
        report.remaining_places,
        report.remaining_transitions,
    )


def _and_states(chart):
    """AND states below the topstate, in creation order."""
    return sorted(
        (s for s in chart.states() if isinstance(s, AndState) and s is not chart.topstate),
        key=lambda state: int(state.id[1:]),
    )


def _child_places(state):
    return [list(o.children)[0].origin_place for o in state.children]


def test_or_rule_collapses_a_sequential_step():
    chart, report, _ = _reduced(two_chain())
    assert _counters(report) == (0, 1, 1, 0)
    assert chart_signature(chart) == "and(or(b[p2],b[p]))"
    or_q = list(chart.topstate.children)[0]
    assert [b.origin_place for b in or_q.children] == ["p", "p2"]
    assert validate_chart(chart) == []


def test_or_rule_skips_wrong_arities():
    # neither diamond transition has one place a side, so the AND rule
    # must merge {a, b} before the OR rule can fire at all
    chart, report, trace = _reduced(diamond())
    assert _counters(report) == (1, 2, 1, 0)
    assert chart_signature(chart) == "and(or(and(or(b[a]),or(b[b])),b[q],b[r]))"
    assert [e.input for e in trace.export() if e.rule == "AndRulePlace2Or"] == ["m0"]


def test_or_rule_skips_self_loops():
    net = PetriNet("n")
    net.add_place("p")
    net.add_transition("t", ["p"], ["p"])
    chart, report, _ = _reduced(net)
    assert _counters(report) == (0, 0, 1, 1)
    assert chart_signature(chart) == "and(or(b[p]))"


def test_or_rule_skips_doubled_transitions():
    net = PetriNet("n")
    net.add_place("q")
    net.add_place("p")
    net.add_transition("t", ["q"], ["p"])
    net.add_transition("t2", ["q"], ["p"])
    # fusing would turn the twin transition into a self-loop
    chart, report, _ = _reduced(net)
    assert _counters(report) == (0, 0, 2, 2)
    assert chart_signature(chart) == "and(or(b[p]),or(b[q]))"


def test_or_rule_skips_two_place_cycles():
    net = PetriNet("n")
    net.add_place("q")
    net.add_place("p")
    net.add_transition("fwd", ["q"], ["p"])
    net.add_transition("back", ["p"], ["q"])
    chart, report, _ = _reduced(net)
    assert _counters(report) == (0, 0, 2, 2)
    assert chart_signature(chart) == "and(or(b[p]),or(b[q]))"


def test_or_rule_ignores_removed_transitions():
    # the OR rule consumes its transition and the AND rule none, so a
    # transition that came back onto the worklist after its removal would
    # show up as an extra OR application (or fail outright)
    nets = [diamond(), three_cycle(), two_way_choice(), generate_sp(SpSpec(places=40, seed=5))]
    for net in nets:
        for rng in [None] + [random.Random(seed) for seed in range(10)]:
            _, report, _ = _reduced(net, rng)
            assert report.or_applications == len(net.transitions) - report.remaining_transitions


def test_and_rule_merges_a_parallel_group():
    chart, report, trace = _reduced(diamond())
    assert report.fully_reduced
    (and_state,) = _and_states(chart)
    assert _child_places(and_state) == ["a", "b"]
    top_or = list(chart.topstate.children)[0]
    assert and_state in top_or.children
    assert [type(c) for c in top_or.children] == [Basic, AndState, Basic]
    entries = [e for e in trace.export() if e.rule == "AndRulePlace2Or"]
    # the wrapper OR of m0 is created right after the AND state
    assert [(e.input, e.output) for e in entries] == [("m0", f"s{int(and_state.id[1:]) + 1}")]


def test_and_rule_orders_the_group_by_declaration():
    net = PetriNet("n")
    net.add_place("z")
    net.add_place("y")
    net.add_place("q")
    # transition lists y before z; declaration order must win
    net.add_transition("t", ["q"], ["y", "z"])
    chart, report, trace = _reduced(net)
    assert _counters(report) == (1, 1, 1, 0)
    (and_state,) = _and_states(chart)
    assert _child_places(and_state) == ["z", "y"]
    assert [e.input for e in trace.export() if e.rule == "AndRulePlace2Or"] == ["m0"]


def test_and_rule_prefers_the_preset():
    net = PetriNet("n")
    for id in ("a", "b", "c", "d"):
        net.add_place(id)
    net.add_transition("t", ["a", "b"], ["c", "d"])
    # a self-loop breaks the preset symmetry for good; the equal postset
    # must not be tried instead
    net.add_transition("u", ["a"], ["a"])
    chart, report, _ = _reduced(net)
    assert _counters(report) == (0, 0, 4, 2)
    assert _and_states(chart) == []

    # with the asymmetry removed the preset merges first, then the postset
    net2 = PetriNet("n")
    for id in ("a", "b", "c", "d"):
        net2.add_place(id)
    net2.add_transition("t", ["a", "b"], ["c", "d"])
    chart2, report2, _ = _reduced(net2)
    assert _counters(report2) == (2, 1, 1, 0)
    assert [_child_places(s) for s in _and_states(chart2)] == [["a", "b"], ["c", "d"]]


def test_and_rule_skips_unequal_groups():
    net = diamond()
    net.add_place("u")
    net.add_transition("t3", ["a"], ["u"])
    # t1 and t2 are tried first and find a and b unequal; only after the
    # OR rule fuses u into a does the group merge
    chart, report, _ = _reduced(net)
    assert _counters(report) == (1, 3, 1, 0)
    assert chart_signature(chart) == (
        "and(or(and(or(b[a],b[u]),or(b[b])),b[q],b[r]))"
    )
    # a doubled a->u keeps the group unequal for good
    net.add_transition("t4", ["a"], ["u"])
    chart, report, _ = _reduced(net)
    assert _counters(report) == (0, 0, 5, 4)
    assert _and_states(chart) == []


def test_and_rule_skips_self_looped_members():
    net = PetriNet("n")
    net.add_place("a")
    net.add_place("b")
    net.add_transition("t", ["a", "b"], ["a", "b"])
    chart, report, _ = _reduced(net)
    assert _counters(report) == (0, 0, 2, 1)
    assert chart_signature(chart) == "and(or(b[a]),or(b[b]))"


def test_and_rule_skips_wrong_arities():
    _, report, trace = _reduced(two_chain())
    assert report.and_applications == 0
    assert [e for e in trace.export() if e.rule == "AndRulePlace2Or"] == []


def _refused(net, chart, trace):
    """Assert that `reduce` raises `TraceError` and changes neither the
    chart's bytes nor the trace's export."""
    before, entries = write_chart(chart, "xml"), trace.export()
    with pytest.raises(TraceError):
        reduce(net, chart, trace)
    assert write_chart(chart, "xml") == before
    assert trace.export() == entries


def test_rules_refuse_untraced_places():
    net = two_chain()
    chart, trace = _initialized(net)
    foreign = PetriNet("other")
    foreign.add_place("x")
    foreign.add_place("y")
    foreign.add_transition("t9", ["x"], ["y"])
    _refused(foreign, chart, trace)


def test_reduce_refuses_a_copy_of_its_net():
    # the index graph `initialize` handed over belongs to the net object
    # it read; a copy with the same ids is another net
    net = two_chain()
    chart, trace = _initialized(net)
    _refused(parse_net(write_net(net)), chart, trace)
    assert reduce(net, chart, trace).or_applications == 1


def test_reduce_refuses_a_second_pass():
    net = two_chain()
    chart, trace = _initialized(net)
    assert reduce(net, chart, trace).or_applications == 1
    # `reduce` took the index graph off the trace, and the chart no longer
    # has one OR state per place of the net
    _refused(net, chart, trace)


def test_reduce_refuses_a_chart_from_another_pass():
    # the trace holds the index graph of its own pass; a flat chart of the
    # same net from another pass has other OR states, and a chart with no
    # topstate has none
    net = two_chain()
    chart, trace = _initialized(net)
    other, _ = _initialized(net)
    _refused(net, other, trace)
    with pytest.raises(TraceError, match="is not the flat chart traced"):
        reduce(net, StateChart(net.name), trace)
    assert reduce(net, chart, trace).or_applications == 1


@pytest.mark.parametrize(
    "build",
    [diamond, three_cycle, lambda: generate_sp(SpSpec(places=60, seed=3))],
    ids=["diamond", "three_cycle", "sp60"],
)
def test_reduce_leaves_its_net_untouched(build):
    net = build()
    before = {format: write_net(net, format) for format in ("xml", "json")}
    _, report, _ = _reduced(net)
    if net.name.startswith("sp"):
        assert report.and_applications > 0
    assert {format: write_net(net, format) for format in ("xml", "json")} == before
    assert check_net(net) == []


def test_reduce_diamond_counters():
    net = diamond()
    chart, trace = _initialized(net)
    report = reduce(net, chart, trace)
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
    chart, report, trace = _reduced(net)
    children = list(chart.topstate.children)
    assert len(children) == report.remaining_places == 2
    traced = {e.output for e in trace.export() if e.rule in ("Place2Or", "AndRulePlace2Or")}
    for child in children:
        assert isinstance(child, OrState) and child.id in traced


def test_randomized_reduce_matches_the_fifo_result():
    for places in (9, 23, 40):
        net = generate_sp(SpSpec(places=places, seed=77))
        baseline_chart, baseline_report, _ = transform(net)
        for seed in range(5):
            chart, report, _ = transform(net, rng=random.Random(seed))
            assert chart_signature(chart) == chart_signature(baseline_chart)
            assert report == baseline_report


@settings(max_examples=200, deadline=None)
@given(
    places=st.integers(1, 200),
    net_seed=st.integers(0, 2**32 - 1),
    max_branch=st.integers(2, 9),
    pick_seed=st.integers(0, 2**32 - 1),
)
def test_random_orders_are_confluent_on_sp_nets(places, net_seed, max_branch, pick_seed):
    net = generate_sp(SpSpec(places=places, seed=net_seed, max_branch=max_branch))
    fifo = transform(net)
    picked = transform(net, rng=random.Random(pick_seed))
    assert picked.report.fully_reduced and fifo.report.fully_reduced
    assert chart_signature(picked.chart) == chart_signature(fifo.chart)


def test_random_order_is_not_confluent_on_general_nets():
    for build, fifo, shapes in NON_CONFLUENT.values():
        assert chart_signature(transform(build()).chart) == fifo
        assert oracle_reduce(*net_to_plain(build())).signature == fifo
        reached = {
            chart_signature(transform(build(), rng=random.Random(seed)).chart)
            for seed in range(40)
        }
        assert reached == shapes


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


@settings(max_examples=200, deadline=None)
@given(general_nets(), st.integers(0, 2**32 - 1))
def test_conservation_invariants_hold_on_general_nets(net, seed):
    position = {pid: i for i, pid in enumerate(net.places)}
    for rng in (None, random.Random(seed)):
        trace = Trace()
        chart = initialize(net, trace)
        ors = list(chart.topstate.children)
        reduce(net, chart, trace, rng=rng)
        states = list(chart.states())
        basics = [s for s in states if isinstance(s, Basic)]
        basic_of = {b.origin_place: b for b in basics}
        # every place has exactly one basic
        assert len(basics) == len(basic_of) and basic_of.keys() == net.places.keys()
        # one hyperedge per transition, in net order, with endpoints in
        # place-declaration order
        assert [e.origin_transition for e in chart.hyperedges] == list(net.transitions)
        for edge, (pre, post) in zip(chart.hyperedges, net.transitions.values()):
            for endpoints, side in ((edge.sources, pre), (edge.targets, post)):
                expected = sorted(side, key=position.__getitem__)
                assert endpoints == [basic_of[place] for place in expected]
        # an OR state the OR rule fused away is left empty
        held = set(states)
        for state in ors:
            if state not in held:
                assert state.children == {}


@pytest.mark.parametrize("name", ["choice", "descending_ids"])
def test_fifo_follows_declaration_order_not_id_order(name):
    build, signature, _ = NON_CONFLUENT[name]
    chart, report, _ = transform(build())
    expected = oracle_reduce(*net_to_plain(build()))
    assert chart_signature(chart) == expected.signature == signature
    assert _counters(report) == (
        expected.and_applications,
        expected.or_applications,
        expected.remaining_places,
        expected.remaining_transitions,
    )


def test_seeded_reduction_keeps_the_keyed_adjacency_order():
    # when the place with more arcs keeps its slot, the other place's
    # transitions come first around it; appending them after changes
    # which transitions the seeded picks meet, and so this chart
    chart, _, trace = transform(keyed_order(), rng=random.Random(KEYED_ORDER_SEED))
    assert write_chart(chart, "xml") == KEYED_ORDER_CHART
    assert hashlib.sha256(write_trace(trace)).hexdigest() == KEYED_ORDER_TRACE_SHA256


def test_fusion_into_a_keyed_slot_moves_the_fused_places_arcs():
    # an OR fusion in which a place has keyed adjacency entries moves the
    # other place's arcs with `_Graph._append`; dropping them blocks the
    # AND rule and leaves six places instead of four
    expected = oracle_reduce(*net_to_plain(appended_arcs()))
    fifo = transform(appended_arcs())
    seeded = transform(appended_arcs(), rng=random.Random(APPENDED_ARCS_SEED))
    for chart, report, trace in (fifo, seeded):
        assert chart_signature(chart) == expected.signature
        assert (report.and_applications, report.remaining_places) == (1, 4)
        assert hashlib.sha256(write_trace(trace)).hexdigest() == APPENDED_ARCS_TRACE_SHA256
    assert write_chart(fifo.chart, "xml") == APPENDED_ARCS_CHART
    seeded_chart = write_chart(seeded.chart, "xml")
    assert hashlib.sha256(seeded_chart).hexdigest() == APPENDED_ARCS_SEEDED_CHART_SHA256


@pytest.mark.parametrize("name", list(FAMILIES))
def test_initialize_work_scales_linearly_on_every_family(name):
    """`initialize` at 8 times the size executes at most 8.4 times the
    lines of netchart's code, the gate on `reduce` below.  Work inside C
    calls is not counted (see `line_events`): the `map`, `sorted` and
    `dict.update` calls that build the flat chart and its trace count as
    the line that makes them, and the collector's passes, which run in
    C too, count nothing.  `StateChart.node_ids` and `edge_ids` make
    their id strings in C as well (see `chart._made_ids`), and share them
    between the charts of a process, so an id counts no line whether an
    earlier chart made it or not."""
    counts = [line_events(initialize, FAMILIES[name](k), Trace())[1] for k in (1000, 8000)]
    assert counts[1] <= 8.4 * counts[0], counts


def test_growing_the_id_lists_adds_a_constant_count_of_line_events(monkeypatch):
    """From empty id lists, a first `initialize` grows them and a second
    one of the same net takes slices only: the first counts the same few
    line events more at 1,000 places as at 8,000, whose 16,001 node ids
    pass the limit, so both calls make the ids past it."""
    extra = []
    for k in (1000, 8000):
        monkeypatch.setattr(chart_module, "_NODE_IDS", [])
        monkeypatch.setattr(chart_module, "_EDGE_IDS", [])
        net = FAMILIES["chain"](k)
        first, second = (line_events(initialize, net, Trace())[1] for _ in range(2))
        extra.append(first - second)
    assert chart_module._CACHED_IDS < 1 + 2 * 8000
    assert extra[0] == extra[1] > 0, extra


@pytest.mark.parametrize("name", list(FAMILIES))
def test_reduce_work_scales_linearly_on_every_family(name):
    """`reduce` at 8 times the size executes at most 8.4 times the lines
    of netchart's code: a gate on work that machine load cannot move, as
    wall-clock ratios can.  Work inside C calls is not counted (see
    `line_events`)."""
    counts = []
    for k in (1000, 8000):
        net = FAMILIES[name](k)
        trace = Trace()
        chart = initialize(net, trace)
        counts.append(line_events(reduce, net, chart, trace)[1])
    assert counts[1] <= 8.4 * counts[0], counts


def test_transform_leaves_the_input_untouched():
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


def test_trace_keeps_naming_or_states_a_later_fusion_emptied():
    chart, _, trace = transform(diamond())
    ors = {e.output for e in trace if e.rule in ("Place2Or", "AndRulePlace2Or")}
    assert ors - {node.id for node in chart.states()} == {"s7", "s10"}


def test_transform_charts_are_valid_across_the_corpus():
    nets = [diamond(), three_cycle(), two_chain(), single_place()]
    nets += [generate_sp(SpSpec(places=n, seed=n)) for n in (5, 17, 33)]
    for net in nets:
        chart, report, _ = transform(net)
        assert validate_chart(chart) == []
        assert len([e for e in chart.hyperedges]) == len(net.transitions)
        basics = [s for s in chart.states() if isinstance(s, Basic)]
        assert len(basics) == len(net.places)


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
    # transition ids are skipped too
    net.add_place("c")
    net.add_place("d")
    net.add_transition("m1", ["r"], ["c", "d"])
    _, report, trace = transform(net)
    merged = [e.input for e in trace if e.rule == "AndRulePlace2Or"]
    assert report.and_applications == 2
    assert merged == ["m2", "m3"]


def test_transform_is_deterministic_in_process():
    blobs = {write_chart(transform(diamond()).chart, "xml") for _ in range(3)}
    assert len(blobs) == 1
