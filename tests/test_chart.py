"""Statechart model: id blocks, tree building, validation, and the chart
writers' refusal of what validation reports."""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchart import (
    AndState,
    Basic,
    HyperEdge,
    OrState,
    PreconditionError,
    SpSpec,
    StateChart,
    TreeError,
    ValidationError,
    generate_sp,
    parse_chart,
    transform,
    validate_chart,
    write_chart,
    write_trace,
)
from netchart import chart as chart_module
from oracle import reference_validate_chart
from support import chart_identical, general_nets, line_events


def _tiny_chart() -> StateChart:
    chart = StateChart("tiny")
    or_state, chart.topstate = OrState("s1"), AndState("s2")
    or_state.children[Basic("s0", "p")] = None
    chart.topstate.children[or_state] = None
    return chart


def test_id_blocks_continue_one_sequence():
    chart = StateChart("c")
    assert list(chart.node_ids(3)) == ["s0", "s1", "s2"]
    assert list(chart.node_ids(0)) == []
    assert list(chart.node_ids(2)) == ["s3", "s4"]
    # hyperedges count on their own
    assert list(chart.edge_ids(1)) == ["h0"]
    assert list(chart.edge_ids(2)) == ["h1", "h2"]


@pytest.fixture
def empty_id_lists(monkeypatch):
    """Start from the state of a fresh process: no id strings made yet."""
    monkeypatch.setattr(chart_module, "_NODE_IDS", [])
    monkeypatch.setattr(chart_module, "_EDGE_IDS", [])


def _assert_ids_in_place(nodes: int, edges: int) -> None:
    """The shared lists hold exactly the first *nodes* and *edges* ids,
    element k the k-th."""
    assert chart_module._NODE_IDS == [f"s{k}" for k in range(nodes)]
    assert chart_module._EDGE_IDS == [f"h{k}" for k in range(edges)]


def test_charts_cannot_see_the_shared_id_lists(empty_id_lists):
    """Every chart's ids start at s0 and h0, whatever charts came before: a
    chart built after a larger one takes a prefix of the shared lists, and
    one built after a smaller one grows them, to its own count only."""
    larger = StateChart("larger")
    assert larger.node_ids(9) == [f"s{k}" for k in range(9)]
    assert larger.edge_ids(4) == ["h0", "h1", "h2", "h3"]
    after_larger = StateChart("after larger")
    assert after_larger.node_ids(3) == ["s0", "s1", "s2"]
    assert after_larger.edge_ids(1) == ["h0"]
    _assert_ids_in_place(9, 4)
    after_smaller = StateChart("after smaller")
    assert after_smaller.node_ids(7) == [f"s{k}" for k in range(7)]
    assert after_smaller.node_ids(2) == ["s7", "s8"]
    assert after_smaller.node_ids(2) == ["s9", "s10"]  # two past the end
    assert after_smaller.edge_ids(6) == [f"h{k}" for k in range(6)]
    _assert_ids_in_place(11, 6)
    small, large = generate_sp(SpSpec(12, 3)), generate_sp(SpSpec(40, 3))
    alone = write_chart(transform(small).chart, "xml")
    transform(large)
    assert write_chart(transform(small).chart, "xml") == alone


def test_a_returned_id_block_is_the_callers_own(empty_id_lists):
    first = StateChart("first")
    nodes, edges = first.node_ids(4), first.edge_ids(3)
    nodes[:] = ["x"] * 4
    edges.reverse()
    nodes.append("s4")
    second = StateChart("second")
    assert second.node_ids(5) == ["s0", "s1", "s2", "s3", "s4"]
    assert second.edge_ids(3) == ["h0", "h1", "h2"]
    _assert_ids_in_place(5, 3)


def test_threads_building_charts_write_the_sequential_bytes(empty_id_lists, monkeypatch):
    """Four threads transform nets of different sizes, each in its own
    order, from empty id lists and with a short switch interval, so they
    grow the shared lists over each other, and with the limit at 2,000 ids,
    which the two larger nets pass: every chart and trace document is the
    one a sequential run writes, and element k stays the k-th id."""
    monkeypatch.setattr(chart_module, "_CACHED_IDS", 2000)
    nets = [generate_sp(SpSpec(places, 5)) for places in (1500, 40, 600, 3000)]

    def documents(net):
        chart, _, trace = transform(net)
        return write_chart(chart, "xml"), write_chart(chart, "json"), write_trace(trace)

    expected = [documents(net) for net in nets]
    chart_module._NODE_IDS.clear()
    chart_module._EDGE_IDS.clear()
    start = threading.Barrier(4)
    results: dict[int, list] = {}

    def run(worker: int) -> None:
        order = [(worker + step) % len(nets) for step in range(len(nets))]
        start.wait()
        results[worker] = [(n, documents(nets[n])) for n in order]

    threads = [threading.Thread(target=run, args=(worker,)) for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for runs in results.values():
        for n, documents_written in runs:
            assert documents_written == expected[n]
    charts = [transform(net).chart for net in nets]
    _assert_ids_in_place(min(2000, max(chart._next_node for chart in charts)),
                         min(2000, max(chart._next_edge for chart in charts)))


def test_ids_past_the_limit_are_made_for_each_chart(empty_id_lists, monkeypatch):
    """A block that ends past `_CACHED_IDS` takes the cached ids and makes
    the rest; the lists stop at the limit, and a chart's documents are the
    same whatever the limit."""
    net = generate_sp(SpSpec(300, 4))
    documents = write_chart(transform(net).chart, "xml"), write_chart(transform(net).chart, "json")
    monkeypatch.setattr(chart_module, "_NODE_IDS", [])
    monkeypatch.setattr(chart_module, "_EDGE_IDS", [])
    monkeypatch.setattr(chart_module, "_CACHED_IDS", 5)
    chart = StateChart("c")
    assert chart.node_ids(3) == ["s0", "s1", "s2"]
    assert chart.node_ids(4) == ["s3", "s4", "s5", "s6"]
    assert chart.node_ids(2) == ["s7", "s8"]
    assert chart.edge_ids(7) == [f"h{k}" for k in range(7)]
    _assert_ids_in_place(5, 5)
    assert StateChart("d").node_ids(6) == [f"s{k}" for k in range(6)]
    _assert_ids_in_place(5, 5)
    monkeypatch.setattr(chart_module, "_CACHED_IDS", 100)
    result = transform(net)
    assert result.chart._next_node > 100 and result.chart._next_edge > 100
    assert (write_chart(result.chart, "xml"), write_chart(result.chart, "json")) == documents
    _assert_ids_in_place(100, 100)


@pytest.mark.parametrize("limit", [None, 1000])
def test_the_id_lists_keep_only_the_largest_charts_ids(empty_id_lists, monkeypatch, limit):
    """After a `transform` of sp2000 is freed, the shared lists hold
    exactly the ids that chart took, up to the limit, and `tracemalloc`
    sees at most 80 bytes kept per id held: the string, its list slot and
    the list's slack.  With the limit at 1,000, both lists stop there."""
    if limit is not None:
        monkeypatch.setattr(chart_module, "_CACHED_IDS", limit)
    limit = chart_module._CACHED_IDS
    net = generate_sp(SpSpec(2000, 11))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = transform(net)
        nodes, edges = result.chart._next_node, result.chart._next_edge
        del result
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    held = min(nodes, limit), min(edges, limit)
    _assert_ids_in_place(*held)
    assert kept <= 80 * sum(held), (kept, held)


def test_attach_enforces_alternation():
    # the chart reader attaches each node to its container and refuses the
    # two alternation breaks: an OR state under an OR state, and a basic
    # state directly under an AND state
    or_in_or = (b'<statechart name="c"><and id="s3"><or id="s0"><or id="s2">'
                b'<basic id="s1" place="q"/></or></or></and></statechart>')
    with pytest.raises(TreeError, match="^OR state 's0' can only contain Basic or AND states$"):
        parse_chart(or_in_or)
    basic_in_and = (b'<statechart name="c"><and id="s3"><or id="s2"><basic id="s1" place="q"/>'
                    b'</or><basic id="s4" place="r"/></and></statechart>')
    with pytest.raises(TreeError, match="^AND state 's3' can only contain OR states$"):
        parse_chart(basic_in_and)
    chart = parse_chart(b'<statechart name="c"><and id="s3"><or id="s2">'
                        b'<basic id="s1" place="q"/></or></and></statechart>')
    (other,) = chart.topstate.children
    assert type(other) is OrState and other.id == "s2"
    assert [(type(n), n.id) for n in other.children] == [(Basic, "s1")]


def test_states_yields_preorder():
    a, b, q = Basic("s0", "a"), Basic("s1", "b"), Basic("s5", "q")
    left, right, top_or = OrState("s2"), OrState("s3"), OrState("s6")
    inner, top = AndState("s4"), AndState("s7")
    for composite, child in (
        (left, a), (right, b), (inner, left), (inner, right), (top_or, q), (top_or, inner),
        (top, top_or),
    ):
        composite.children[child] = None
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
    chart.topstate.children[Basic("s0", "p")] = None
    assert any("not an AND" in v for v in validate_chart(chart))


def test_validate_reports_empty_composites():
    chart = _tiny_chart()
    list(chart.topstate.children)[0].children.clear()
    assert any("no children" in v for v in validate_chart(chart))


def test_validate_requires_two_children_below_the_root():
    chart = StateChart("c")
    leaf_or, inner, top_or = OrState("s1"), AndState("s2"), OrState("s3")
    chart.topstate = AndState("s4")
    for composite, child in (
        (leaf_or, Basic("s0", "p")), (inner, leaf_or), (top_or, inner), (chart.topstate, top_or),
    ):
        composite.children[child] = None
    assert validate_chart(chart) == ["and 's2': fewer than 2 children"]


def test_validate_reports_alternation_breaks():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    stray = OrState("s4")
    stray.children[Basic("s3", "x")] = None
    or_state.children[stray] = None
    assert any("is an OR state" in v for v in validate_chart(chart))
    chart = _tiny_chart()
    chart.topstate.children[Basic("s9", "x")] = None
    assert validate_chart(chart) == ["and 's2': child 's9' is not an OR state"]


def test_validate_reports_duplicate_ids():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    or_state.children[Basic(list(or_state.children)[0].id, "p2")] = None
    assert any(v.startswith("duplicate node id") for v in validate_chart(chart))


def test_validate_reports_shared_subtrees():
    chart = _tiny_chart()
    or_state = list(chart.topstate.children)[0]
    basic = list(or_state.children)[0]
    second = OrState("s99")
    second.children[basic] = None
    chart.topstate.children[second] = None
    violations = validate_chart(chart)
    assert any("reached twice" in v for v in violations)


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


def test_validate_skips_the_duplicate_test_for_unhashable_ids():
    # a chart changed by hand can hold an id no hash takes; it repeats no
    # other id, and `check_id` refuses it where the chart is written
    chart = _tiny_chart()
    basic = list(list(chart.topstate.children)[0].children)[0]
    basic.id = ["x"]
    edge = HyperEdge(["x"], "t")
    edge.sources.append(basic)
    chart.hyperedges.append(edge)
    assert validate_chart(chart) == ["hyperedge ['x']: no targets"]
    assert validate_chart(chart) == reference_validate_chart(chart)


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
    if kind == "duplicate node id" and node:
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
            wrapper.children[leaf] = None
            inner.children[wrapper] = None
            _pick(ors, j).children[inner] = None
    elif kind == "basic under and":
        ands = [n for n in nodes if isinstance(n, AndState)]
        leaf = _pick([n for n in nodes if isinstance(n, Basic)], k)
        if leaf:  # an emptied composite can leave no basic to move
            _pick(ands, j).children[leaf] = None
    elif kind == "relink" and node:
        # move the node out of every composite that holds it into another
        for composite in composites:
            composite.children.pop(node, None)
        _pick(composites, j).children[node] = None
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
    "duplicate node id", "duplicate edge id", "reach twice", "empty composite",
    "lone inner and", "basic under and", "relink", "composite endpoint",
    "outside endpoint", "foreign endpoint", "empty side",
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


@settings(max_examples=300, deadline=None)
@given(
    _SMALL_NETS,
    st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 999), st.integers(0, 999)),
        max_size=4,
    ),
    st.none() | st.integers(0, 999),
)
def test_writers_refuse_what_the_reference_reports(net, mutations, refused):
    """The writers check inline what `validate_chart` checks: each raises
    exactly the reference's list, before any refused id, and writes every
    valid chart in bytes its reader reads back to an equal chart."""
    chart = transform(net).chart
    for kind, k, j in mutations:
        _mutate(chart, kind, k, j)
    if refused is not None:
        _pick(_nodes(chart), refused).id = "a b"  # no reader accepts it
    expected = reference_validate_chart(chart)
    for format in ("xml", "json"):
        if expected:
            with pytest.raises(ValidationError) as info:
                write_chart(chart, format)
            assert str(info.value) == f"chart {chart.name!r} is not well formed"
            assert info.value.violations == expected
        elif refused is not None:
            with pytest.raises(PreconditionError, match="^state id 'a b' must be"):
                write_chart(chart, format)
        else:
            data = write_chart(chart, format)
            back = parse_chart(data)
            assert chart_identical(chart, back)
            assert write_chart(back, format) == data


@pytest.mark.parametrize("format", ["xml", "json"])
def test_writers_refuse_consistently_linked_breaks(format):
    """Breaks that reach every node once, so only the writers' kind
    checks catch them: an OR state under an OR state, and a basic under an
    AND state."""
    charts = [_tiny_chart() for _ in range(2)]
    or_state = list(charts[0].topstate.children)[0]
    stray = OrState("s4")
    stray.children[Basic("s3", "x")] = None
    or_state.children[stray] = None
    charts[1].topstate.children[Basic("s9", "x")] = None
    for chart in charts:
        with pytest.raises(ValidationError) as info:
            write_chart(chart, format)
        assert info.value.violations == reference_validate_chart(chart) != []



@pytest.mark.parametrize("format", ["xml", "json"])
def test_writers_stop_on_cyclic_children(format):
    """Children that form cycles: an OR state that lists the topstate, and
    an inner AND state that lists its own wrapper OR state.  The writers'
    walks stop at the first id they reach twice, well within a budget of
    line events, and raise the reference's list."""
    chart = _tiny_chart()
    top = chart.topstate
    list(top.children)[0].children[top] = None
    wrapper, inner, branch = OrState("s3"), AndState("s4"), OrState("s5")
    branch.children[Basic("s6", "q")] = None
    inner.children.update({branch: None, wrapper: None})
    wrapper.children[inner] = None
    top.children[wrapper] = None
    expected = reference_validate_chart(chart)
    assert any("reached twice" in v for v in validate_chart(chart))
    assert validate_chart(chart) == expected
    with pytest.raises(ValidationError) as info:
        line_events(write_chart, chart, format, budget=2000)
    assert info.value.violations == expected


def _cyclic_charts() -> list[StateChart]:
    """The two cycles of `test_writers_stop_on_cyclic_children`, one chart
    each: an OR state that lists the topstate, and an inner AND state
    that lists its own wrapper OR state."""
    first, second = _tiny_chart(), _tiny_chart()
    list(first.topstate.children)[0].children[first.topstate] = None
    wrapper, inner, branch = OrState("s3"), AndState("s4"), OrState("s5")
    branch.children[Basic("s6", "q")] = None
    inner.children.update({branch: None, wrapper: None})
    wrapper.children[inner] = None
    second.topstate.children[wrapper] = None
    return [first, second]


def test_states_skip_a_node_reached_twice():
    """A chart built by hand with a cycle (AND, then OR, then the same
    AND) and a basic state under two OR states: the walk yields each node
    once, and ends."""
    chart = StateChart("c")
    top, first, second, shared = AndState("s0"), OrState("s1"), OrState("s2"), Basic("s3", "p")
    first.children.update({shared: None, top: None})
    second.children[shared] = None
    top.children.update({first: None, second: None})
    chart.topstate = top
    assert [node.id for node in islice(chart.states(), 10)] == ["s0", "s1", "s3", "s2"]


def test_states_yield_each_node_once_on_cyclic_children():
    """`states()` skips a node it has reached before, so it ends on a
    cyclic `children` graph, well within a budget of line events."""
    expected = [["s2", "s1", "s0"], ["s2", "s1", "s0", "s3", "s4", "s5", "s6"]]
    for chart, ids in zip(_cyclic_charts(), expected):
        states, _ = line_events(lambda: list(chart.states()), budget=500)
        assert [node.id for node in states] == ids
