"""Automatic garbage collection around the library's entry points.

Each call that builds a model or a document runs with automatic
collection paused and gives the caller's setting back on every exit.
Pausing is safe because what the calls leave behind, results and
dropped exceptions alike, holds no reference cycle: reference counting
frees it all, and `gc.collect()` finds nothing afterwards.
"""

from __future__ import annotations

import gc
import random

import pytest

from netchart import (
    ParseError,
    SpSpec,
    Trace,
    TraceError,
    TreeError,
    ValidationError,
    generate_sp,
    initialize,
    parse_chart,
    parse_net,
    parse_trace,
    reduce,
    transform,
    write_chart,
    write_net,
    write_trace,
)
from support import diamond, three_cycle

SPEC = SpSpec(places=2000, seed=3)


@pytest.fixture(scope="module")
def documents() -> dict:
    net = generate_sp(SPEC)
    chart, _, trace = transform(net)
    return {
        "net": net,
        "trace": trace,
        "chart": chart,
        "net xml": write_net(net, "xml"),
        "net json": write_net(net, "json"),
        "chart xml": write_chart(chart, "xml"),
        "chart json": write_chart(chart, "json"),
        "trace json": write_trace(trace),
    }


def _flat(net) -> tuple:
    trace = Trace()
    return initialize(net, trace), trace


# each entry point on the 2,000-place SP net or its documents: a function
# of the fixture's dict giving the call and its arguments
CALLS = {
    "parse_net xml": lambda d: (parse_net, d["net xml"]),
    "parse_net json": lambda d: (parse_net, d["net json"]),
    "parse_chart xml": lambda d: (parse_chart, d["chart xml"]),
    "parse_chart json": lambda d: (parse_chart, d["chart json"]),
    "parse_trace": lambda d: (parse_trace, d["trace json"]),
    "write_net xml": lambda d: (write_net, d["net"], "xml"),
    "write_net json": lambda d: (write_net, d["net"], "json"),
    "write_chart xml": lambda d: (write_chart, d["chart"], "xml"),
    "write_chart json": lambda d: (write_chart, d["chart"], "json"),
    "write_trace": lambda d: (write_trace, d["trace"]),
    "initialize": lambda d: (initialize, d["net"], Trace()),
    "reduce": lambda d: (reduce, d["net"], *_flat(d["net"])),
    "transform": lambda d: (transform, d["net"]),
    "generate_sp": lambda d: (generate_sp, SPEC),
}


def _broken_net():
    net = diamond()
    tid, (_, post) = next(iter(net.transitions.items()))
    net.transitions[tid] = {}, post
    return net


def _broken_net_with_a_bad_id():
    # a refused id beside the empty preset, which outranks it
    net = _broken_net()
    del net.places["q"]
    net.places["q q"] = None
    return net


def _invalid_chart():
    chart = transform(diamond()).chart
    top_or = next(iter(chart.topstate.children))
    del top_or.children[next(iter(top_or.children))]
    return chart


def _used_trace():
    trace = Trace()
    initialize(diamond(), trace)
    return trace


# calls that raise: the expected exception, the call and its arguments
ERRORS = {
    "malformed xml net": lambda: (
        ParseError, parse_net, b"<petrinet name='n'><place id='p'></petrinet>"),
    "malformed json net": lambda: (ParseError, parse_net, b'{"name": "n", "places": [}'),
    "malformed xml chart": lambda: (ParseError, parse_chart, b"<statechart name='c'><and id='s0'>"),
    "malformed json chart": lambda: (ParseError, parse_chart, b'{"name": "c", "topstate": '),
    "alternation breach in an xml chart": lambda: (
        TreeError, parse_chart,
        b'<statechart name="c"><and id="s3"><or id="s0"><or id="s2">'
        b'<basic id="s1" place="q"/></or></or></and></statechart>'),
    "repeated id in a chart document": lambda: (
        ValidationError, parse_chart,
        b'<statechart name="c"><and id="s0"><or id="s1"><basic id="s1" place="q"/>'
        b'</or></and></statechart>'),
    "write_chart xml on an invalid chart": lambda: (
        ValidationError, write_chart, _invalid_chart(), "xml"),
    "write_chart json on an invalid chart": lambda: (
        ValidationError, write_chart, _invalid_chart(), "json"),
    "write_net on a broken net with a bad id": lambda: (
        ValidationError, write_net, _broken_net_with_a_bad_id()),
    "initialize on a broken net": lambda: (ValidationError, initialize, _broken_net(), Trace()),
    "initialize on a broken net with a used trace": lambda: (
        ValidationError, initialize, _broken_net(), _used_trace()),
    "reduce on a chart traced for another net": lambda: (
        TraceError, reduce, three_cycle(), *_flat(diamond())),
}


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("name", list(CALLS))
def test_entry_points_run_without_automatic_collections(documents, name):
    """With automatic collection on, a call sets off no collection of its
    own: a `gc.callbacks` hook sees none start while it runs.  Left on,
    the readers, `initialize`, `reduce`, `transform` and `generate_sp`
    each start 9 to 39 on this net; the writers make mostly strings,
    which the collector does not track, and start none."""
    call, *args = CALLS[name](documents)
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()  # the call starts with an empty young generation
    gc.callbacks.append(hook)
    try:
        call(*args)
        assert gc.isenabled()
    finally:
        gc.callbacks.remove(hook)
        _set_collector(was)
    assert started == []


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", [*CALLS, *ERRORS])
def test_entry_points_give_back_the_callers_setting(documents, name, enabled):
    if name in CALLS:
        expected, (call, *args) = None, CALLS[name](documents)
    else:
        expected, call, *args = ERRORS[name]()
    was = gc.isenabled()
    _set_collector(enabled)
    try:
        if expected is None:
            call(*args)
        else:
            with pytest.raises(expected):
                call(*args)
        assert gc.isenabled() is enabled
    finally:
        _set_collector(was)


@pytest.mark.parametrize("name", [*CALLS, "reduce with an rng"])
def test_successful_calls_leave_no_cyclic_garbage(documents, name):
    """What a call returns, and what it built on the way, frees by
    reference counting once dropped, so pausing the collector keeps no
    garbage alive: `reduce`'s rules close over its locals, and none of
    them names itself or another that names it back."""
    if name in CALLS:
        call, *args = CALLS[name](documents)
    else:
        call, *args = reduce, documents["net"], *_flat(documents["net"]), random.Random(1)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = call(*args)
        del result, args
        assert gc.collect() == 0
    finally:
        _set_collector(was)


@pytest.mark.parametrize("name", list(ERRORS))
def test_error_paths_leave_no_cyclic_garbage(name):
    """A dropped exception frees by reference counting what the failed
    call built, so pausing the collector keeps no garbage alive: the
    error is raised where it is built, never held in a local of a frame
    its own traceback keeps."""
    expected, call, *args = ERRORS[name]()
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        try:
            call(*args)
        except expected:
            pass  # dropped here, with its traceback
        else:
            pytest.fail(f"{name}: no {expected.__name__} raised")
        assert gc.collect() == 0
    finally:
        _set_collector(was)
