"""Net model: construction, adjacency bookkeeping, validation, and the
refusal of what validation reports by `initialize` and `write_net`."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netchart import (
    DuplicateIdError,
    MembershipError,
    PetriNet,
    PreconditionError,
    SpSpec,
    Trace,
    ValidationError,
    check_net,
    find_self_loops,
    generate_sp,
    initialize,
    parse_net,
    reduce,
    write_net,
)
from oracle import reference_add_place, reference_add_transition
from support import diamond, general_nets


def test_add_place_and_transition():
    net = PetriNet("n")
    p = net.add_place("p")
    assert p == "p" and net.places == {"p": None}
    net.add_place("q")
    sides = net.add_transition("t", [p], ["q"])
    assert type(sides) is tuple and net.transitions == {"t": sides}
    pre, post = sides
    assert list(pre) == ["p"]
    assert list(post) == ["q"]
    assert check_net(net) == []


def test_every_builder_stores_a_transition_as_its_pair_of_sides():
    nets = [diamond(), generate_sp(SpSpec(places=60, seed=3))]
    xml = write_net(nets[1], "xml")
    # a comment leaves the layout `write_net` prints, so the net is read
    # element by element through `add_transition`
    commented = xml.replace(b"<petrinet", b"<!-- c --><petrinet")
    nets += [parse_net(xml), parse_net(commented), parse_net(write_net(nets[1], "json"))]
    for net in nets:
        assert net.transitions
        assert all(type(sides) is tuple and len(sides) == 2 for sides in net.transitions.values())


def test_ids_no_document_can_carry_are_rejected():
    net = PetriNet("n")
    for bad in ("a b", "", "\u3000"):
        message = f"^place id {re.escape(repr(bad))} must be a nonempty string"
        with pytest.raises(PreconditionError, match=message):
            net.add_place(bad)
    net.add_place("p")
    with pytest.raises(
        PreconditionError,
        match=r"^transition id 't\\t1' must be a nonempty string without whitespace$",
    ):
        net.add_transition("t\t1", ["p"], ["p"])
    assert list(net.places) == ["p"] and not net.transitions


def test_repr_names_places_and_transition_sides():
    assert repr(diamond()) == (
        "PetriNet('D1', places=['q', 'a', 'b', 'r'], "
        "transitions={'t1': (['q'], ['a', 'b']), 't2': (['a', 'b'], ['r'])})"
    )


def test_duplicate_ids_rejected():
    net = PetriNet("n")
    net.add_place("p")
    with pytest.raises(DuplicateIdError):
        net.add_place("p")
    net.add_place("q")
    net.add_transition("t", ["p"], ["q"])
    with pytest.raises(DuplicateIdError):
        net.add_transition("t", ["p"], ["q"])


def test_transition_needs_both_sides():
    net = PetriNet("n")
    net.add_place("p")
    with pytest.raises(PreconditionError):
        net.add_transition("t", [], ["p"])
    with pytest.raises(PreconditionError):
        net.add_transition("t", ["p"], [])


def test_unknown_place_reference_rejected():
    net = PetriNet("n")
    net.add_place("p")
    with pytest.raises(MembershipError, match="nope"):
        net.add_transition("t", ["p"], ["nope"])


def test_check_net_reports_nonmember_references():
    net = diamond()
    stray = PetriNet("other").add_place("x")
    _, post = net.transitions["t1"]
    post[stray] = None
    violations = check_net(net)
    assert any("'x'" in v for v in violations)
    net = diamond()
    pre, _ = net.transitions["t2"]
    pre[stray] = None
    assert check_net(net) == ["transition 't2': preset place 'x' is not a member of the net"]


def test_check_net_reports_empty_sides():
    net = diamond()
    pre, _ = net.transitions["t1"]
    pre.clear()
    assert any("empty preset" in v for v in check_net(net))
    net = diamond()
    _, post = net.transitions["t2"]
    post.clear()
    assert check_net(net) == ["transition 't2': empty postset"]


def test_check_net_reports_a_dropped_place_its_sides_still_name():
    net = diamond()
    del net.places["q"]
    net.places["z"] = None
    assert check_net(net) == [
        "transition 't1': preset place 'q' is not a member of the net",
    ]


def test_self_loops_are_warnings_not_violations():
    net = PetriNet("n")
    net.add_place("p")
    net.add_place("q")
    net.add_transition("t", ["p"], ["p", "q"])
    assert check_net(net) == []
    warnings = find_self_loops(net)
    assert len(warnings) == 1
    assert "'p'" in warnings[0] and "'t'" in warnings[0]
    assert find_self_loops(diamond()) == []


# ids for the builders: known ones, unknown ones, ids no document can
# carry, and values that are no string at all
_BUILD_IDS = st.sampled_from(["p0", "p1", "p2", "t0", "", " ", "a\tb", 5, None, b"p0"])
# side entries: an id, an equal string built anew, or an unhashable list
_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(["id", "copy"]), _BUILD_IDS),
    st.just(("unhashable", None)),
)
_SIDES = st.tuples(st.sampled_from(["list", "tuple", "generator"]), st.lists(_ENTRIES, max_size=3))


def _side(spec):
    """The side *spec* describes, built afresh."""
    how, entries = spec
    items = []
    for kind, value in entries:
        if kind == "copy" and isinstance(value, str):
            # places are looked up by value, not by identity
            items.append("".join(list(value)))
        elif kind == "unhashable":
            items.append([])
        else:
            items.append(value)
    if how == "tuple":
        return tuple(items)
    return (item for item in items) if how == "generator" else items


def _build_outcome(build):
    """What *build* returns, as place ids and the sides' ids, or the type
    and message of what it raises."""
    try:
        result = build()
    except Exception as exc:  # the reference fixes the type as well
        return type(exc), str(exc)
    if isinstance(result, str):
        return result
    pre, post = result
    return type(result), list(pre), list(post)


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.one_of(st.tuples(st.just("place"), _BUILD_IDS),
              st.tuples(st.just("transition"), _BUILD_IDS, _SIDES, _SIDES)),
    min_size=1,
    max_size=10,
))
def test_builders_match_the_reference(steps):
    net, reference = PetriNet("n"), PetriNet("n")
    for kind, id, *sides in steps:
        if kind == "place":
            got = _build_outcome(lambda: net.add_place(id))
            want = _build_outcome(lambda: reference_add_place(reference, id))
        else:
            got = _build_outcome(
                lambda: net.add_transition(id, *map(_side, sides))
            )
            want = _build_outcome(
                lambda: reference_add_transition(reference, id, *map(_side, sides))
            )
        assert got == want
    assert repr(net) == repr(reference)
    assert check_net(net) == []


_NET_CHANGES = ["drop place", "rename transition", "foreign place", "empty preset",
                "empty postset"]


def _change_net(net: PetriNet, kind: str, k: int) -> None:
    """Change *net* by hand, after building, in one of the ways
    `check_net` reports, or by renaming a transition in place, which
    it accepts."""
    places, transitions = list(net.places), net.transitions
    if kind == "drop place":  # the sides may still name it
        if places:
            del net.places[places[k % len(places)]]
        return
    if not transitions:
        return
    tid = list(transitions)[k % len(transitions)]
    pre, post = transitions[tid]
    if kind == "rename transition":  # to a free id, keeping the order
        if f"z{k}" not in transitions:
            renamed = {(f"z{k}" if key == tid else key): sides
                       for key, sides in transitions.items()}
            transitions.clear()
            transitions.update(renamed)
    elif kind == "foreign place":
        pre[f"x{k}"] = None
    elif kind == "empty preset":
        pre.clear()
    elif kind == "empty postset":
        post.clear()


@settings(max_examples=300, deadline=None)
@given(
    general_nets(),
    st.lists(st.tuples(st.sampled_from(_NET_CHANGES), st.integers(0, 99)), max_size=3),
)
def test_initialize_and_write_net_refuse_exactly_what_check_net_reports(net, changes):
    """Both flag a broken net inline and run `check_net` only to raise its
    list; `initialize` leaves the trace empty, even one already in use."""
    for kind, k in changes:
        _change_net(net, kind, k)
    expected = check_net(net)
    trace = Trace()
    if not expected:
        chart = initialize(net, trace)
        for format in ("xml", "json"):
            assert write_net(parse_net(write_net(net, format)), format) == write_net(net, format)
        with pytest.raises(PreconditionError, match="fresh Trace"):
            initialize(net, trace)
        # `reduce` takes the index graph `initialize` left on the trace
        assert trace._graph is not None
        reduce(net, chart, trace)
        assert trace._graph is None
        return
    used = Trace()
    used.entries.append(("PetriNet2StateChart", "n", "n"))
    for call in (
        lambda: initialize(net, trace),
        lambda: initialize(net, used),  # a broken net outranks a used trace
        lambda: write_net(net, "xml"),
        lambda: write_net(net, "json"),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"net {net.name!r} is not well formed"
        assert info.value.violations == expected
    assert trace.entries == [] and trace._graph is None
    assert len(used.entries) == 1 and used._graph is None

