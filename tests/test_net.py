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
    Place,
    PreconditionError,
    Trace,
    ValidationError,
    check_net,
    find_self_loops,
    initialize,
    parse_net,
    write_net,
)
from oracle import reference_add_place, reference_add_transition
from support import diamond, general_nets


def test_add_place_and_transition():
    net = PetriNet("n")
    p = net.add_place("p")
    net.add_place("q")
    t = net.add_transition("t", [p], ["q"])
    assert [x.id for x in t.preset] == ["p"]
    assert [x.id for x in t.postset] == ["q"]
    assert check_net(net) == []


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
    net.transitions["t1"].postset[stray] = None
    violations = check_net(net)
    assert any("'x'" in v for v in violations)
    net = diamond()
    net.transitions["t2"].preset[stray] = None
    assert check_net(net) == ["transition 't2': preset place 'x' is not a member of the net"]


def test_check_net_reports_empty_sides():
    net = diamond()
    net.transitions["t1"].preset.clear()
    assert any("empty preset" in v for v in check_net(net))
    net = diamond()
    net.transitions["t2"].postset.clear()
    assert check_net(net) == ["transition 't2': empty postset"]


def test_check_net_reports_ids_that_differ_from_their_keys():
    net = diamond()
    net.places["q"].id = "z"
    net.transitions["t2"].id = "t9"
    assert check_net(net) == [
        "place 'q': stored under key 'q' but has id 'z'",
        "transition 't1': preset place 'z' is not a member of the net",
        "transition 't2': stored under key 't2' but has id 't9'",
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
# side entries: an id, the net's own Place of that id, a Place of another
# net under that id, or an unhashable list
_ENTRIES = st.one_of(
    st.tuples(st.sampled_from(["id", "own", "foreign"]), _BUILD_IDS),
    st.just(("unhashable", None)),
)
_SIDES = st.tuples(st.sampled_from(["list", "tuple", "generator"]), st.lists(_ENTRIES, max_size=3))


def _side(net: PetriNet, foreign: dict, spec):
    """The side *spec* describes, built for *net*."""
    how, entries = spec
    items = []
    for kind, value in entries:
        if kind == "own":
            # a known id gives the net's own Place, an unknown one a fresh Place
            items.append(net.places.get(value) or foreign.setdefault(value, Place(value)))
        elif kind == "foreign":
            items.append(foreign.setdefault(value, Place(value)))
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
    if isinstance(result, Place):
        return result.id
    return result.id, [p.id for p in result.preset], [p.id for p in result.postset]


@settings(max_examples=400, deadline=None)
@given(st.lists(
    st.one_of(st.tuples(st.just("place"), _BUILD_IDS),
              st.tuples(st.just("transition"), _BUILD_IDS, _SIDES, _SIDES)),
    min_size=1,
    max_size=10,
))
def test_builders_match_the_reference(steps):
    net, reference = PetriNet("n"), PetriNet("n")
    foreign = {}  # one Place of another net per id, shared by both nets
    for kind, id, *sides in steps:
        if kind == "place":
            got = _build_outcome(lambda: net.add_place(id))
            want = _build_outcome(lambda: reference_add_place(reference, id))
        else:
            got = _build_outcome(
                lambda: net.add_transition(id, *(_side(net, foreign, s) for s in sides))
            )
            want = _build_outcome(lambda: reference_add_transition(
                reference, id, *(_side(reference, foreign, s) for s in sides)
            ))
        assert got == want
    assert repr(net) == repr(reference)
    assert check_net(net) == []


_NET_CHANGES = ["rekey place", "rekey transition", "foreign twin", "foreign place",
                "empty preset", "empty postset"]


def _change_net(net: PetriNet, kind: str, k: int) -> None:
    """Change *net* by hand, after building, in one of the ways
    `check_net` reports."""
    places, transitions = list(net.places.values()), list(net.transitions.values())
    if kind == "rekey place":
        places[k % len(places)].id = f"z{k}"
        return
    if not transitions:
        return
    transition = transitions[k % len(transitions)]
    if kind == "rekey transition":
        transition.id = f"z{k}"
    elif kind == "foreign twin":  # another net's place under a member's id
        transition.postset[Place(places[k % len(places)].id)] = None
    elif kind == "foreign place":
        transition.preset[Place(f"x{k}")] = None
    elif kind == "empty preset":
        transition.preset.clear()
    elif kind == "empty postset":
        transition.postset.clear()


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
        initialize(net, trace)
        for format in ("xml", "json"):
            assert write_net(parse_net(write_net(net, format)), format) == write_net(net, format)
        with pytest.raises(PreconditionError, match="fresh Trace"):
            initialize(net, trace)
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
    assert trace.entries == [] and trace.ors == {}
    assert len(used.entries) == 1 and used.ors == {}

