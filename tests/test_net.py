"""Net model: construction, adjacency bookkeeping, validation."""

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
    check_net,
    find_self_loops,
)
from oracle import reference_add_place, reference_add_transition
from support import diamond


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
