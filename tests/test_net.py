"""Net model: construction, adjacency bookkeeping, validation."""

from __future__ import annotations

import re

import pytest

from netchart import (
    DuplicateIdError,
    MembershipError,
    PetriNet,
    PreconditionError,
    check_net,
    find_self_loops,
)
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
