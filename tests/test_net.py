"""Net model: adjacency bookkeeping, mutation primitives, validation."""

from __future__ import annotations

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
    q = net.add_place("q", name="second")
    t = net.add_transition("t", [p], ["q"])
    assert q.name == "second"
    assert [x.id for x in t.preset] == ["p"]
    assert [x.id for x in t.postset] == ["q"]
    assert [x.id for x in p.post_transitions] == ["t"]
    assert [x.id for x in q.pre_transitions] == ["t"]
    assert check_net(net) == []


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


def test_copy_is_structural_and_independent():
    net = diamond()
    clone = net.copy()
    assert list(clone.places) == list(net.places)
    assert list(clone.transitions) == list(net.transitions)
    assert clone.places["a"] is not net.places["a"]
    clone.remove_transition(clone.transitions["t2"])
    assert "t2" in net.transitions
    assert check_net(net) == []
    assert check_net(clone) == []


def test_replace_places_merges_a_parallel_group():
    net = diamond()
    fresh = net.replace_places([net.places["a"], net.places["b"]], "m0")
    assert set(net.places) == {"q", "r", "m0"}
    t1, t2 = net.transitions["t1"], net.transitions["t2"]
    assert [p.id for p in t1.postset] == ["m0"]
    assert [p.id for p in t2.preset] == ["m0"]
    assert {t.id for t in fresh.pre_transitions} == {"t1"}
    assert {t.id for t in fresh.post_transitions} == {"t2"}
    assert check_net(net) == []


def test_replace_places_handles_groups_on_both_sides():
    net = PetriNet("loop")
    net.add_place("a")
    net.add_place("b")
    net.add_transition("t", ["a", "b"], ["a", "b"])
    fresh = net.replace_places([net.places["a"], net.places["b"]], "m")
    t = net.transitions["t"]
    assert [p.id for p in t.preset] == ["m"]
    assert [p.id for p in t.postset] == ["m"]
    assert fresh.on_self_loop()
    assert check_net(net) == []


def test_replace_places_preconditions():
    net = diamond()
    with pytest.raises(PreconditionError):
        net.replace_places([net.places["a"]], "m")
    with pytest.raises(PreconditionError, match="identical adjacency"):
        net.replace_places([net.places["q"], net.places["a"]], "m")
    with pytest.raises(MembershipError):
        net.replace_places([net.places["a"], diamond().places["b"]], "m")
    with pytest.raises(DuplicateIdError):
        net.replace_places([net.places["a"], net.places["b"]], "q")


def test_replace_places_never_reuses_a_retired_id():
    net = PetriNet("n")
    for id in ("q", "a", "b", "c", "d", "s"):
        net.add_place(id)
    net.add_transition("t1", ["q"], ["a", "b"])
    net.add_transition("t2", ["a", "b"], ["c", "d"])
    net.add_transition("t3", ["c", "d"], ["s"])
    net.replace_places([net.places["c"], net.places["d"]], "m")
    assert "c" not in net.places
    assert "c" in net.used_ids
    group = [net.places["a"], net.places["b"]]
    with pytest.raises(DuplicateIdError):
        net.replace_places(group, "c")  # retired place id
    with pytest.raises(DuplicateIdError):
        net.replace_places(group, "t1")  # live transition id
    net.replace_places(group, "m2")
    assert check_net(net) == []


def test_fuse_places():
    net = diamond()
    net.remove_transition(net.transitions["t1"])
    kept = net.fuse_places(net.places["q"], net.places["a"])
    assert kept.id == "q"
    assert set(net.places) == {"q", "b", "r"}
    assert {t.id for t in kept.post_transitions} == {"t2"}
    assert {p.id for p in net.transitions["t2"].preset} == {"q", "b"}
    assert check_net(net) == []


def test_fuse_places_preconditions():
    net = diamond()
    with pytest.raises(PreconditionError):
        net.fuse_places(net.places["a"], net.places["a"])
    with pytest.raises(MembershipError):
        net.fuse_places(net.places["a"], diamond().places["b"])


def test_remove_transition():
    net = diamond()
    net.remove_transition(net.transitions["t1"])
    assert set(net.transitions) == {"t2"}
    assert len(net.places["q"].post_transitions) == 0
    assert len(net.places["a"].pre_transitions) == 0
    assert check_net(net) == []
    with pytest.raises(MembershipError):
        net.remove_transition(diamond().transitions["t1"])


def test_check_net_reports_broken_reverse_adjacency():
    net = diamond()
    del net.places["a"].pre_transitions[net.transitions["t1"]]
    violations = check_net(net)
    assert any("t1" in v and "'a'" in v for v in violations)


def test_check_net_reports_nonmember_references():
    net = diamond()
    stray = PetriNet("other").add_place("x")
    net.transitions["t1"].postset[stray] = None
    violations = check_net(net)
    assert any("'x'" in v for v in violations)


def test_check_net_reports_empty_sides():
    net = diamond()
    t1 = net.transitions["t1"]
    for place in list(t1.preset):
        del t1.preset[place]
        del place.post_transitions[t1]
    assert any("empty preset" in v for v in check_net(net))


def test_self_loops_are_warnings_not_violations():
    net = PetriNet("n")
    net.add_place("p")
    net.add_place("q")
    net.add_transition("t", ["p"], ["p", "q"])
    assert check_net(net) == []
    warnings = find_self_loops(net)
    assert len(warnings) == 1
    assert "'p'" in warnings[0] and "'t'" in warnings[0]
    assert net.places["p"].on_self_loop()
    assert not net.places["q"].on_self_loop()
    assert find_self_loops(diamond()) == []
