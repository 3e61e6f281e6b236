"""In-memory Petri nets: the read-only input model of the pipeline.

Each adjacency collection is a plain dict that maps an element, hashed
by identity, to None: amortized O(1) membership and a deterministic
insertion order, which the writers and the reduction rely on.  Nets are
built with `add_place` and `add_transition`; nothing in the pipeline
changes them afterwards.
"""

from __future__ import annotations

from typing import Iterable

from .errors import DuplicateIdError, MembershipError, PreconditionError


def shared(a: dict, b: dict) -> list:
    """Keys of both dicts, in the insertion order of the smaller one.

    Scans only the smaller side, so a hub's large adjacency costs nothing
    extra; unlike `a.keys() & b.keys()` the order stays deterministic.
    """
    if len(a) > len(b):
        a, b = b, a
    return [key for key in a if key in b]


class Place:
    """A place of a Petri net.

    Attributes
    ----------
    id : str
        Identifier, unique among the places of its net.
    pre_transitions : dict of Transition to None
        Transitions whose postset contains this place.
    post_transitions : dict of Transition to None
        Transitions whose preset contains this place.
    """

    __slots__ = ("id", "pre_transitions", "post_transitions")

    def __init__(self, id: str):
        self.id = id
        self.pre_transitions: dict[Transition, None] = {}
        self.post_transitions: dict[Transition, None] = {}

    def __repr__(self) -> str:
        return f"Place({self.id!r})"


class Transition:
    """A transition of a Petri net.

    Attributes
    ----------
    id : str
        Identifier, unique among the transitions of its net.
    preset : dict of Place to None
        Input places.
    postset : dict of Place to None
        Output places.
    """

    __slots__ = ("id", "preset", "postset")

    def __init__(self, id: str):
        self.id = id
        self.preset: dict[Place, None] = {}
        self.postset: dict[Place, None] = {}

    def __repr__(self) -> str:
        return f"Transition({self.id!r})"


class PetriNet:
    """A directed bipartite net with forward and reverse adjacency.

    Attributes
    ----------
    name : str
        Net name, carried into serialized documents.
    places : dict of str to Place
        Places keyed by id, in insertion order.
    transitions : dict of str to Transition
        Transitions keyed by id, in insertion order.
    """

    def __init__(self, name: str):
        self.name = name
        self.places: dict[str, Place] = {}
        self.transitions: dict[str, Transition] = {}

    def add_place(self, id: str) -> Place:
        if id in self.places:
            raise DuplicateIdError(f"duplicate place id {id!r}")
        place = Place(id)
        self.places[id] = place
        return place

    def add_transition(
        self,
        id: str,
        preset: Iterable[Place | str],
        postset: Iterable[Place | str],
    ) -> Transition:
        """Add a transition wired to existing places (given as Place or id)."""
        if id in self.transitions:
            raise DuplicateIdError(f"duplicate transition id {id!r}")
        pre = [self._resolve_place(p) for p in preset]
        post = [self._resolve_place(p) for p in postset]
        if not pre or not post:
            raise PreconditionError(f"transition {id!r}: preset and postset must be nonempty")
        transition = Transition(id)
        for place in pre:
            transition.preset[place] = None
            place.post_transitions[transition] = None
        for place in post:
            transition.postset[place] = None
            place.pre_transitions[transition] = None
        self.transitions[id] = transition
        return transition

    def _resolve_place(self, ref: Place | str) -> Place:
        pid = ref.id if isinstance(ref, Place) else ref
        try:
            return self.places[pid]
        except KeyError:
            raise MembershipError(f"unknown place {pid!r}") from None


def check_net(net: PetriNet) -> list[str]:
    """Report every broken structural invariant; empty list means the net is sound.

    Checks id-key consistency, membership closure, reverse-adjacency
    consistency and nonempty transition sides.  Self-loops are legal and
    reported separately by `find_self_loops`.
    """
    violations = []
    for pid, place in net.places.items():
        if place.id != pid:
            violations.append(f"place {pid!r}: stored under key {pid!r} but has id {place.id!r}")
        for t in place.pre_transitions:
            if net.transitions.get(t.id) is not t:
                violations.append(f"place {pid!r}: pre_transitions contains {t.id!r}, not a member of the net")
            elif place not in t.postset:
                violations.append(f"place {pid!r}: lists {t.id!r} as pre-transition but is not in its postset")
        for t in place.post_transitions:
            if net.transitions.get(t.id) is not t:
                violations.append(f"place {pid!r}: post_transitions contains {t.id!r}, not a member of the net")
            elif place not in t.preset:
                violations.append(f"place {pid!r}: lists {t.id!r} as post-transition but is not in its preset")
    for tid, t in net.transitions.items():
        if t.id != tid:
            violations.append(f"transition {tid!r}: stored under key {tid!r} but has id {t.id!r}")
        if not t.preset:
            violations.append(f"transition {tid!r}: empty preset")
        if not t.postset:
            violations.append(f"transition {tid!r}: empty postset")
        for place in t.preset:
            if net.places.get(place.id) is not place:
                violations.append(f"transition {tid!r}: preset place {place.id!r} is not a member of the net")
            elif t not in place.post_transitions:
                violations.append(f"transition {tid!r}: preset place {place.id!r} does not list it back")
        for place in t.postset:
            if net.places.get(place.id) is not place:
                violations.append(f"transition {tid!r}: postset place {place.id!r} is not a member of the net")
            elif t not in place.pre_transitions:
                violations.append(f"transition {tid!r}: postset place {place.id!r} does not list it back")
    return violations


def find_self_loops(net: PetriNet) -> list[str]:
    """Warnings for places that sit on both sides of some transition.

    Self-looped places are valid input but the reduction rules refuse to
    fire on them, so the net around them cannot collapse.
    """
    warnings = []
    for place in net.places.values():
        for t in shared(place.pre_transitions, place.post_transitions):
            warnings.append(f"place {place.id!r} is on a self-loop through transition {t.id!r}")
    return warnings
