"""In-memory Petri nets: the read-only input model of the pipeline.

Arcs are stored once, on the transitions; a place carries only its id.
Each side of a transition is a plain dict mapping a place, hashed by
identity, to None: amortized O(1) membership and a deterministic
insertion order, which the writers and the reduction rely on.  Nets are
built with `add_place` and `add_transition`, which refuse ids that no
document can carry; nothing in the pipeline changes them afterwards.
"""

from __future__ import annotations

import re
from typing import Iterable

from .errors import DuplicateIdError, MembershipError, PreconditionError, ValidationError

# `\s` matches exactly the characters for which `str.isspace` holds
_ID = re.compile(r"\S+")


def check_id(kind: str, value: str) -> str:
    """Return `value` if it is an id every document can carry: a nonempty
    string without whitespace, as XML documents list ids space-separated."""
    if not isinstance(value, str) or not _ID.fullmatch(value):
        raise PreconditionError(
            f"{kind} id {value!r} must be a nonempty string without whitespace"
        )
    return value


class Place:
    """A place of a Petri net.

    Attributes
    ----------
    id : str
        Identifier, unique among the places of its net.
    """

    __slots__ = ("id",)

    def __init__(self, id: str):
        self.id = id

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
    """A directed bipartite net; its arcs live on the transitions.

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

    def __repr__(self) -> str:
        sides = {t.id: ([p.id for p in t.preset], [p.id for p in t.postset])
                 for t in self.transitions.values()}
        return f"PetriNet({self.name!r}, places={list(self.places)!r}, transitions={sides!r})"

    def add_place(self, id: str) -> Place:
        # `check_id` runs only to raise, so a valid id costs no extra call
        if not (isinstance(id, str) and _ID.fullmatch(id)):
            check_id("place", id)
        places = self.places
        if id in places:
            raise DuplicateIdError(f"duplicate place id {id!r}")
        place = places[id] = Place(id)
        return place

    def add_transition(
        self,
        id: str,
        preset: Iterable[Place | str],
        postset: Iterable[Place | str],
    ) -> Transition:
        """Add a transition wired to existing places (given as Place or id)."""
        if not (isinstance(id, str) and _ID.fullmatch(id)):
            check_id("transition", id)
        if id in self.transitions:
            raise DuplicateIdError(f"duplicate transition id {id!r}")
        # a list of known ids resolves in one `map`; anything else, or a
        # list holding a Place, an unknown id or an unhashable entry, goes
        # entry by entry through `_resolve_place`, in one pass, so the first
        # fault raises and any iterable works
        get = self.places.get
        try:
            pre = list(map(get, preset)) if type(preset) is list else [None]
            post = list(map(get, postset)) if type(postset) is list else [None]
        except TypeError:  # an unhashable entry
            pre = [None]
        if None in pre or None in post:
            resolve = self._resolve_place
            pre = [get(p) or resolve(p) for p in preset]
            post = [get(p) or resolve(p) for p in postset]
        if not pre or not post:
            raise PreconditionError(f"transition {id!r}: preset and postset must be nonempty")
        transition = Transition(id)
        transition.preset, transition.postset = dict.fromkeys(pre), dict.fromkeys(post)
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

    Checks id-key consistency, nonempty transition sides and that every
    place on a transition's side is a member of the net.  Self-loops are
    legal and reported separately by `find_self_loops`.  `initialize`
    and `write_net` check the same invariants inline and call it only to
    raise its list.
    """
    violations = []
    for pid, place in net.places.items():
        if place.id != pid:
            violations.append(f"place {pid!r}: stored under key {pid!r} but has id {place.id!r}")
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
        for place in t.postset:
            if net.places.get(place.id) is not place:
                violations.append(f"transition {tid!r}: postset place {place.id!r} is not a member of the net")
    return violations


def invalid_net(net: PetriNet) -> ValidationError:
    """The error that refuses *net*, carrying `check_net`'s list.

    `initialize` and `write_net` flag a broken net inline, in the walk
    they already make, and build this error only to raise it."""
    return ValidationError(f"net {net.name!r} is not well formed", check_net(net))


def find_self_loops(net: PetriNet) -> list[str]:
    """Warnings for places that sit on both sides of some transition.

    Self-looped places are valid input but the reduction rules refuse to
    fire on them, so the net around them cannot collapse.
    """
    order = {place: i for i, place in enumerate(net.places.values())}
    loops = []
    for t in net.transitions.values():
        # scan the smaller side, so a hub's large side costs nothing extra
        small, large = t.preset, t.postset
        if len(small) > len(large):
            small, large = large, small
        loops.extend((p, t) for p in small if p in large)
    return [
        f"place {p.id!r} is on a self-loop through transition {t.id!r}"
        for p, t in sorted(loops, key=lambda loop: order[loop[0]])
    ]
