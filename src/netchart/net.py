"""In-memory Petri nets with cheap adjacency mutation.

The reduction loop spends nearly all of its time deleting elements from
adjacency collections, so those collections must support removal without
shifting or rescanning unrelated entries.  Each one is a plain dict that
maps an element, hashed by identity, to None: amortized O(1)
add/remove/membership, and a deterministic insertion order, which the
writers rely on.
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
    name : str or None
        Optional display name; never serialized.
    pre_transitions : dict of Transition to None
        Transitions whose postset contains this place.
    post_transitions : dict of Transition to None
        Transitions whose preset contains this place.
    """

    __slots__ = ("id", "name", "pre_transitions", "post_transitions", "serial")

    def __init__(self, id: str, name: str | None = None):
        self.id = id
        self.name = name
        self.pre_transitions: dict[Transition, None] = {}
        self.post_transitions: dict[Transition, None] = {}
        self.serial = -1  # insertion index within the owning net

    def on_self_loop(self) -> bool:
        """True if some transition has this place on both sides."""
        return bool(shared(self.pre_transitions, self.post_transitions))

    def __repr__(self) -> str:
        return f"Place({self.id!r})"


class Transition:
    """A transition of a Petri net.

    Attributes
    ----------
    id : str
        Identifier, unique among the transitions of its net.
    name : str or None
        Optional display name; never serialized.
    preset : dict of Place to None
        Input places.
    postset : dict of Place to None
        Output places.
    """

    __slots__ = ("id", "name", "preset", "postset")

    def __init__(self, id: str, name: str | None = None):
        self.id = id
        self.name = name
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
        self.used_ids: set[str] = set()  # grows forever, never shrinks on removal
        self._next_serial = 0

    # -- construction ------------------------------------------------------

    def add_place(self, id: str, name: str | None = None) -> Place:
        if id in self.places:
            raise DuplicateIdError(f"duplicate place id {id!r}")
        place = Place(id, name)
        place.serial = self._next_serial
        self._next_serial += 1
        self.places[id] = place
        self.used_ids.add(id)
        return place

    def add_transition(
        self,
        id: str,
        preset: Iterable[Place | str],
        postset: Iterable[Place | str],
        name: str | None = None,
    ) -> Transition:
        """Add a transition wired to existing places (given as Place or id)."""
        if id in self.transitions:
            raise DuplicateIdError(f"duplicate transition id {id!r}")
        pre = [self._resolve_place(p) for p in preset]
        post = [self._resolve_place(p) for p in postset]
        if not pre or not post:
            raise PreconditionError(f"transition {id!r}: preset and postset must be nonempty")
        transition = Transition(id, name)
        for place in pre:
            transition.preset[place] = None
            place.post_transitions[transition] = None
        for place in post:
            transition.postset[place] = None
            place.pre_transitions[transition] = None
        self.transitions[id] = transition
        self.used_ids.add(id)
        return transition

    def _resolve_place(self, ref: Place | str) -> Place:
        pid = ref.id if isinstance(ref, Place) else ref
        try:
            return self.places[pid]
        except KeyError:
            raise MembershipError(f"unknown place {pid!r}") from None

    def copy(self) -> PetriNet:
        """Structural deep copy; preserves ids, names and insertion order."""
        clone = PetriNet(self.name)
        twins = clone.places
        for place in self.places.values():
            twin = Place(place.id, place.name)
            twin.serial = place.serial
            twins[place.id] = twin
        clone._next_serial = self._next_serial
        for t in self.transitions.values():
            twin = Transition(t.id, t.name)
            for p in t.preset:
                place = twins[p.id]
                twin.preset[place] = None
                place.post_transitions[twin] = None
            for p in t.postset:
                place = twins[p.id]
                twin.postset[place] = None
                place.pre_transitions[twin] = None
            clone.transitions[t.id] = twin
        clone.used_ids.update(self.places)
        clone.used_ids.update(self.transitions)
        return clone

    # -- mutation primitives used by the reduction -------------------------

    def replace_places(self, group: Iterable[Place], fresh_id: str) -> Place:
        """Replace a group of places sharing identical adjacency by one fresh place.

        All group members must have pairwise-equal pre_transitions and
        pairwise-equal post_transitions.  Every adjacent transition has the
        group replaced by the fresh place; reverse adjacency stays consistent.
        """
        members = list(group)
        if len(members) < 2:
            raise PreconditionError("replace_places needs a group of at least 2 places")
        for place in members:
            if self.places.get(place.id) is not place:
                raise MembershipError(f"place {place.id!r} is not part of net {self.name!r}")
        first = members[0]
        for place in members[1:]:
            if place.pre_transitions != first.pre_transitions or place.post_transitions != first.post_transitions:
                raise PreconditionError(
                    f"places {first.id!r} and {place.id!r} do not share identical adjacency"
                )
        if fresh_id in self.used_ids:
            # reusing an id of a removed element would corrupt trace lookups
            raise DuplicateIdError(f"id {fresh_id!r} was already used in net {self.name!r}")

        fresh = self.add_place(fresh_id)
        fresh.pre_transitions.update(first.pre_transitions)
        fresh.post_transitions.update(first.post_transitions)
        for t in first.pre_transitions:
            for place in members:
                t.postset.pop(place, None)
                t.preset.pop(place, None)  # self-loop groups lose both sides
            t.postset[fresh] = None
            if t in first.post_transitions:
                t.preset[fresh] = None
        for t in first.post_transitions:
            if t in first.pre_transitions:
                continue  # already rewired above
            for place in members:
                t.preset.pop(place, None)
            t.preset[fresh] = None
        for place in members:
            del self.places[place.id]
        return fresh

    def fuse_places(self, keep: Place, drop: Place) -> Place:
        """Merge `drop` into `keep`, unioning adjacency; `drop` leaves the net."""
        if keep is drop:
            raise PreconditionError("cannot fuse a place with itself")
        for place in (keep, drop):
            if self.places.get(place.id) is not place:
                raise MembershipError(f"place {place.id!r} is not part of net {self.name!r}")
        for t in drop.pre_transitions:
            del t.postset[drop]
            t.postset[keep] = None
            keep.pre_transitions[t] = None
        for t in drop.post_transitions:
            del t.preset[drop]
            t.preset[keep] = None
            keep.post_transitions[t] = None
        del self.places[drop.id]
        return keep

    def remove_transition(self, t: Transition) -> None:
        """Delete `t` from the net and from every place's adjacency."""
        if self.transitions.get(t.id) is not t:
            raise MembershipError(f"transition {t.id!r} is not part of net {self.name!r}")
        for place in t.preset:
            del place.post_transitions[t]
        for place in t.postset:
            del place.pre_transitions[t]
        del self.transitions[t.id]


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
