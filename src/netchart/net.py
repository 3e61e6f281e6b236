"""In-memory Petri nets: the read-only input model of the pipeline.

Arcs are stored once, on the transitions; a place is its id, and a
transition is its pair of sides.  The places of a net and each side of
a transition are plain dicts mapping place ids to None: amortized O(1)
membership and a deterministic insertion order, which the writers and
the reduction rely on.  Nets are built with `add_place` and
`add_transition`, which refuse ids that no document can carry; nothing
in the pipeline changes them afterwards.
"""

from __future__ import annotations

import functools
import gc
import re
from typing import Iterable

from .errors import DuplicateIdError, MembershipError, PreconditionError, ValidationError

# `\s` matches exactly the characters for which `str.isspace` holds
_ID = re.compile(r"\S+")


def _collector_paused(call):
    """Wrap *call* so that automatic garbage collection is off while it
    runs, and back on in `finally` if it was on before.

    The models and documents the library builds hold no reference
    cycles, so reference counting frees them, and the collector's passes
    over the many small objects a call makes find nothing.  A call made
    with collection already off, such as `initialize` inside `transform`,
    changes nothing.  The switch is process-wide: a call running in
    another thread can turn collection back on while this one runs."""

    @functools.wraps(call)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return call(*args, **kwargs)
        gc.disable()
        try:
            return call(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def check_id(kind: str, value: str) -> str:
    """Return `value` if it is an id every document can carry: a nonempty
    string without whitespace, as XML documents list ids space-separated."""
    if not isinstance(value, str) or not _ID.fullmatch(value):
        raise PreconditionError(
            f"{kind} id {value!r} must be a nonempty string without whitespace"
        )
    return value


def _joined_ids(ids: list) -> str | None:
    """The entries of *ids* joined by spaces if `check_id` accepts every
    one, else None; tested in one go, on the join.

    `str.split` splits exactly where `\\s` matches, so the join splits
    back into *ids* only if each is a nonempty string without whitespace;
    `join` refuses an entry that is no string.  ASCII text is tested
    without the split, which makes a string per id, by C-level scans:
    each of the `len(ids) - 1` spaces is one the join put there, so no
    id holds a space; no id holds the other ASCII whitespace `str.split`
    splits on; and no id is empty, which would leave two spaces
    together, one at either end, or an empty text."""
    try:
        text = " ".join(ids)
    except TypeError:
        return None
    if not text.isascii():
        return text if text.split() == ids else None
    if not text:  # no ids, or one empty one
        return None if ids else text
    if (text.count(" ") != len(ids) - 1 or "  " in text
            or text[0] == " " or text[-1] == " "
            or "\t" in text or "\n" in text or "\x0b" in text or "\x0c" in text
            or "\r" in text or "\x1c" in text or "\x1d" in text or "\x1e" in text
            or "\x1f" in text):
        return None
    return text


def _valid_ids(ids: list) -> bool:
    """Whether `check_id` accepts every entry of *ids*, tested in one go,
    as `_joined_ids` tests them."""
    return _joined_ids(ids) is not None


class PetriNet:
    """A directed bipartite net; its arcs live on the transitions.

    Attributes
    ----------
    name : str
        Net name, carried into serialized documents.
    places : dict of str to None
        Place ids, in insertion order.
    transitions : dict of str to (dict of str to None, dict of str to None)
        Each transition id mapped to its sides, the tuple (preset,
        postset) of input and output place ids, in insertion order.
    """

    def __init__(self, name: str):
        self.name = name
        self.places: dict[str, None] = {}
        self.transitions: dict[str, tuple[dict[str, None], dict[str, None]]] = {}

    def __repr__(self) -> str:
        sides = {tid: (list(pre), list(post))
                 for tid, (pre, post) in self.transitions.items()}
        return f"PetriNet({self.name!r}, places={list(self.places)!r}, transitions={sides!r})"

    def add_place(self, id: str) -> str:
        # `check_id` runs only to raise, so a valid id costs no extra call
        if not (isinstance(id, str) and _ID.fullmatch(id)):
            check_id("place", id)
        places = self.places
        if id in places:
            raise DuplicateIdError(f"duplicate place id {id!r}")
        places[id] = None
        return id

    def add_transition(
        self, id: str, preset: Iterable[str], postset: Iterable[str]
    ) -> tuple[dict[str, None], dict[str, None]]:
        """Add a transition wired to existing places, given by id; returns
        its sides, (preset, postset)."""
        if not (isinstance(id, str) and _ID.fullmatch(id)):
            check_id("transition", id)
        if id in self.transitions:
            raise DuplicateIdError(f"duplicate transition id {id!r}")
        # lists of known ids go in bulk; anything else, or a list holding
        # an unknown id or an unhashable entry, goes entry by entry, in
        # one pass, so the first fault raises and any iterable works
        places = self.places
        try:
            pre = dict.fromkeys(preset) if type(preset) is list else None
            post = dict.fromkeys(postset) if type(postset) is list else None
        except TypeError:  # an unhashable entry
            pre = None
        if pre is None or post is None or not (
            pre.keys() <= places.keys() and post.keys() <= places.keys()
        ):
            pre, post = {}, {}
            for side, entries in ((pre, preset), (post, postset)):
                for pid in entries:
                    if pid not in places:
                        raise MembershipError(f"unknown place {pid!r}")
                    side[pid] = None
        if not pre or not post:
            raise PreconditionError(f"transition {id!r}: preset and postset must be nonempty")
        sides = self.transitions[id] = (pre, post)
        return sides


def check_net(net: PetriNet) -> list[str]:
    """Report every broken structural invariant; empty list means the net is sound.

    Checks that the sides of each transition are nonempty and that every
    place id on them is a member of the net.
    Self-loops are legal and reported separately by `find_self_loops`.
    `initialize` checks the same invariants inline and calls it only to
    raise its list; `write_net` calls it once, before it prints.
    """
    places = net.places
    violations = []
    for tid, (pre, post) in net.transitions.items():
        if not pre:
            violations.append(f"transition {tid!r}: empty preset")
        if not post:
            violations.append(f"transition {tid!r}: empty postset")
        for side, pids in (("preset", pre), ("postset", post)):
            for pid in pids:
                if pid not in places:
                    violations.append(
                        f"transition {tid!r}: {side} place {pid!r} is not a member of the net"
                    )
    return violations


def invalid_net(net: PetriNet) -> ValidationError:
    """The error that refuses *net*, carrying `check_net`'s list.

    `initialize` flags a broken net inline, in the walk it already
    makes, and builds this error only to raise it, in the
    `raise` statement: a local holding it would form a cycle with the
    frame its traceback keeps, which only the collector frees."""
    return ValidationError(f"net {net.name!r} is not well formed", check_net(net))


def find_self_loops(net: PetriNet) -> list[str]:
    """Warnings for places that sit on both sides of some transition.

    Self-looped places are valid input but the reduction rules refuse to
    fire on them, so the net around them cannot collapse.
    """
    order = {pid: i for i, pid in enumerate(net.places)}
    loops = []
    for tid, (small, large) in net.transitions.items():
        # scan the smaller side, so a hub's large side costs nothing extra
        if len(small) > len(large):
            small, large = large, small
        loops.extend((p, tid) for p in small if p in large)
    return [
        f"place {p!r} is on a self-loop through transition {tid!r}"
        for p, tid in sorted(loops, key=lambda loop: order[loop[0]])
    ]
