"""Shared builders and comparison helpers for the test suite."""

from __future__ import annotations

import os
import random
import sys

from hypothesis import strategies as st

import netchart
from netchart import AndState, Basic, Node, PetriNet, SpSpec, StateChart, generate_sp


def child_env(**extra) -> dict[str, str]:
    """Environment for a child interpreter that imports this netchart.

    The directory above the imported package goes first on PYTHONPATH,
    as an absolute path, so the child runs the same netchart as this
    process whatever its working directory, and never an older copy
    installed elsewhere.
    """
    init = os.path.abspath(netchart.__file__)
    path = [os.path.dirname(os.path.dirname(init))]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def diamond() -> PetriNet:
    """Fork/join over two parallel places: q -> t1 -> {a, b} -> t2 -> r."""
    net = PetriNet("D1")
    for pid in ("q", "a", "b", "r"):
        net.add_place(pid)
    net.add_transition("t1", ["q"], ["a", "b"])
    net.add_transition("t2", ["a", "b"], ["r"])
    return net


def three_cycle() -> PetriNet:
    """Directed cycle q -> p -> s -> q; cannot collapse to one place."""
    net = PetriNet("cycle3")
    for pid in ("q", "p", "s"):
        net.add_place(pid)
    net.add_transition("t1", ["q"], ["p"])
    net.add_transition("t2", ["p"], ["s"])
    net.add_transition("t3", ["s"], ["q"])
    return net


def two_chain() -> PetriNet:
    net = PetriNet("chain2")
    net.add_place("p")
    net.add_place("p2")
    net.add_transition("t", ["p"], ["p2"])
    return net


def single_place() -> PetriNet:
    net = PetriNet("solo")
    net.add_place("p0")
    return net


def fork_join_nest(depth: int) -> PetriNet:
    """`depth` nested fork/joins: each level forks into one place and the
    next level in, and joins them again.  The reduced chart nests an OR
    and an AND state per level; depth 0 is a single place."""
    net = PetriNet(f"nest{depth}")
    entry = exit_ = net.add_place("c0")
    for level in range(1, depth + 1):
        side, fork, join = (net.add_place(f"{kind}{level}") for kind in "afj")
        net.add_transition(f"fork{level}", [fork], [side, entry])
        net.add_transition(f"join{level}", [side, exit_], [join])
        entry, exit_ = fork, join
    return net


def round_trip_corpus() -> list[PetriNet]:
    """The support nets plus 20 seeded SP nets of 1 to 200 places."""
    corpus = [diamond(), three_cycle(), two_chain(), single_place()]
    rng = random.Random(8)
    corpus += [
        generate_sp(SpSpec(places=rng.randint(1, 200), seed=seed))
        for seed in range(20)
    ]
    return corpus


@st.composite
def general_nets(draw):
    """Nets of 1-8 places and 0-8 transitions; each side holds 1-4
    distinct places, and a place may sit on both sides (a self-loop).
    Transition ids are drawn apart from insertion order: a permutation
    of two-digit ids under a drawn prefix, so neither their sorted order
    nor their names follow the order the net lists them in."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 8)))]
    side = st.lists(st.sampled_from(places), min_size=1, max_size=4, unique=True)
    arcs = draw(st.lists(st.tuples(side, side), max_size=8))
    prefix = draw(st.sampled_from(["t", "u", "x", "step_"]))
    numbers = draw(st.permutations(range(10, 10 + len(arcs))))
    net = PetriNet("g")
    for pid in places:
        net.add_place(pid)
    for number, (src, tgt) in zip(numbers, arcs):
        net.add_transition(f"{prefix}{number}", src, tgt)
    return net


def node_signature(node: Node) -> str:
    """Canonical description of a subtree: ids dropped, child order ignored.

    Basics keep their origin place, so two charts compare equal exactly
    when they group the same original places the same way.
    """
    if isinstance(node, Basic):
        return f"b[{node.origin_place}]"
    tag = "and" if isinstance(node, AndState) else "or"
    return f"{tag}(" + ",".join(sorted(node_signature(c) for c in node.children)) + ")"


def chart_signature(chart: StateChart) -> str:
    return node_signature(chart.topstate)


def edges_signature(chart: StateChart) -> frozenset:
    """Hyperedges as (origin transition, source places, target places)."""
    return frozenset(
        (
            edge.origin_transition,
            frozenset(b.origin_place for b in edge.sources),
            frozenset(b.origin_place for b in edge.targets),
        )
        for edge in chart.hyperedges
    )


def net_edges_signature(net: PetriNet) -> frozenset:
    """The edge signature a chart over `net` must carry (conservation)."""
    return frozenset(
        (tid, frozenset(pre), frozenset(post))
        for tid, (pre, post) in net.transitions.items()
    )


def and_arities(chart: StateChart) -> list[int]:
    """Child counts of every AND state below the topstate, sorted."""
    return sorted(
        len(node.children)
        for node in chart.states()
        if isinstance(node, AndState) and node is not chart.topstate
    )


def net_to_plain(net: PetriNet) -> tuple[set[str], dict[str, tuple[frozenset, frozenset]]]:
    """Strip a net down to the id-level structure the oracle consumes."""
    places = set(net.places)
    transitions = {
        tid: (frozenset(pre), frozenset(post))
        for tid, (pre, post) in net.transitions.items()
    }
    return places, transitions


def chart_identical(a: StateChart, b: StateChart) -> bool:
    """Structural equality: trees match with ids and child order, hyperedges
    with ids and endpoint order."""
    if a.name != b.name or len(a.hyperedges) != len(b.hyperedges):
        return False
    if (a.topstate is None) != (b.topstate is None):
        return False
    if a.topstate is not None:
        pairs = [(a.topstate, b.topstate)]
        while pairs:
            x, y = pairs.pop()
            if type(x) is not type(y) or x.id != y.id:
                return False
            if isinstance(x, Basic):
                if x.origin_place != y.origin_place:
                    return False
                continue
            if len(x.children) != len(y.children):
                return False
            pairs.extend(zip(x.children, y.children))
    for ex, ey in zip(a.hyperedges, b.hyperedges):
        if ex.id != ey.id or ex.origin_transition != ey.origin_transition:
            return False
        if [s.id for s in ex.sources] != [s.id for s in ey.sources]:
            return False
        if [t.id for t in ex.targets] != [t.id for t in ey.targets]:
            return False
    return True


class WorkBudgetExceeded(Exception):
    """Raised inside a call that `line_events` stops at its budget."""


_PACKAGE_DIR = os.path.dirname(netchart.__file__) + os.sep


def line_events(call, *args, budget: int | None = None):
    """Run ``call(*args)`` and count the line events `sys.settrace`
    reports in netchart's own source files meanwhile.

    The count measures the Python work the package does, whatever the
    machine's speed, load, caches or allocator.  Work inside a C call,
    such as ``dict.update``, ``sorted`` or ``del deque[i]``, is not
    counted: the call counts as the one line that makes it, however much
    it does.  Past *budget* events the call is stopped by
    `WorkBudgetExceeded`, raised at the line it reached.  Returns the
    call's result and the count.
    """
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if budget is not None and count > budget:
                raise WorkBudgetExceeded(f"more than {budget} line events")
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(_PACKAGE_DIR) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call(*args)
    finally:
        sys.settrace(previous)
    return result, count
