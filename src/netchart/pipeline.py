"""Net-to-statechart transformation pipeline.

Builds the flat chart in one pass over the net, recording every
correspondence in a trace, then collapses the working net with the AND/OR
reduction rules until nothing more applies.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .chart import OrState, StateChart
from .errors import PreconditionError, TraceError, ValidationError
from .net import PetriNet, Place, Transition, check_net, shared


@dataclass
class TraceEntry:
    """One recorded correspondence: rule name, input id, output id."""

    rule: str
    input: str
    output: str


class Trace:
    """Trace of one transformation pass; use a fresh instance per pass.

    Records (rule, input id, output id) triples under the six rule names
    of the case (PetriNet2StateChart, PetriNet2TopState, Place2Or,
    Place2Basic, Transition2HyperEdge, AndRulePlace2Or), maps every place
    id to the OR state built for it, and hands out fresh ids for merged
    places. Places are looked up by id, never by identity, so places of a
    copied net resolve to the OR states recorded for the original.
    """

    def __init__(self) -> None:
        self.entries: list[tuple[str, str, str]] = []
        self.ors: dict[str, OrState] = {}
        self._next_merge = 0

    def or_state(self, place: Place) -> OrState:
        """The OR state traced to *place*; raises TraceError if there is none."""
        try:
            return self.ors[place.id]
        except KeyError:
            raise TraceError(f"no OR state traced to place {place.id!r}") from None

    def fresh_place_id(self, net: PetriNet) -> str:
        """Pick a merged-place id never used by *net*, not even by removed
        elements, so trace inputs stay unambiguous."""
        while True:
            candidate = f"m{self._next_merge}"
            self._next_merge += 1
            if candidate not in net.used_ids:
                return candidate

    def export(self) -> list[TraceEntry]:
        """The whole trace as entries sorted by (rule name, input id)."""
        entries = sorted(self.entries, key=lambda entry: entry[:2])
        return [TraceEntry(*entry) for entry in entries]


@dataclass
class ReductionReport:
    """Counters describing one reduction run."""

    and_applications: int = 0
    or_applications: int = 0
    remaining_places: int = 0
    remaining_transitions: int = 0

    @property
    def fully_reduced(self) -> bool:
        return self.remaining_places == 1 and self.remaining_transitions == 0


class TransformResult(NamedTuple):
    """What `transform` returns; unpacks as (chart, report, trace)."""

    chart: StateChart
    report: ReductionReport
    trace: list[TraceEntry]


def initialize(net: PetriNet, trace: Trace) -> StateChart:
    """Build the flat chart for *net*: one OR-wrapped basic per place under a
    fresh AND topstate, one hyperedge per transition.

    Nodes are created topstate first, then each place's OR state followed
    by its basic, then the hyperedges, so ids follow net order.

    Raises
    ------
    ValidationError
        If the net has structural violations.
    PreconditionError
        If *trace* already holds a pass; traces are single-use.
    """
    violations = check_net(net)
    if violations:
        raise ValidationError(f"net {net.name!r} is not well formed", violations)
    if trace.entries:
        raise PreconditionError("trace already holds a pass; use a fresh Trace per pass")
    record = trace.entries.append
    chart = StateChart(net.name)
    record(("PetriNet2StateChart", net.name, net.name))
    top = chart._new_and_shell()
    record(("PetriNet2TopState", net.name, top.id))
    basics = {}
    for pid in net.places:
        or_state = chart._new_or_shell()
        basic = chart.new_basic(pid)
        or_state.attach(basic)
        top.attach(or_state)
        trace.ors[pid] = or_state
        basics[pid] = basic
        record(("Place2Or", pid, or_state.id))
        record(("Place2Basic", pid, basic.id))
    chart.set_topstate(top)
    for tid, transition in net.transitions.items():
        edge = chart.new_hyperedge(tid)
        edge.sources = [basics[place.id] for place in transition.preset]
        edge.targets = [basics[place.id] for place in transition.postset]
        chart.add_hyperedge(edge)
        record(("Transition2HyperEdge", tid, edge.id))
    return chart


def try_or_rule(
    net: PetriNet,
    chart: StateChart,
    trace: Trace,
    transition: Transition,
) -> Place | None:
    """Collapse a sequential step q -> t -> p into q, absorbing or(p) into
    or(q). Returns the surviving place, or None when t does not qualify.
    """
    if net.transitions.get(transition.id) is not transition:
        return None
    if len(transition.preset) != 1 or len(transition.postset) != 1:
        return None
    q = next(iter(transition.preset))
    p = next(iter(transition.postset))
    if q is p:
        return None
    # a second q->p transition would become a self-loop on the fused place
    for other in shared(q.post_transitions, p.pre_transitions):
        if other is not transition:
            return None
    if shared(p.post_transitions, q.pre_transitions):
        return None

    or_q = trace.or_state(q)
    or_p = trace.or_state(p)
    net.remove_transition(transition)
    net.fuse_places(q, p)
    chart.detach(or_p)
    or_q.absorb(or_p)
    return q


def try_and_rule(
    net: PetriNet,
    chart: StateChart,
    trace: Trace,
    transition: Transition,
) -> Place | None:
    """Collapse a group of interchangeable parallel places around
    *transition* into one fresh place, nesting their OR states under a new
    AND. Returns the fresh place, or None when no group qualifies.

    The group is the whole preset when it has two or more places, else the
    whole postset. Every member must share both adjacency sets exactly and
    stay off self-loops.
    """
    if net.transitions.get(transition.id) is not transition:
        return None
    if len(transition.preset) >= 2:
        group = list(transition.preset)
    elif len(transition.postset) >= 2:
        group = list(transition.postset)
    else:
        return None
    first = group[0]
    for place in group[1:]:
        if (
            place.pre_transitions != first.pre_transitions
            or place.post_transitions != first.post_transitions
        ):
            return None
    for place in group:
        if place.on_self_loop():
            return None

    group.sort(key=lambda place: place.serial)
    ors = [trace.or_state(place) for place in group]
    fresh = net.replace_places(group, trace.fresh_place_id(net))
    for or_state in ors:
        chart.detach(or_state)
    wrapper = chart.new_or([chart.new_and(ors)])
    chart.topstate.attach(wrapper)
    trace.ors[fresh.id] = wrapper
    trace.entries.append(("AndRulePlace2Or", fresh.id, wrapper.id))
    return fresh


def reduce(
    net: PetriNet,
    chart: StateChart,
    trace: Trace,
    rng: random.Random | None = None,
) -> ReductionReport:
    """Apply the OR and AND rules from a transition worklist until it drains.

    The worklist starts with every transition in insertion order and is
    consumed first-in first-out; passing *rng* switches to random picks,
    which exercises confluence without changing the result's shape. After a
    successful application the transitions around the surviving place go
    back on the list.
    """
    queue: deque[Transition] = deque(net.transitions.values())
    queued = set(net.transitions)
    report = ReductionReport()
    while queue:
        if rng is None:
            transition = queue.popleft()
        else:
            index = rng.randrange(len(queue))
            transition = queue[index]
            del queue[index]
        queued.discard(transition.id)

        survivor = try_or_rule(net, chart, trace, transition)
        if survivor is not None:
            report.or_applications += 1
        else:
            survivor = try_and_rule(net, chart, trace, transition)
            if survivor is not None:
                report.and_applications += 1
        if survivor is None:
            continue
        for adjacent in list(survivor.pre_transitions) + list(
            survivor.post_transitions
        ):
            if adjacent.id not in queued:
                queue.append(adjacent)
                queued.add(adjacent.id)

    report.remaining_places = len(net.places)
    report.remaining_transitions = len(net.transitions)
    return report


def transform(
    input_net: PetriNet, rng: random.Random | None = None
) -> TransformResult:
    """Run the full pipeline on *input_net* without mutating it.

    The flat chart is built against the original net; reduction then runs on
    a deep copy, whose places the trace finds by id while the copy shrinks.
    Returns the chart, the reduction counters and the exported trace.
    """
    trace = Trace()
    chart = initialize(input_net, trace)
    working = input_net.copy()
    report = reduce(working, chart, trace, rng=rng)
    return TransformResult(chart=chart, report=report, trace=trace.export())
