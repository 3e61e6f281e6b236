"""Net-to-statechart transformation pipeline.

Builds the flat chart in one pass over the net, recording every
correspondence in a trace, then derives the hierarchy with the AND/OR
reduction rules, run on a private index graph of the net, until nothing
more applies. The input net is never changed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .chart import OrState, StateChart
from .errors import PreconditionError, TraceError, ValidationError
from .net import PetriNet, check_net, shared


class TraceEntry(NamedTuple):
    """One recorded correspondence: rule name, input id, output id."""

    rule: str
    input: str
    output: str


class Trace:
    """Trace of one transformation pass; use a fresh instance per pass.

    Records (rule, input id, output id) triples under the six rule names
    of the case (PetriNet2StateChart, PetriNet2TopState, Place2Or,
    Place2Basic, Transition2HyperEdge, AndRulePlace2Or), and maps every
    place id of the input net to the OR state `initialize` built for it.
    """

    def __init__(self) -> None:
        self.entries: list[TraceEntry] = []
        self.ors: dict[str, OrState] = {}

    def export(self) -> list[TraceEntry]:
        """The whole trace, sorted; a pass records each (rule, input) pair once."""
        return sorted(self.entries)


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
    by its basic, then the hyperedges, so ids follow net order. Each
    hyperedge lists its sources and targets in place-declaration order.

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
    record(TraceEntry("PetriNet2StateChart", net.name, net.name))
    top = chart._new_and_shell()
    record(TraceEntry("PetriNet2TopState", net.name, top.id))
    basics = []
    slot = {}
    for pid, place in net.places.items():
        or_state = chart._new_or_shell()
        basic = chart.new_basic(pid)
        or_state.attach(basic)
        top.attach(or_state)
        trace.ors[pid] = or_state
        slot[place] = len(basics)
        basics.append(basic)
        record(TraceEntry("Place2Or", pid, or_state.id))
        record(TraceEntry("Place2Basic", pid, basic.id))
    chart.set_topstate(top)
    for tid, transition in net.transitions.items():
        edge = chart.new_hyperedge(tid)
        edge.sources = [basics[i] for i in sorted(slot[p] for p in transition.preset)]
        edge.targets = [basics[i] for i in sorted(slot[p] for p in transition.postset)]
        chart.add_hyperedge(edge)
        record(TraceEntry("Transition2HyperEdge", tid, edge.id))
    return chart


class _Graph:
    """The net as integer-indexed adjacency, private to one `reduce` call.

    Place slots follow the net's order and merged places are appended, so
    slot order is declaration order. `pre[i]` and `post[i]` map transition
    indices to None in the net's insertion order; `tpre[j]` and `tpost[j]`
    are the place slots of transition j. `ors[i]` is the OR state of slot
    i. A dead slot holds None in all three, and a dead transition in both
    of its sides.
    """

    __slots__ = ("net", "chart", "trace", "pre", "post", "tpre", "tpost", "ors",
                 "live_places", "live_transitions", "merges")

    def __init__(self, net: PetriNet, chart: StateChart, trace: Trace, ors: list):
        slot = {place: i for i, place in enumerate(net.places.values())}
        self.net, self.chart, self.trace, self.ors = net, chart, trace, ors
        self.pre, self.post = [{} for _ in slot], [{} for _ in slot]
        self.tpre = [{slot[p] for p in t.preset} for t in net.transitions.values()]
        self.tpost = [{slot[p] for p in t.postset} for t in net.transitions.values()]
        for j, (src, tgt) in enumerate(zip(self.tpre, self.tpost)):
            for i in src:
                self.post[i][j] = None
            for i in tgt:
                self.pre[i][j] = None
        self.live_places = len(slot)
        self.live_transitions = len(self.tpre)
        self.merges = 0

    def or_rule(self, t: int) -> int | None:
        """Fuse p into q for a sequential step q -> t -> p, appending or(p)'s
        children to or(q). Returns q, or None when t does not qualify."""
        src, tgt = self.tpre[t], self.tpost[t]
        if len(src) != 1 or len(tgt) != 1:
            return None
        (q,), (p,) = src, tgt
        if q == p:
            return None
        pre, post = self.pre, self.post
        # a second q->p transition would become a self-loop on the fused place
        if len(shared(post[q], pre[p])) > 1 or shared(post[p], pre[q]):
            return None
        del post[q][t], pre[p][t]
        self.tpre[t] = self.tpost[t] = None
        for u in pre[p]:
            side = self.tpost[u]
            side.discard(p)
            side.add(q)
            pre[q][u] = None
        for u in post[p]:
            side = self.tpre[u]
            side.discard(p)
            side.add(q)
            post[q][u] = None
        pre[p] = post[p] = None
        keep, drop = self.ors[q], self.ors[p]
        for child in drop.children:
            child.parent = keep
            keep.children[child] = None
        drop.children.clear()
        drop.parent = self.ors[p] = None
        self.live_places -= 1
        self.live_transitions -= 1
        return q

    def and_rule(self, t: int) -> int | None:
        """Replace a group of interchangeable parallel places around t by one
        fresh slot, nesting their OR states under a new AND. Returns the
        fresh slot, or None when no group qualifies.

        The group is the whole preset when it has two or more places, else
        the whole postset. Every member must share both adjacency sets
        exactly and stay off self-loops.
        """
        src, tgt = self.tpre[t], self.tpost[t]
        group = sorted(src if len(src) >= 2 else tgt if len(tgt) >= 2 else ())
        if not group:
            return None
        pre, post = self.pre, self.post
        first = group[0]
        for member in group[1:]:
            if pre[member] != pre[first] or post[member] != post[first]:
                return None
        if shared(pre[first], post[first]):
            return None

        fresh = len(pre)
        members = set(group)
        for u in pre[first]:
            side = self.tpost[u]
            side -= members
            side.add(fresh)
        for u in post[first]:
            side = self.tpre[u]
            side -= members
            side.add(fresh)
        pre.append(pre[first])
        post.append(post[first])
        states = []
        for member in group:
            pre[member] = post[member] = None
            states.append(self.ors[member])
            self.ors[member] = None
        for state in states:
            state.parent = None
        wrapper = self.chart.new_or([self.chart.new_and(states)])
        self.ors.append(wrapper)
        self.trace.entries.append(TraceEntry("AndRulePlace2Or", self._merged_id(), wrapper.id))
        self.live_places += 1 - len(group)
        return fresh

    def _merged_id(self) -> str:
        """The next id m<k> that is no place or transition id of the net."""
        while True:
            candidate = f"m{self.merges}"
            self.merges += 1
            if candidate not in self.net.places and candidate not in self.net.transitions:
                return candidate


def reduce(
    net: PetriNet,
    chart: StateChart,
    trace: Trace,
    rng: random.Random | None = None,
) -> ReductionReport:
    """Apply the OR and AND rules from a transition worklist until it drains.

    *chart* and *trace* must be the flat chart and the trace that
    `initialize` built for *net*. The rules run on a private graph built
    from *net*, which stays untouched; only the chart changes. The
    worklist starts with every transition in insertion order and is
    consumed first-in first-out; passing *rng* switches to random picks,
    which exercises confluence without changing the result's shape. After
    a successful application the transitions around the surviving place go
    back on the list.

    Raises
    ------
    TraceError
        If the topstate's children are not the OR states *trace* recorded
        for the places of *net*, in net order: a chart built for another
        net, or one that was already reduced.
    """
    top = chart.topstate
    ors = [trace.ors.get(pid) for pid in net.places]
    if top is None or list(top.children) != ors:
        raise TraceError(
            f"chart {chart.name!r} is not the flat chart traced for net {net.name!r}"
        )
    graph = _Graph(net, chart, trace, ors)
    queue: deque[int] = deque(range(graph.live_transitions))
    queued = [True] * graph.live_transitions
    report = ReductionReport()
    while queue:
        if rng is None:
            transition = queue.popleft()
        else:
            index = rng.randrange(len(queue))
            transition = queue[index]
            del queue[index]
        queued[transition] = False

        survivor = graph.or_rule(transition)
        if survivor is not None:
            report.or_applications += 1
        else:
            survivor = graph.and_rule(transition)
            if survivor is not None:
                report.and_applications += 1
        if survivor is None:
            continue
        for adjacent in list(graph.pre[survivor]) + list(graph.post[survivor]):
            if not queued[adjacent]:
                queue.append(adjacent)
                queued[adjacent] = True

    top.children = {}
    for state in ors:
        if state is not None:
            state.parent = top
            top.children[state] = None
    report.remaining_places = graph.live_places
    report.remaining_transitions = graph.live_transitions
    return report


def transform(
    input_net: PetriNet, rng: random.Random | None = None
) -> TransformResult:
    """Run the full pipeline on *input_net* without mutating it.

    Returns the chart, the reduction counters and the exported trace.
    """
    trace = Trace()
    chart = initialize(input_net, trace)
    report = reduce(input_net, chart, trace, rng=rng)
    return TransformResult(chart=chart, report=report, trace=trace.export())
