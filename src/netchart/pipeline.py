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
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from .chart import AndState, Basic, HyperEdge, OrState, StateChart
from .errors import PreconditionError, TraceError
from .net import PetriNet, invalid_net

_id_of = attrgetter("id")


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
    `entries` holds the records in the order the pass made them, which
    `initialize` does rule by rule; only the order `export` gives is a
    contract.
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

    Ids are handed out topstate first, then each place's OR state followed
    by its basic, then the hyperedges, so ids follow net order. Each
    hyperedge lists its sources and targets in place-declaration order.
    The trace records are appended rule by rule, each rule's in net
    order; only `Trace.export` fixes their order.

    Raises
    ------
    ValidationError
        If the net has structural violations, with `check_net`'s list;
        the trace is left as it was.
    PreconditionError
        If *trace* already holds a pass; traces are single-use.
    """
    if trace.entries:
        error = invalid_net(net)
        if error.violations:
            raise error
        raise PreconditionError("trace already holds a pass; use a fresh Trace per pass")
    name, places, transitions = net.name, net.places, net.transitions
    chart = StateChart(name)
    # the nodes are fresh, so they are built and linked directly, under
    # ids the chart hands out in one block: the topstate's, then an OR's
    # and its basic's for each place
    ids = list(chart.node_ids(1 + 2 * len(places)))
    top = AndState(ids[0])
    or_ids, basic_ids = ids[1::2], ids[2::2]
    ors = list(map(OrState, or_ids))
    basics = list(map(Basic, basic_ids, places))
    for or_state, basic in zip(ors, basics):
        basic.parent = or_state
        or_state.children[basic] = None
        or_state.parent = top
    top.children = dict.fromkeys(ors)
    chart.topstate = top

    edge_ids = list(chart.edge_ids(len(transitions)))
    edges = chart.hyperedges
    edges.extend(map(HyperEdge, edge_ids, transitions))
    # what `check_net` checks is flagged here, and `check_net` runs only
    # to raise its list: an element stored under a key other than its id,
    # an empty side, and a place that is not the net's (a KeyError where
    # the sides' places are looked up, by identity)
    sound = (
        list(map(_id_of, places.values())) == list(places)
        and list(map(_id_of, transitions.values())) == list(transitions)
    )
    # a one-place side maps straight to its basic; a longer one is put in
    # place-declaration order by slot
    basic_of = dict(zip(places.values(), basics))
    slot = dict(zip(places.values(), range(len(basics)))).__getitem__
    basic_at = basics.__getitem__
    try:
        for edge, transition in zip(edges, transitions.values()):
            src, tgt = transition.preset, transition.postset
            if not (src and tgt):
                sound = False
                break
            if len(src) == 1:
                (place,) = src
                edge.sources = [basic_of[place]]
            else:
                edge.sources = list(map(basic_at, sorted(map(slot, src))))
            if len(tgt) == 1:
                (place,) = tgt
                edge.targets = [basic_of[place]]
            else:
                edge.targets = list(map(basic_at, sorted(map(slot, tgt))))
    except KeyError:
        sound = False
    if not sound:
        raise invalid_net(net)

    trace.ors.update(zip(places, ors))
    # the trace, rule by rule; the bulk rules skip TraceEntry's own
    # __new__, which only adds a Python call per record
    entries = trace.entries
    entries.append(TraceEntry("PetriNet2StateChart", name, name))
    entries.append(TraceEntry("PetriNet2TopState", name, top.id))
    for rule, inputs, outputs in (
        ("Place2Or", places, or_ids),
        ("Place2Basic", places, basic_ids),
        ("Transition2HyperEdge", transitions, edge_ids),
    ):
        entries.extend(map(tuple.__new__, repeat(TraceEntry), zip(repeat(rule), inputs, outputs)))
    return chart


class _Graph:
    """The net as integer-indexed adjacency, private to one `reduce` call.

    `pre[i]` and `post[i]` map the transitions around place slot i to
    order keys; `tpre[j]` and `tpost[j]` are the place slots of transition
    j. `ors[i]` is the OR state slot i stands for and `rank[i]` its
    declaration rank: places rank in the net's order, merged places after
    them. A dead slot holds None in `pre`, `post` and `ors`, and a dead
    transition in both of its sides.

    The OR rule fuses p into q, but the place with more arcs keeps its
    slot and takes on q's OR state and rank, so only the other place's
    arcs are renamed. Merged adjacency keeps q's entries first, then p's
    new ones. An appended entry holds key 0 and iterates in insertion
    order; entries put in front of a larger dict get fresh negative keys
    and put the slot in `mixed`, whose dicts are read sorted by key.
    `idle[i]` bounds from above how many transitions around slot i are off
    the worklist; while it is 0, `reduce` skips the re-enqueue scan.

    Fused OR states form a chain headed by `ors[i]`: `after` maps each
    chained state to the next and `tail[i]` is the last. `_gather` moves
    their children into the head once, when the AND rule nests the head
    or when `reduce` ends.
    """

    __slots__ = ("net", "chart", "trace", "pre", "post", "tpre", "tpost", "ors", "rank",
                 "idle", "mixed", "first_key", "merges", "after", "tail")

    def __init__(self, net: PetriNet, chart: StateChart, trace: Trace, ors: list):
        places, transitions = net.places.values(), net.transitions.values()
        slot = dict(zip(places, range(len(places)))).__getitem__
        self.net, self.chart, self.trace, self.ors = net, chart, trace, ors
        self.pre = pre = [{} for _ in places]
        self.post = post = [{} for _ in places]
        self.tpre = [set(map(slot, t.preset)) for t in transitions]
        self.tpost = [set(map(slot, t.postset)) for t in transitions]
        for j, (src, tgt) in enumerate(zip(self.tpre, self.tpost)):
            for i in src:
                post[i][j] = 0
            for i in tgt:
                pre[i][j] = 0
        self.rank = list(range(len(places)))
        self.idle = [0] * len(places)
        self.mixed: set[int] = set()
        self.first_key = 0
        self.merges = 0
        self.after: dict[OrState, OrState] = {}
        self.tail = list(ors)

    def adjacent(self, i: int) -> list[int]:
        """The transitions around slot i in logical order, preset side first."""
        return [*self._ordered(i, self.pre[i]), *self._ordered(i, self.post[i])]

    def _ordered(self, i: int, side: dict):
        """Slot i's adjacency dict *side* in its logical order."""
        return sorted(side, key=side.__getitem__) if i in self.mixed else side

    def _append(self, side: list, q: int, p: int) -> None:
        """Add p's entries of *side* that q lacks after q's, with key 0."""
        into = side[q]
        for u in self._ordered(p, side[p]):
            if u not in into:
                into[u] = 0

    def _put_in_front(self, side: list, q: int, p: int) -> None:
        """Give q's entries of *side* the lowest keys in p's dict."""
        front = side[q]
        if front:
            back = side[p]
            first = self.first_key - len(front)
            for key, u in enumerate(self._ordered(q, front), first):
                back[u] = key
            self.first_key = first
            self.mixed.add(p)

    def or_rule(self, t: int) -> int | None:
        """Fuse p into q for a sequential step q -> t -> p, putting or(p)'s
        children after or(q)'s. Returns the surviving slot, or None when t
        does not qualify."""
        tpre, tpost = self.tpre, self.tpost
        src, tgt = tpre[t], tpost[t]
        if len(src) != 1 or len(tgt) != 1:
            return None
        (q,), (p,) = src, tgt
        if q == p:
            return None
        pre, post = self.pre, self.post
        pre_q, post_q, pre_p, post_p = pre[q], post[q], pre[p], post[p]
        # a second q->p transition would become a self-loop on the fused place,
        # and so would a p->q one; t alone is cheap to rule out
        if len(post_q) > 1 and len(pre_p) > 1 and len(post_q.keys() & pre_p.keys()) > 1:
            return None
        if post_p and pre_q and not post_p.keys().isdisjoint(pre_q.keys()):
            return None
        del post_q[t], pre_p[t]
        tpre[t] = tpost[t] = None
        # or(p)'s chain goes after or(q)'s; no child moves until `_gather`
        ors, tail = self.ors, self.tail
        self.after[tail[q]] = ors[p]
        if len(pre_q) + len(post_q) >= len(pre_p) + len(post_p):
            survivor, gone = q, p
        else:
            survivor, gone = p, q
        for u in pre[gone]:
            side = tpost[u]
            side.discard(gone)
            side.add(survivor)
        for u in post[gone]:
            side = tpre[u]
            side.discard(gone)
            side.add(survivor)
        if survivor == q:
            if self.mixed and (p in self.mixed or q in self.mixed):
                self._append(pre, q, p)
                self._append(post, q, p)
            else:  # every key is 0, so rewriting one keeps its place
                if pre_p:
                    pre_q.update(pre_p)
                if post_p:
                    post_q.update(post_p)
            tail[q] = tail[p]
        else:
            self._put_in_front(pre, q, p)
            self._put_in_front(post, q, p)
            self.rank[p] = self.rank[q]
            ors[p] = ors[q]
        pre[gone] = post[gone] = ors[gone] = None
        idle = self.idle
        idle[survivor] += idle[gone]
        return survivor

    def _gather(self, state: OrState) -> OrState:
        """Move the child of each OR state chained behind *state* into it,
        in chain order, and empty the chained states."""
        after, children = self.after, state.children
        link = after.pop(state, None)
        while link is not None:
            (child,) = link.children
            child.parent = state
            children[child] = None
            link.children = {}
            link.parent = None
            link = after.pop(link, None)
        return state

    def and_rule(self, t: int) -> int | None:
        """Replace a group of interchangeable parallel places around t by one
        fresh slot, nesting their OR states under a new AND. Returns the
        fresh slot, or None when no group qualifies.

        The group is the whole preset when it has two or more places, else
        the whole postset, in declaration order. Every member must share
        both adjacency sets exactly and stay off self-loops.
        """
        tpre, tpost = self.tpre, self.tpost
        src, tgt = tpre[t], tpost[t]
        group = src if len(src) >= 2 else tgt if len(tgt) >= 2 else None
        if group is None:
            return None
        group = sorted(group, key=self.rank.__getitem__)
        pre, post = self.pre, self.post
        first = group[0]
        pre_keys, post_keys = pre[first].keys(), post[first].keys()
        for member in group[1:]:
            if pre[member].keys() != pre_keys or post[member].keys() != post_keys:
                return None
        if not pre_keys.isdisjoint(post_keys):
            return None

        fresh, members = len(pre), set(group)
        for u in pre_keys:
            side = tpost[u]
            side -= members
            side.add(fresh)
        for u in post_keys:
            side = tpre[u]
            side -= members
            side.add(fresh)
        pre.append(pre[first])
        post.append(post[first])
        if first in self.mixed:
            self.mixed.add(fresh)
        # the nodes are fresh and the members leave the topstate, whose
        # children `reduce` sets at the end, so all are linked directly
        and_id, or_id = self.chart.node_ids(2)
        node, wrapper = AndState(and_id), OrState(or_id)
        ors = self.ors
        for member in group:
            state = self._gather(ors[member])
            state.parent = node
            node.children[state] = None
            pre[member] = post[member] = ors[member] = None
        node.parent = wrapper
        wrapper.children[node] = None
        ors.append(wrapper)
        self.tail.append(wrapper)
        self.rank.append(fresh)
        self.idle.append(1)  # t itself is off the worklist
        self.trace.entries.append(TraceEntry("AndRulePlace2Or", self._merged_id(), wrapper.id))
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
    a successful application the transitions around the surviving place
    that are off the worklist go back on it, in adjacency order. An OR
    fusion chains the two OR states in O(1) and renames the arcs of the
    smaller of the two places; each OR child moves once, when the AND
    rule nests its OR state or when the reduction ends. Hubs and long
    chains therefore reduce in near-linear time.

    Raises
    ------
    TraceError
        If the topstate's children are not the OR states *trace* recorded
        for the places of *net*, in net order: a chart built for another
        net, or one that was already reduced.
    """
    top = chart.topstate
    ors = list(map(trace.ors.get, net.places))
    if top is None or list(top.children) != ors:
        raise TraceError(
            f"chart {chart.name!r} is not the flat chart traced for net {net.name!r}"
        )
    graph = _Graph(net, chart, trace, ors)
    or_rule, and_rule = graph.or_rule, graph.and_rule
    tpre, tpost, idle = graph.tpre, graph.tpost, graph.idle
    queue: deque[int] = deque(range(len(tpre)))
    queued = [True] * len(tpre)
    or_applications = and_applications = 0
    while queue:
        if rng is None:
            transition = queue.popleft()
        else:
            index = rng.randrange(len(queue))
            transition = queue[index]
            del queue[index]
        queued[transition] = False

        survivor = or_rule(transition)
        if survivor is not None:
            or_applications += 1
        else:
            survivor = and_rule(transition)
            if survivor is None:  # off the worklist now: count it at its places
                for place in tpre[transition]:
                    idle[place] += 1
                for place in tpost[transition]:
                    idle[place] += 1
                continue
            and_applications += 1
        if idle[survivor]:
            idle[survivor] = 0
            for adjacent in graph.adjacent(survivor):
                if not queued[adjacent]:
                    queue.append(adjacent)
                    queued[adjacent] = True

    live = [i for i, state in enumerate(ors) if state is not None]
    live.sort(key=graph.rank.__getitem__)
    top.children = {}
    for i in live:
        state = graph._gather(ors[i])
        state.parent = top
        top.children[state] = None
    # each OR application consumes one transition, and nothing else does
    return ReductionReport(
        and_applications=and_applications,
        or_applications=or_applications,
        remaining_places=len(live),
        remaining_transitions=len(tpre) - or_applications,
    )


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
