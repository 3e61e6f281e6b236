"""Net-to-statechart transformation pipeline.

Builds the flat chart in one pass over the net, recording every
correspondence in a trace and filling, in the same pass, the index graph
of the net that the reduction runs on; then derives the hierarchy with
the AND/OR reduction rules until nothing more applies. The input net is
never changed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

from .chart import AndState, Basic, HyperEdge, OrState, StateChart
from .errors import PreconditionError, TraceError
from .net import PetriNet, _collector_paused, check_net, invalid_net


class TraceEntry(NamedTuple):
    """One recorded correspondence: rule name, input id, output id."""

    rule: str
    input: str
    output: str


class Trace:
    """Trace of one transformation pass; use a fresh instance per pass.

    Records (rule, input id, output id) triples under the six rule names
    of the case (PetriNet2StateChart, PetriNet2TopState, Place2Or,
    Place2Basic, Transition2HyperEdge, AndRulePlace2Or). `entries` holds
    the records in the order the pass made them, which `initialize` does
    rule by rule; only the order `export` gives is a contract. Between
    `initialize` and `reduce` the trace also holds the index graph
    `initialize` built for `reduce`, and the net object it was built
    from; `reduce` takes it off.
    """

    def __init__(self) -> None:
        self.entries: list[TraceEntry] = []
        # `reduce`'s index graph as (net, ors, pre, post, tpre, tpost), see
        # `reduce`; set by `initialize`, taken off by `reduce`
        self._graph: tuple | None = None

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


@_collector_paused
def initialize(net: PetriNet, trace: Trace) -> StateChart:
    """Build the flat chart for *net*: one OR-wrapped basic per place under a
    fresh AND topstate, one hyperedge per transition.

    Ids are handed out topstate first, then each place's OR state followed
    by its basic, then the hyperedges, so ids follow net order. Each
    hyperedge lists its sources and targets in place-declaration order.
    The trace records are appended rule by rule, each rule's in net
    order; only `Trace.export` fixes their order. The same walk over the
    transitions, each unpacked into its sides, fills `reduce`'s index
    graph (see `reduce`), which the trace holds until `reduce` runs.

    Raises
    ------
    ValidationError
        If the net has structural violations, an empty side or a side
        naming a place the net lacks, with `check_net`'s list; the trace
        is left as it was.
    PreconditionError
        If *trace* already holds a pass; traces are single-use.
    """
    if trace.entries:
        if check_net(net):
            raise invalid_net(net)
        raise PreconditionError("trace already holds a pass; use a fresh Trace per pass")
    name, places, transitions = net.name, net.places, net.transitions
    chart = StateChart(name)
    # the ids come in one block: the topstate's, then an OR's and its
    # basic's for each place
    ids = chart.node_ids(1 + 2 * len(places))
    top = AndState(ids[0])
    or_ids, basic_ids = ids[1::2], ids[2::2]
    ors = list(map(OrState, or_ids))
    basics = list(map(Basic, basic_ids, places))
    for or_state, basic in zip(ors, basics):
        or_state.children[basic] = None
    top.children = dict.fromkeys(ors)
    chart.topstate = top

    edge_ids = chart.edge_ids(len(transitions))
    edges = chart.hyperedges
    edges.extend(map(HyperEdge, edge_ids, transitions))
    # what `check_net` checks is flagged here, and `check_net` runs only
    # to raise its list: an empty side, and a place that is not the net's
    # (a KeyError where the sides' place ids are looked up)
    sound = True
    # each side's slots give the hyperedge's endpoints and `reduce`'s
    # index graph (see `reduce`) in the same walk, in net order, so each
    # slot dict gets its transitions in net order: a one-place side is one
    # slot lookup, a longer one is put in place-declaration order by slot
    slot_of = dict(zip(places, range(len(basics))))
    slot = slot_of.__getitem__
    basic_at = basics.__getitem__
    pre = [{} for _ in basics]
    post = [{} for _ in basics]
    tpre, tpost = [], []
    try:
        for j, edge, (src, tgt) in zip(count(), edges, transitions.values()):
            if not (src and tgt):
                sound = False
                break
            if len(src) == 1:
                (place,) = src
                i = slot_of[place]
                edge.sources = [basics[i]]
                post[i][j] = 0
                tpre.append({i})
            else:
                slots = sorted(map(slot, src))
                edge.sources = list(map(basic_at, slots))
                for i in slots:
                    post[i][j] = 0
                tpre.append(set(slots))
            if len(tgt) == 1:
                (place,) = tgt
                i = slot_of[place]
                edge.targets = [basics[i]]
                pre[i][j] = 0
                tpost.append({i})
            else:
                slots = sorted(map(slot, tgt))
                edge.targets = list(map(basic_at, slots))
                for i in slots:
                    pre[i][j] = 0
                tpost.append(set(slots))
    except KeyError:
        sound = False
    if not sound:
        raise invalid_net(net)

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
    trace._graph = (net, ors, pre, post, tpre, tpost)
    return chart


@_collector_paused
def reduce(
    net: PetriNet,
    chart: StateChart,
    trace: Trace,
    rng: random.Random | None = None,
) -> ReductionReport:
    """Apply the OR and AND rules from a transition worklist until it drains.

    *chart* and *trace* must be the flat chart and the trace that
    `initialize` built for *net*, the same net object. The rules run on
    the index graph `initialize` left on the trace, which `reduce` takes
    off it; *net* stays untouched and only the chart changes. The
    worklist starts with every transition in insertion order and is
    consumed first-in first-out; passing *rng* switches to random picks.
    On series-parallel nets the result's shape does not depend on the pick
    order; on general nets it can, when one fusion blocks another. After
    a successful application the transitions around the surviving place
    that are off the worklist go back on it, in adjacency order. An OR
    fusion chains the two OR states in O(1) and renames the arcs of the
    smaller of the two places; each OR child moves once, when the AND
    rule nests its OR state or when the reduction ends. Hubs and long
    chains therefore reduce in near-linear time.

    The index graph is the net as integer-indexed adjacency, with slot i
    for the i-th place and index j for the j-th transition. `pre[i]` and
    `post[i]` map the transitions around place slot i to order keys;
    `tpre[j]` and `tpost[j]` are the place slots of transition j. `ors[i]`
    is the OR state slot i stands for and `rank[i]` its declaration rank:
    places rank in the net's order, merged places after them. A dead slot
    holds None in `pre`, `post` and `ors`, and a dead transition in both
    of its sides.

    The OR rule fuses p into q, but the place with more arcs keeps its
    slot and takes on q's OR state and rank, so only the other place's
    arcs are renamed. Merged adjacency keeps q's entries first, then p's
    new ones. An appended entry holds key 0 and iterates in insertion
    order; entries put in front of a larger dict get fresh negative keys
    and put the slot in `mixed`, whose dicts are read sorted by key.
    `idle[i]` bounds from above how many transitions around slot i are off
    the worklist; while it is 0, the re-enqueue scan is skipped.

    Fused OR states form a chain headed by `ors[i]`: `after` maps each
    chained state to the next and `tail[i]` is the last. `gather` moves
    their children into the head once, when the AND rule nests the head
    or when the reduction ends.

    Raises
    ------
    TraceError
        If *trace* holds no index graph for *net* (it was built for
        another net object, a copy of *net* with the same ids included,
        or it was already reduced), or if the topstate's children are not
        the OR states `initialize` built with *trace*, in net order (a
        chart from another pass). Chart and trace are left as they were.
    """
    handed = trace._graph
    if handed is None or handed[0] is not net:
        raise TraceError(
            f"trace holds no index graph for net {net.name!r}: reduce the net object "
            "`initialize` read, once"
        )
    top = chart.topstate
    if top is None or list(top.children) != handed[1]:
        raise TraceError(
            f"chart {chart.name!r} is not the flat chart traced for net {net.name!r}"
        )
    _, ors, pre, post, tpre, tpost = handed
    trace._graph = None
    rank = list(range(len(ors)))
    idle = [0] * len(ors)
    mixed: set[int] = set()
    first_key = 0
    merges = 0
    after: dict[OrState, OrState] = {}
    tail = list(ors)

    # none of these closures names itself or one that names it back: such a
    # cycle would outlive the call, since automatic collection is paused
    def ordered(i: int, side: dict):
        """Slot i's adjacency dict *side* in its logical order."""
        return sorted(side, key=side.__getitem__) if i in mixed else side

    def append(side: list, q: int, p: int) -> None:
        """Add p's entries of *side* that q lacks after q's, with key 0."""
        into = side[q]
        for u in ordered(p, side[p]):
            if u not in into:
                into[u] = 0

    def put_in_front(side: list, q: int, p: int) -> None:
        """Give q's entries of *side* the lowest keys in p's dict."""
        nonlocal first_key
        front = side[q]
        if front:
            back = side[p]
            first = first_key - len(front)
            for key, u in enumerate(ordered(q, front), first):
                back[u] = key
            first_key = first
            mixed.add(p)

    def or_rule(t: int) -> int | None:
        """Fuse p into q for a sequential step q -> t -> p, putting or(p)'s
        children after or(q)'s. Returns the surviving slot, or None when t
        does not qualify."""
        src, tgt = tpre[t], tpost[t]
        if len(src) != 1 or len(tgt) != 1:
            return None
        (q,), (p,) = src, tgt
        if q == p:
            return None
        pre_q, post_q, pre_p, post_p = pre[q], post[q], pre[p], post[p]
        # a second q->p transition would become a self-loop on the fused place,
        # and so would a p->q one; t alone is cheap to rule out
        if len(post_q) > 1 and len(pre_p) > 1 and len(post_q.keys() & pre_p.keys()) > 1:
            return None
        if post_p and pre_q and not post_p.keys().isdisjoint(pre_q.keys()):
            return None
        del post_q[t], pre_p[t]
        tpre[t] = tpost[t] = None
        # or(p)'s chain goes after or(q)'s; no child moves until `gather`
        after[tail[q]] = ors[p]
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
            if mixed and (p in mixed or q in mixed):
                append(pre, q, p)
                append(post, q, p)
            else:  # every key is 0, so rewriting one keeps its place
                if pre_p:
                    pre_q.update(pre_p)
                if post_p:
                    post_q.update(post_p)
            tail[q] = tail[p]
        else:
            put_in_front(pre, q, p)
            put_in_front(post, q, p)
            rank[p] = rank[q]
            ors[p] = ors[q]
        pre[gone] = post[gone] = ors[gone] = None
        idle[survivor] += idle[gone]
        return survivor

    def gather(state: OrState) -> OrState:
        """Move the child of each OR state chained behind *state* into it,
        in chain order, and empty the chained states."""
        children = state.children
        link = after.pop(state, None)
        while link is not None:
            (child,) = link.children
            children[child] = None
            link.children = {}
            link = after.pop(link, None)
        return state

    def merged_id() -> str:
        """The next id m<k> that is no place or transition id of the net."""
        nonlocal merges
        while True:
            candidate = f"m{merges}"
            merges += 1
            if candidate not in net.places and candidate not in net.transitions:
                return candidate

    def and_rule(t: int) -> int | None:
        """Replace a group of interchangeable parallel places around t by one
        fresh slot, nesting their OR states under a new AND. Returns the
        fresh slot, or None when no group qualifies.

        The group is the whole preset when it has two or more places, else
        the whole postset, in declaration order. Every member must share
        both adjacency sets exactly and stay off self-loops.
        """
        src, tgt = tpre[t], tpost[t]
        group = src if len(src) >= 2 else tgt if len(tgt) >= 2 else None
        if group is None:
            return None
        # most groups fail this test, so they are compared against any one
        # member and put in rank order only once they qualify
        others = iter(group)
        some = next(others)
        pre_keys, post_keys = pre[some].keys(), post[some].keys()
        for member in others:
            if pre[member].keys() != pre_keys or post[member].keys() != post_keys:
                return None
        if not pre_keys.isdisjoint(post_keys):
            return None
        group = sorted(group, key=rank.__getitem__)
        first = group[0]

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
        if first in mixed:
            mixed.add(fresh)
        # the members leave the topstate, whose children `reduce` sets at
        # the end
        and_id, or_id = chart.node_ids(2)
        node, wrapper = AndState(and_id), OrState(or_id)
        for member in group:
            node.children[gather(ors[member])] = None
            pre[member] = post[member] = ors[member] = None
        wrapper.children[node] = None
        ors.append(wrapper)
        tail.append(wrapper)
        rank.append(fresh)
        idle.append(1)  # t itself is off the worklist
        trace.entries.append(TraceEntry("AndRulePlace2Or", merged_id(), wrapper.id))
        return fresh

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
            for side in (pre[survivor], post[survivor]):
                for adjacent in ordered(survivor, side):
                    if not queued[adjacent]:
                        queue.append(adjacent)
                        queued[adjacent] = True

    live = [i for i, state in enumerate(ors) if state is not None]
    live.sort(key=rank.__getitem__)
    top.children = {}
    for i in live:
        top.children[gather(ors[i])] = None
    # each OR application consumes one transition, and nothing else does
    return ReductionReport(
        and_applications=and_applications,
        or_applications=or_applications,
        remaining_places=len(live),
        remaining_transitions=len(tpre) - or_applications,
    )


@_collector_paused
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
