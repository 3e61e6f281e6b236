"""Fixed net families: the shapes of ROADMAP item 4, several of which
`reduce` once took quadratic time on, and the non-confluent corpus.

Each builder of `FAMILIES` takes a size k (places or branches) and
returns a net made with `add_place` and `add_transition`, so declaration
order is exactly the order described.  The golden family digest and the
scaling test reduce the same nets.  `NON_CONFLUENT` holds the small nets
whose reduced shape depends on the order the rules are tried in, and
`keyed_order` a net whose seeded chart pins the order in which `reduce`
keeps the transitions around a fused place, and `appended_arcs` one
whose charts pin how a fusion moves arcs into a keyed slot.  This
module imports only netchart, so a child interpreter can time it without
the test dependencies.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

from netchart import PetriNet, Trace, initialize, reduce


def chain(k: int, order: str) -> PetriNet:
    """c0 -> c1 -> ... -> c<k-1>, transitions listed "forward",
    "reversed" or "shuffled" (a fixed shuffle seeded by k)."""
    net = PetriNet(f"{order}-chain{k}")
    for i in range(k):
        net.add_place(f"c{i}")
    steps = list(range(k - 1))
    if order == "reversed":
        steps.reverse()
    elif order == "shuffled":
        random.Random(k).shuffle(steps)
    for i in steps:
        net.add_transition(f"t{i}", [f"c{i}"], [f"c{i + 1}"])
    return net


def hub(k: int, fan_in: bool, fed: bool = False) -> PetriNet:
    """One hub h with k leaves x_i, each joined to it by one transition
    (x_i -> h for a fan-in hub, h -> x_i for a fan-out hub).  A *fed*
    fan-in hub also gives every leaf an incoming arc y_i -> x_i, listed
    after the hub's arcs, so both places of a fusion have predecessors."""
    net = PetriNet(f"{'fed' if fed else ''}{'in' if fan_in else 'out'}hub{k}")
    net.add_place("h")
    for i in range(k):
        net.add_place(f"x{i}")
        if fed:
            net.add_place(f"y{i}")
    for i in range(k):
        src, tgt = (f"x{i}", "h") if fan_in else ("h", f"x{i}")
        net.add_transition(f"t{i}", [src], [tgt])
    if fed:
        for i in range(k):
            net.add_transition(f"u{i}", [f"y{i}"], [f"x{i}"])
    return net


def fork_join(k: int) -> PetriNet:
    """s -> fork -> {x_0 .. x_<k-1>} -> join -> e: one AND of k branches."""
    net = PetriNet(f"forkjoin{k}")
    net.add_place("s")
    branches = [net.add_place(f"x{i}") for i in range(k)]
    net.add_place("e")
    net.add_transition("fork", ["s"], branches)
    net.add_transition("join", branches, ["e"])
    return net


def choice(k: int) -> PetriNet:
    """a -> x_i -> z for k branches; the parallel a->z paths block every
    rule, so nothing reduces."""
    net = PetriNet(f"choice{k}")
    net.add_place("a")
    for i in range(k):
        net.add_place(f"x{i}")
    net.add_place("z")
    for i in range(k):
        net.add_transition(f"in{i}", ["a"], [f"x{i}"])
        net.add_transition(f"out{i}", [f"x{i}"], ["z"])
    return net


FAMILIES = {
    "chain": lambda k: chain(k, "forward"),
    "reversed chain": lambda k: chain(k, "reversed"),
    "shuffled chain": lambda k: chain(k, "shuffled"),
    "fan-in hub": lambda k: hub(k, fan_in=True),
    "fan-out hub": lambda k: hub(k, fan_in=False),
    "fed fan-in hub": lambda k: hub(k, fan_in=True, fed=True),
    "fork/join": fork_join,
    "k-way choice": choice,
}


def four_place() -> PetriNet:
    """p4 -> t0 -> {p0, p1}, p5 -> t1 -> p0, p4 -> t2 -> p5: t0 blocks
    whichever OR fusion comes second, t1 (p5 into p0) or t2 (p5 into p4)."""
    net = PetriNet("cx")
    for pid in ("p0", "p1", "p4", "p5"):
        net.add_place(pid)
    net.add_transition("t0", ["p4"], ["p0", "p1"])
    net.add_transition("t1", ["p5"], ["p0"])
    net.add_transition("t2", ["p4"], ["p5"])
    return net


def two_way_choice() -> PetriNet:
    """The 2-way exclusive choice a->x0->z, a->x1->z, transitions listed
    as u0 v0 u1 v1: their sorted order u0 u1 v0 v1 differs."""
    net = PetriNet("choice")
    for pid in ("a", "x0", "x1", "z"):
        net.add_place(pid)
    net.add_transition("u0", ["a"], ["x0"])
    net.add_transition("v0", ["x0"], ["z"])
    net.add_transition("u1", ["a"], ["x1"])
    net.add_transition("v1", ["x1"], ["z"])
    return net


def descending_ids() -> PetriNet:
    """Three transitions declared with descending ids t02 t01 t00."""
    net = PetriNet("descending")
    for pid in ("p0", "p1", "p2"):
        net.add_place(pid)
    net.add_transition("t02", ["p1"], ["p0"])
    net.add_transition("t01", ["p0"], ["p2"])
    net.add_transition("t00", ["p2"], ["p2", "p1"])
    return net


# the non-confluent corpus: per net, its builder, the chart signature that
# first-in first-out picks give, and every signature that seeded random
# picks (`random.Random(seed)`, seeds 0-39) reach
NON_CONFLUENT = {
    "four_place": (
        four_place,
        "and(or(b[p0],b[p5]),or(b[p1]),or(b[p4]))",
        {
            "and(or(b[p0],b[p5]),or(b[p1]),or(b[p4]))",
            "and(or(b[p0]),or(b[p1]),or(b[p4],b[p5]))",
        },
    ),
    "choice": (
        two_way_choice,
        "and(or(b[a],b[x0],b[z]),or(b[x1]))",
        {
            "and(or(b[a],b[x0],b[z]),or(b[x1]))",
            "and(or(b[a],b[x1],b[z]),or(b[x0]))",
            "and(or(b[a]),or(b[x0],b[x1],b[z]))",
            "and(or(b[a],b[x0],b[x1]),or(b[z]))",
            "and(or(b[a],b[x0]),or(b[x1],b[z]))",
            "and(or(b[a],b[x1]),or(b[x0],b[z]))",
        },
    ),
    "descending_ids": (
        descending_ids,
        "and(or(b[p0],b[p1]),or(b[p2]))",
        {"and(or(b[p0],b[p1]),or(b[p2]))", "and(or(b[p0],b[p2]),or(b[p1]))"},
    ),
}


def keyed_order() -> PetriNet:
    """A net whose seeded reduction depends on the keyed adjacency order of
    `pipeline.reduce`: when the place with more arcs keeps its slot in an
    OR fusion, the other place's transitions must still come first around
    it.  Net 10405 of a search over random general nets (14 places, 12
    transitions in shuffled order) in which appending them instead changed
    the chart under `random.Random(10405)` picks."""
    net = PetriNet("keyed")
    for i in range(14):
        net.add_place(f"p{i}")
    for tid, src, tgt in (
        ("t0", "p11 p12 p10", "p6 p3 p0"),
        ("t1", "p10 p2", "p5"),
        ("t2", "p2", "p9"),
        ("t3", "p9", "p12"),
        ("t4", "p12", "p5 p7 p11"),
        ("t5", "p3 p12 p11 p5", "p4"),
        ("t6", "p4", "p2"),
        ("t7", "p13", "p3"),
        ("t8", "p13", "p8 p5 p1 p11"),
        ("t9", "p3", "p11 p0 p8 p3"),
        ("t10", "p10", "p0"),
        ("t11", "p10", "p9"),
    ):
        net.add_transition(tid, src.split(), tgt.split())
    return net


# `keyed_order` reduced with `random.Random(KEYED_ORDER_SEED)` picks: the
# chart it writes as XML, and the SHA-256 of its trace document
KEYED_ORDER_SEED = 10405
KEYED_ORDER_CHART = b"""\
<statechart name="keyed">
  <and id="s0">
    <or id="s1">
      <basic id="s2" place="p0"/>
    </or>
    <or id="s3">
      <basic id="s4" place="p1"/>
    </or>
    <or id="s5">
      <basic id="s6" place="p2"/>
      <basic id="s22" place="p10"/>
      <basic id="s20" place="p9"/>
      <basic id="s26" place="p12"/>
    </or>
    <or id="s9">
      <basic id="s10" place="p4"/>
    </or>
    <or id="s11">
      <basic id="s12" place="p5"/>
    </or>
    <or id="s13">
      <basic id="s14" place="p6"/>
    </or>
    <or id="s15">
      <basic id="s16" place="p7"/>
    </or>
    <or id="s17">
      <basic id="s18" place="p8"/>
    </or>
    <or id="s23">
      <basic id="s24" place="p11"/>
    </or>
    <or id="s27">
      <basic id="s28" place="p13"/>
      <basic id="s8" place="p3"/>
    </or>
  </and>
  <hyperedge id="h0" transition="t0" src="s22 s24 s26" tgt="s2 s8 s14"/>
  <hyperedge id="h1" transition="t1" src="s6 s22" tgt="s12"/>
  <hyperedge id="h2" transition="t2" src="s6" tgt="s20"/>
  <hyperedge id="h3" transition="t3" src="s20" tgt="s26"/>
  <hyperedge id="h4" transition="t4" src="s26" tgt="s12 s16 s24"/>
  <hyperedge id="h5" transition="t5" src="s8 s12 s24 s26" tgt="s10"/>
  <hyperedge id="h6" transition="t6" src="s10" tgt="s6"/>
  <hyperedge id="h7" transition="t7" src="s28" tgt="s8"/>
  <hyperedge id="h8" transition="t8" src="s28" tgt="s4 s12 s18 s24"/>
  <hyperedge id="h9" transition="t9" src="s8" tgt="s2 s8 s18 s24"/>
  <hyperedge id="h10" transition="t10" src="s22" tgt="s2"/>
  <hyperedge id="h11" transition="t11" src="s22" tgt="s20"/>
</statechart>
"""
KEYED_ORDER_TRACE_SHA256 = "cf74e687cda6c62b6d35654184e71c1271675a837426b6a35ab5e86fea423f53"



def appended_arcs() -> PetriNet:
    """A net whose reduction calls `append`, inside `pipeline.reduce`, to
    move the arcs of the fused place: a place of the fusion has keyed
    adjacency entries (a slot in `mixed`), so the fusion cannot take the
    plain `dict.update` path.  Random general nets of a few places rarely
    need `append` to reduce right.  With `append` doing nothing, `reduce`
    applies 3 OR rules and no AND rule and leaves 6 places, not 4."""
    net = PetriNet("append")
    for i in range(9):
        net.add_place(f"p{i}")
    for tid, src, tgt in (
        ("t0", "p8", "p5 p4 p2"),
        ("t1", "p3", "p1"),
        ("t2", "p2 p1", "p4"),
        ("t3", "p1 p6 p5", "p0"),
        ("t4", "p8", "p7 p6"),
        ("t5", "p3", "p2"),
    ):
        net.add_transition(tid, src.split(), tgt.split())
    return net


# `appended_arcs` reduced first-in first-out: the chart it writes as XML;
# reduced with `random.Random(APPENDED_ARCS_SEED)` picks: the SHA-256 of
# that chart document; the SHA-256 of the trace document, which is the
# same under both orders
APPENDED_ARCS_CHART = b"""\
<statechart name="append">
  <and id="s0">
    <or id="s1">
      <basic id="s2" place="p0"/>
    </or>
    <or id="s13">
      <basic id="s14" place="p6"/>
    </or>
    <or id="s15">
      <basic id="s16" place="p7"/>
    </or>
    <or id="s17">
      <basic id="s18" place="p8"/>
      <and id="s19">
        <or id="s7">
          <basic id="s8" place="p3"/>
          <basic id="s4" place="p1"/>
          <basic id="s6" place="p2"/>
          <basic id="s10" place="p4"/>
        </or>
        <or id="s11">
          <basic id="s12" place="p5"/>
        </or>
      </and>
    </or>
  </and>
  <hyperedge id="h0" transition="t0" src="s18" tgt="s6 s10 s12"/>
  <hyperedge id="h1" transition="t1" src="s8" tgt="s4"/>
  <hyperedge id="h2" transition="t2" src="s4 s6" tgt="s10"/>
  <hyperedge id="h3" transition="t3" src="s4 s12 s14" tgt="s2"/>
  <hyperedge id="h4" transition="t4" src="s18" tgt="s14 s16"/>
  <hyperedge id="h5" transition="t5" src="s8" tgt="s6"/>
</statechart>
"""
APPENDED_ARCS_SEED = 0
APPENDED_ARCS_SEEDED_CHART_SHA256 = "0dd8a819b193999f9e0f3760fb9ee1c446cbeb50b13c79357300999b0f819eb9"
APPENDED_ARCS_TRACE_SHA256 = "206d17e849b647cb3054635c9158f652a2bde89dfab639bf151ecc463ec204eb"

def reduce_seconds(net: PetriNet) -> float:
    """Wall time of `reduce` alone on a fresh flat chart of *net*, with
    automatic garbage collection paused."""
    trace = Trace()
    chart = initialize(net, trace)
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        reduce(net, chart, trace)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scaling_ratio(name: str, small: int, large: int, reps: int = 3) -> float:
    """How many times longer `reduce` takes on family *name* at size
    *large* than at *small*: the median of *reps* runs at each size, the
    two sizes taking turns so that both see the same machine load."""
    nets = FAMILIES[name](small), FAMILIES[name](large)
    runs = [[reduce_seconds(net) for net in nets] for _ in range(reps)]
    at_small, at_large = (statistics.median(column) for column in zip(*runs))
    return at_large / at_small
