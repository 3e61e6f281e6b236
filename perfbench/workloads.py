"""Seeded input documents for the netchart benchmark.

Every generator here is the benchmark's own: it shares no code with
netchart.  Each document comes with the hierarchy its construction recipe
implies, as a canonical signature (see `composite_sig`):

- a series step puts both halves into one shared OR state;
- a fork/join puts each branch into its own OR state under one AND state,
  which sits in the OR state shared with the fork's entry and the join's
  exit place;
- a hub (one place with k 1->1 transitions) collapses into one OR state
  holding all of its places.

Sizes follow a golden-ratio sequence over the size range, so every prefix
of a document pool covers the range evenly.  A run that gets through more
or fewer documents therefore still sees the same mix of sizes, which keeps
percentiles steady from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

_GOLDEN = (math.sqrt(5) - 1) / 2


def basic_sig(place: str) -> int:
    return hash(("B", place))


def composite_sig(kind: str, child_sigs: list[int]) -> int:
    """Signature of an OR ("O") or AND ("A") state; child order is ignored.

    Built from `hash`, so signatures compare only within one interpreter:
    the generator and the check always run in the same one."""
    return hash((kind, tuple(sorted(child_sigs))))


def chart_sig(top_or_children: list[int]) -> int:
    """Signature of a fully reduced chart: an AND topstate holding one OR."""
    return composite_sig("A", [composite_sig("O", top_or_children)])


@dataclass(frozen=True)
class Doc:
    """One input document and what its output must show.

    `expected` is the canonical signature of the chart; `places` and
    `arcs` size the net; `depth` is the fork/join nesting of deep nests
    (0 for other families).
    """

    index: int
    family: str
    data: bytes
    places: int
    arcs: int
    depth: int
    expected: int


class _Net:
    """Plain place and transition lists plus their serializers."""

    def __init__(self, name: str):
        self.name = name
        self.places: list[str] = []
        self.transitions: list[tuple[str, list[str], list[str]]] = []

    def place(self) -> str:
        pid = f"p{len(self.places)}"
        self.places.append(pid)
        return pid

    def transition(self, src: list[str], tgt: list[str]) -> None:
        self.transitions.append((f"t{len(self.transitions)}", src, tgt))

    def arcs(self) -> int:
        return sum(len(src) + len(tgt) for _, src, tgt in self.transitions)

    def to_xml(self) -> bytes:
        lines = [f'<petrinet name="{self.name}">']
        lines.extend(f'  <place id="{pid}"/>' for pid in self.places)
        lines.extend(
            f'  <transition id="{tid}" src="{" ".join(src)}" tgt="{" ".join(tgt)}"/>'
            for tid, src, tgt in self.transitions
        )
        lines.append("</petrinet>\n")
        return "\n".join(lines).encode("utf-8")

    def to_json(self) -> bytes:
        doc = {
            "name": self.name,
            "places": [{"id": pid} for pid in self.places],
            "transitions": [
                {"id": tid, "src": src, "tgt": tgt}
                for tid, src, tgt in self.transitions
            ],
        }
        return json.dumps(doc).encode("utf-8")


def _merge(left: list[int], right: list[int]) -> list[int]:
    # extend the longer list so a long series chain stays O(n log n)
    if len(left) < len(right):
        left, right = right, left
    left.extend(right)
    return left


def _parallel(net: _Net, branches: list[tuple[str, str, list[int]]]):
    entry = net.place()
    exit_ = net.place()
    net.transition([entry], [b[0] for b in branches])
    net.transition([b[1] for b in branches], [exit_])
    and_sig = composite_sig("A", [composite_sig("O", b[2]) for b in branches])
    return entry, exit_, [basic_sig(entry), and_sig, basic_sig(exit_)]


def _sp(net: _Net, rng: random.Random, places: int, max_branch: int):
    """Add a series-parallel sub-net of exactly `places` places.

    Returns (entry place, exit place, signatures of the shared OR's
    children).  A budget of 1 is one place; from 4 on, a fork/join with
    2..max_branch branches is drawn half of the time; otherwise the budget
    is split at a random point into two parts in series.  The plan is built without
    recursion and evaluated children-first.
    """
    plan: list[tuple[int, list[int]]] = []  # (kind, child plan indices)
    pending = [(places, -1)]
    while pending:
        budget, parent = pending.pop()
        index = len(plan)
        if parent >= 0:
            plan[parent][1].append(index)
        if budget == 1:
            plan.append((0, []))
        elif budget >= 4 and rng.random() < 0.5:
            branches = rng.randint(2, min(max_branch, budget - 2))
            cuts = sorted(rng.sample(range(1, budget - 2), branches - 1))
            bounds = [0, *cuts, budget - 2]
            plan.append((2, []))
            pending.extend(
                (bounds[i + 1] - bounds[i], index) for i in range(branches)
            )
        else:
            left = rng.randint(1, budget - 1)
            plan.append((1, []))
            pending.extend(((budget - left, index), (left, index)))

    built: list = [None] * len(plan)
    for index in range(len(plan) - 1, -1, -1):
        kind, children = plan[index]
        parts = [built[child] for child in children]
        if kind == 0:
            pid = net.place()
            built[index] = (pid, pid, [basic_sig(pid)])
        elif kind == 1:
            left, right = parts
            net.transition([left[1]], [right[0]])
            built[index] = (left[0], right[1], _merge(left[2], right[2]))
        else:
            built[index] = _parallel(net, parts)
        for child in children:
            built[child] = None
    return built[0]


def sp_net(name: str, rng: random.Random, places: int, max_branch: int):
    net = _Net(name)
    _, _, top = _sp(net, rng, places, max_branch)
    return net, chart_sig(top)


def hub_net(name: str, k: int, fan_in: bool):
    """One hub place with k 1->1 transitions, all out of it or all into it."""
    net = _Net(name)
    hub = net.place()
    for _ in range(k):
        leaf = net.place()
        if fan_in:
            net.transition([leaf], [hub])
        else:
            net.transition([hub], [leaf])
    return net, chart_sig([basic_sig(pid) for pid in net.places])


def deep_net(name: str, rng: random.Random, depth: int):
    """A fork/join nest `depth` levels deep.

    Each level forks into a small series-parallel branch (1 to 3 places)
    and the next level; the innermost level is a single place.
    """
    net = _Net(name)
    pid = net.place()
    inner = (pid, pid, [basic_sig(pid)])
    for _ in range(depth):
        branch = _sp(net, rng, rng.randint(1, 3), 2)
        inner = _parallel(net, [branch, inner])
    return net, chart_sig(inner[2])


def _log_size(low: int, high: int, u: float) -> int:
    return round(low * (high / low) ** u)


def _doc(index: int, family: str, net: _Net, expected: int, fmt: str, depth=0) -> Doc:
    data = net.to_xml() if fmt == "xml" else net.to_json()
    return Doc(index, family, data, len(net.places), net.arcs(), depth, expected)


def _sequence(rng: random.Random, count: int) -> list[float]:
    start = rng.random()
    return [(start + i * _GOLDEN) % 1.0 for i in range(count)]


def sp_xml_pool(seed: int, count: int, low: int, high: int) -> list[Doc]:
    """Series-parallel nets, branches capped at 4, as XML documents."""
    rng = random.Random(f"sp_xml/{seed}")
    docs = []
    for index, u in enumerate(_sequence(rng, count)):
        size = _log_size(low, high, u)
        net, sig = sp_net(f"sp{size}-s{seed}-d{index}", rng, size, 4)
        docs.append(_doc(index, "sp4", net, sig, "xml"))
    return docs


def hub_xml_pool(
    seed: int, count: int, fan_out: tuple[int, int], fan_in: tuple[int, int]
) -> list[Doc]:
    """Fan-out choice hubs and fan-in merge hubs as XML; two documents in
    three are fan-in, whose reduction moves the hub's remaining arcs on
    every fusion."""
    rng = random.Random(f"hub_xml/{seed}")
    docs = []
    for index, u in enumerate(_sequence(rng, count)):
        merge = index % 3 != 0
        low, high = fan_in if merge else fan_out
        k = _log_size(low, high, u)
        family = "fan_in" if merge else "fan_out"
        net, sig = hub_net(f"{family}{k}-s{seed}-d{index}", k, merge)
        docs.append(_doc(index, family, net, sig, "xml"))
    return docs


def corpus_json_pool(
    seed: int,
    count: int,
    sizes: tuple[int, int],
    depths: tuple[int, int],
    deep_every: int,
    depth_levels: int,
) -> list[Doc]:
    """Mixed JSON corpus: SP nets capped at 4 or 64 branches, alternating,
    and one deep fork/join nest in every `deep_every` documents.

    Nest depths cycle through `depth_levels` evenly spaced levels over
    `depths`, from a seeded starting level, so every run that gets through
    deep_every * depth_levels documents meets each level once.  The deepest
    document sets the run's peak memory, and this keeps it the same from
    seed to seed.  `depths` stays below the depth at which netchart's JSON
    chart writer raises RecursionError, so that no document fails.
    """
    rng = random.Random(f"corpus_json/{seed}")
    low, high = depths
    levels = [round(low + (high - low) * (j + 0.5) / depth_levels) for j in range(depth_levels)]
    first = rng.randrange(depth_levels)
    docs = []
    for index, u in enumerate(_sequence(rng, count)):
        if index % deep_every == deep_every // 2:
            depth = levels[(first + index // deep_every) % depth_levels]
            net, sig = deep_net(f"deep{depth}-s{seed}-d{index}", rng, depth)
            docs.append(_doc(index, "deep", net, sig, "json", depth))
            continue
        size = _log_size(*sizes, u)
        cap = 64 if index % 2 else 4
        net, sig = sp_net(f"sp{size}w{cap}-s{seed}-d{index}", rng, size, cap)
        docs.append(_doc(index, f"sp{cap}", net, sig, "json"))
    return docs
