"""Seeded generator for series-parallel Petri nets.

Grammar: an atom is a single place (entry = exit); Series(A, B) adds a
transition from exit(A) to entry(B); Parallel(A1..Ak) wraps fresh entry
and exit places around the branches with a fork and a join transition.
The place budget is split recursively with a seeded Mersenne Twister,
so one spec names exactly one net; the algorithm and seed are recorded
in the net name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError
from .net import PetriNet, _collector_paused

_ATOM = 0
_SERIES = 1
_PARALLEL = 2


@dataclass(frozen=True)
class SpSpec:
    """Recipe for one generated net.

    Attributes
    ----------
    places : int
        Exact place count of the result, >= 1.
    seed : int
        RNG seed; equal specs generate equal nets.
    max_branch : int
        Largest branch count a parallel split may take, >= 2.
    """

    places: int
    seed: int
    max_branch: int = 4


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split `total` into `parts` positive summands, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


@_collector_paused
def generate_sp(spec: SpSpec) -> PetriNet:
    """Generate the series-parallel net described by `spec`.

    A parallel split needs two fresh places plus at least one per branch,
    so it is only drawn while the budget allows; budgets of one become
    atoms and everything else defaults to a series split.
    """
    if spec.places < 1:
        raise PreconditionError(f"place count must be >= 1, got {spec.places}")
    if spec.max_branch < 2:
        raise PreconditionError(f"max_branch must be >= 2, got {spec.max_branch}")

    rng = random.Random(spec.seed)

    # plan pass, no recursion: children always get larger indices than
    # their parent, so a reversed scan later evaluates bottom-up
    nodes: list[tuple] = []
    pending: list[tuple[int, int, int]] = [(spec.places, -1, -1)]
    while pending:
        budget, parent, slot = pending.pop()
        index = len(nodes)
        if budget == 1:
            nodes.append((_ATOM, ()))
        elif budget >= 4 and rng.random() < 0.5:
            branches = rng.randint(2, min(spec.max_branch, budget - 2))
            parts = _composition(rng, budget - 2, branches)
            nodes.append((_PARALLEL, [-1] * branches))
            for branch_slot, part in enumerate(parts):
                pending.append((part, index, branch_slot))
        else:
            left = rng.randint(1, budget - 1)
            nodes.append((_SERIES, [-1, -1]))
            pending.append((left, index, 0))
            pending.append((budget - left, index, 1))
        if parent >= 0:
            nodes[parent][1][slot] = index

    # build pass: each entry of `ends` is the (entry, exit) place id pair
    # of the finished sub-net; `add_transition` takes these lists of
    # known ids in bulk
    net = PetriNet(f"sp{spec.places}-mt19937-seed{spec.seed}")
    ends: list[tuple | None] = [None] * len(nodes)
    next_place = 0
    next_transition = 0
    for index in range(len(nodes) - 1, -1, -1):
        kind, children = nodes[index]
        if kind == _ATOM:
            place = net.add_place(f"p{next_place}")
            next_place += 1
            ends[index] = (place, place)
        elif kind == _SERIES:
            left, right = children
            net.add_transition(
                f"t{next_transition}", [ends[left][1]], [ends[right][0]]
            )
            next_transition += 1
            ends[index] = (ends[left][0], ends[right][1])
        else:
            entry = net.add_place(f"p{next_place}")
            exit_ = net.add_place(f"p{next_place + 1}")
            next_place += 2
            net.add_transition(
                f"t{next_transition}", [entry], [ends[child][0] for child in children]
            )
            net.add_transition(
                f"t{next_transition + 1}",
                [ends[child][1] for child in children],
                [exit_],
            )
            next_transition += 2
            ends[index] = (entry, exit_)
    return net
