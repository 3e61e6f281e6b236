"""Golden digest: every document the pipeline writes over a fixed corpus.

One SHA-256 over the net, chart and trace bytes, the reduction counters,
`check_net` and the self-loop warnings of a seeded corpus, each net
reduced first-in first-out and in one seeded random order; a second
digest covers the larger nets of `families.py`.  A change that is meant
to keep every output byte-identical must leave both digests as they are;
a change that alters outputs on purpose updates them and says why.
"""

from __future__ import annotations

import hashlib
import random

from netchart import (
    NetchartError,
    PetriNet,
    SpSpec,
    check_net,
    find_self_loops,
    generate_sp,
    parse_chart,
    transform,
    write_chart,
    write_net,
    write_trace,
)
from families import FAMILIES
from support import chart_identical, fork_join_nest, round_trip_corpus

GOLDEN_DIGEST = "9c50673d36a876399036fd93c0bbc55e48c11e116117450db265e7fcacb1c7ab"
FAMILY_DIGEST = "ecb2d45f46be694c7f544c7a380eddf800c205f87b2135641878148bdb45c996"


def _general_net(rng: random.Random, index: int) -> PetriNet:
    """1-8 places and 0-10 transitions; each side lists 1-4 distinct places
    in random order, self-loops allowed.  Place and transition ids are
    permuted numbers under a drawn prefix, so neither follows declaration
    order; some nets take ids from the merged-place namespace `m<k>`."""
    place_prefix = rng.choice(["p", "m", "place_"])
    transition_prefix = rng.choice(["t", "m", "u"])
    places = [f"{place_prefix}{n}" for n in rng.sample(range(12), rng.randint(1, 8))]
    numbers = rng.sample(range(20, 40), rng.randint(0, 10))
    net = PetriNet(f"g{index}")
    for pid in places:
        net.add_place(pid)
    for number in numbers:
        src = rng.sample(places, rng.randint(1, min(4, len(places))))
        tgt = rng.sample(places, rng.randint(1, min(4, len(places))))
        net.add_transition(f"{transition_prefix}{number}", src, tgt)
    return net


def _hub(k: int, fan_in: bool) -> PetriNet:
    net = PetriNet(f"{'in' if fan_in else 'out'}hub{k}")
    hub = net.add_place("h")
    for i in range(k):
        leaf = net.add_place(f"x{i}")
        src, tgt = (leaf, hub) if fan_in else (hub, leaf)
        net.add_transition(f"t{i}", [src], [tgt])
    return net


def _reversed_chain(k: int) -> PetriNet:
    net = PetriNet(f"rchain{k}")
    for i in range(k):
        net.add_place(f"c{i}")
    for i in reversed(range(k - 1)):
        net.add_transition(f"t{i}", [f"c{i}"], [f"c{i + 1}"])
    return net


def golden_corpus() -> list[PetriNet]:
    rng = random.Random(2024)
    corpus = round_trip_corpus() + [PetriNet("empty"), fork_join_nest(40)]
    corpus += [_general_net(rng, index) for index in range(400)]
    corpus += [
        generate_sp(SpSpec(places=places, seed=places, max_branch=branch))
        for places in (7, 31, 120, 400)
        for branch in (2, 4, 9)
    ]
    corpus += [_hub(k, fan_in) for k in (3, 60) for fan_in in (True, False)]
    corpus += [_reversed_chain(k) for k in (2, 60)]
    return corpus


def _outcome(write, *args) -> bytes:
    try:
        return write(*args)
    except NetchartError as exc:  # a refused model is an output too
        return f"{type(exc).__name__}: {exc}".encode()


def corpus_digest() -> str:
    digest = hashlib.sha256()
    for index, net in enumerate(golden_corpus()):
        for format in ("xml", "json"):
            digest.update(_outcome(write_net, net, format))
        digest.update(repr(check_net(net)).encode())
        digest.update(repr(find_self_loops(net)).encode())
        for rng in (None, random.Random(index)):
            chart, report, trace = transform(net, rng=rng)
            digest.update(repr(report).encode())
            for format in ("xml", "json"):
                digest.update(_outcome(write_chart, chart, format))
            digest.update(write_trace(trace))
    return digest.hexdigest()


def test_outputs_match_the_golden_digest():
    assert corpus_digest() == GOLDEN_DIGEST


def test_both_chart_readers_agree_on_the_golden_corpus():
    """Every chart of the corpus that writes reads back from XML and from
    JSON into the same chart, the one that was written."""
    read = 0
    for index, net in enumerate(golden_corpus()):
        for rng in (None, random.Random(index)):
            chart = transform(net, rng=rng).chart
            try:
                blobs = [write_chart(chart, format) for format in ("xml", "json")]
            except NetchartError:  # refused charts are covered by the digest
                continue
            via_xml, via_json = (parse_chart(blob) for blob in blobs)
            assert chart_identical(via_xml, via_json)
            assert chart_identical(via_xml, chart)
            read += 1
    assert read == 886  # all but the empty net's chart, in both orders


def family_digest() -> str:
    """The same documents over the families of `families.py` at two sizes,
    each reduced first-in first-out and in one seeded random order."""
    digest = hashlib.sha256()
    for k in (300, 1000):
        for build in FAMILIES.values():
            net = build(k)
            for rng in (None, random.Random(1)):
                chart, report, trace = transform(net, rng=rng)
                digest.update(repr(report).encode())
                for format in ("xml", "json"):
                    digest.update(_outcome(write_chart, chart, format))
                digest.update(write_trace(trace))
    return digest.hexdigest()


def test_item4_families_match_their_digest():
    """Hubs, chains in three listing orders, a wide fork/join and a k-way
    choice: the shapes on which reduction order and slot reuse matter."""
    assert family_digest() == FAMILY_DIGEST
