"""End-to-end guarantees; each test covers one numbered release criterion.

A summary hook in conftest.py reprints these as per-criterion pass/fail
lines after the run.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time

import pytest

from netchart import (
    Basic,
    OrState,
    PreconditionError,
    SpSpec,
    Trace,
    check_net,
    generate_sp,
    initialize,
    parse_chart,
    parse_net,
    parse_trace,
    reduce,
    transform,
    validate_chart,
    write_chart,
    write_net,
    write_trace,
)
from oracle import oracle_reduce
from support import (
    and_arities,
    child_env,
    chart_identical,
    chart_signature,
    diamond,
    edges_signature,
    net_edges_signature,
    net_to_plain,
    round_trip_corpus,
)


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    nets = [diamond()]
    for seed in range(224):
        nets.append(generate_sp(SpSpec(places=(seed % 8) + 1, seed=seed)))
    for net in nets:
        chart, report, _ = transform(net)
        expected = oracle_reduce(*net_to_plain(net))
        assert chart_signature(chart) == expected.signature
        assert report.fully_reduced and expected.fully_reduced
        assert edges_signature(chart) == net_edges_signature(net)
    assert time.perf_counter() - start < 10.0


def test_criterion_2_conservation_invariants():
    rng = random.Random(0xC0FFEE)
    sizes = [1, 500] + [rng.randint(1, 500) for _ in range(998)]
    for index, places in enumerate(sizes):
        net = generate_sp(SpSpec(places=places, seed=index))
        place_ids, transition_ids = list(net.places), list(net.transitions)
        trace = Trace()
        chart = initialize(net, trace)
        report = reduce(net, chart, trace)

        basics = [s for s in chart.states() if isinstance(s, Basic)]
        assert len(basics) == len(net.places)
        assert {b.origin_place for b in basics} == set(net.places)
        assert len(chart.hyperedges) == len(net.transitions)
        assert validate_chart(chart) == []

        children = list(chart.topstate.children)
        assert len(children) == report.remaining_places
        traced = {
            entry.output
            for entry in trace.export()
            if entry.rule in ("Place2Or", "AndRulePlace2Or")
        }
        for child in children:
            assert isinstance(child, OrState) and child.id in traced
        assert check_net(net) == []
        assert (list(net.places), list(net.transitions)) == (place_ids, transition_ids)


def test_criterion_3_sp_family_full_reduction():
    for places in (200, 2000, 20000):
        net = generate_sp(SpSpec(places=places, seed=places))
        chart, report, _ = transform(net)
        assert report.fully_reduced, f"sp{places} left material behind"
        assert validate_chart(chart) == []


def test_criterion_4_scaling_envelope():
    # a fresh interpreter keeps this suite's heap out of the timings; the
    # median repetition resists scheduler hiccups on a busy machine
    script = (
        "import json\n"
        "from netchart import bench\n"
        "report = bench([2000, 20000], reps=5, seed=11, discard_first=True)\n"
        "rows = {row.case: [s.transformation_ms for s in row.measured()]\n"
        "        for row in report.rows}\n"
        "print(json.dumps(rows))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    times = {
        case: statistics.median(samples)
        for case, samples in json.loads(proc.stdout).items()
    }
    assert set(times) == {"sp2000", "sp20000"}
    assert times["sp20000"] <= 30_000.0
    ratio = times["sp20000"] / times["sp2000"]
    assert ratio <= 20.0, f"transformation scaled at x{ratio:.1f} for x10 places"


def test_item4_families_scale_near_linearly():
    # ROADMAP item 4's families, reduce alone at 16 times the size, in a
    # fresh interpreter as criterion 4 runs; a linear family reads about
    # 16-20x here and a quadratic one about 256x.  The first large net a
    # process reduces runs slow, so one goes first untimed, and a family
    # past the bound is measured again, up to three times, because a busy
    # machine can push a single median of 3 past it
    script = (
        "import json\n"
        "from families import FAMILIES, reduce_seconds, scaling_ratio\n"
        "reduce_seconds(FAMILIES['chain'](16000))\n"
        "ratios = {}\n"
        "for name in json.loads(input()):\n"
        "    tries = ratios[name] = [scaling_ratio(name, 1000, 16000)]\n"
        "    while tries[-1] > 25.0 and len(tries) < 3:\n"
        "        tries.append(scaling_ratio(name, 1000, 16000))\n"
        "print(json.dumps(ratios))\n"
    )
    table = ["chain", "reversed chain", "fan-in hub", "fan-out hub", "fork/join", "k-way choice"]
    env = child_env()
    env["PYTHONPATH"] += os.pathsep + os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=json.dumps(table),
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    ratios = json.loads(proc.stdout)
    assert list(ratios) == table
    assert all(min(tries) <= 25.0 for tries in ratios.values()), ratios


def test_criterion_5_memoization_counters():
    # every rule fires at most once per input, and a pass cannot be re-run
    net = diamond()
    trace = Trace()
    chart = initialize(net, trace)
    reduce(net, chart, trace)

    entries = trace.export()
    pairs = [(e.rule, e.input) for e in entries]
    assert entries and len(set(pairs)) == len(pairs)
    for pid in net.places:
        assert pairs.count(("Place2Or", pid)) == 1
        assert pairs.count(("Place2Basic", pid)) == 1
    for tid in net.transitions:
        assert pairs.count(("Transition2HyperEdge", tid)) == 1
    roots = [pair for pair in pairs if pair[0] == "PetriNet2StateChart"]
    assert roots == [("PetriNet2StateChart", net.name)]

    chart_bytes = write_chart(chart, "xml")
    with pytest.raises(PreconditionError):
        initialize(net, trace)
    assert trace.export() == entries
    assert write_chart(chart, "xml") == chart_bytes


def _run_cli(args, hash_seed, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "netchart", *args],
        env=child_env(PYTHONHASHSEED=hash_seed),
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_6_byte_identical_outputs(tmp_path):
    # fresh interpreters with different hash seeds rule out accidental
    # reliance on set/dict iteration order
    for run, hash_seed in enumerate(("1", "2")):
        _run_cli(
            ["generate", "--places", "120", "--seed", "7", "--out", f"gen{run}.xml"],
            hash_seed,
            tmp_path,
        )
    first = (tmp_path / "gen0.xml").read_bytes()
    assert first == (tmp_path / "gen1.xml").read_bytes()
    assert parse_net(first).name == "sp120-mt19937-seed7"

    for run, hash_seed in enumerate(("3", "4")):
        _run_cli(
            [
                "transform",
                "--input", "gen0.xml",
                "--output", f"chart{run}.xml",
                "--trace", f"trace{run}.json",
            ],
            hash_seed,
            tmp_path,
        )
    chart_bytes = (tmp_path / "chart0.xml").read_bytes()
    assert chart_bytes == (tmp_path / "chart1.xml").read_bytes()
    trace_bytes = (tmp_path / "trace0.json").read_bytes()
    assert trace_bytes == (tmp_path / "trace1.json").read_bytes()
    assert validate_chart(parse_chart(chart_bytes)) == []
    assert parse_trace(trace_bytes)


def test_criterion_7_confluence_under_random_order():
    seeds_used = 0
    for places, net_seed in ((16, 0), (40, 1), (90, 2), (150, 3)):
        net = generate_sp(SpSpec(places=places, seed=net_seed))
        base_chart, base_report, _ = transform(net)
        base_arities = and_arities(base_chart)
        assert base_report.fully_reduced
        for pick_seed in range(25):
            rng = random.Random(net_seed * 1000 + pick_seed)
            chart, report, _ = transform(net, rng=rng)
            assert report.fully_reduced == base_report.fully_reduced
            assert and_arities(chart) == base_arities
            seeds_used += 1
    assert seeds_used == 100


def test_criterion_8_round_trip_corpus():
    for net in round_trip_corpus():
        for format in ("xml", "json"):
            blob = write_net(net, format)
            assert write_net(parse_net(blob), format) == blob
        chart, _, trace = transform(net)
        for format in ("xml", "json"):
            blob = write_chart(chart, format)
            back = parse_chart(blob)
            assert chart_identical(chart, back)
            assert write_chart(back, format) == blob
        blob = write_trace(trace)
        assert parse_trace(blob) == trace
        assert write_trace(parse_trace(blob)) == blob
