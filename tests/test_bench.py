"""Timing harness: sample bookkeeping, report rendering, failure rows."""

from __future__ import annotations

import importlib
import json
import os
import platform
import re
import subprocess

import pytest

from netchart import (
    BenchReport,
    BenchRow,
    PhaseSample,
    PreconditionError,
    bench,
    generate_sp,
)

# the package exports the `bench` function under the submodule's name
bench_module = importlib.import_module("netchart.bench")


def _sample(r: float, t: float, w: float) -> PhaseSample:
    return PhaseSample(
        reading_ms=r, transformation_ms=t, writing_ms=w,
        parse_ms=r, initialize_ms=t, reduce_ms=0.0, export_ms=0.0,
        write_chart_ms=w, write_trace_ms=0.0,
    )


def test_row_averages():
    row = BenchRow(case="sp5")
    row.samples = [_sample(1.0, 10.0, 2.0), _sample(3.0, 20.0, 4.0)]
    assert row.median("reading") == 2.0
    assert row.median("transformation") == 15.0
    assert row.median("writing") == 3.0


def test_row_averages_skip_discarded_warmups():
    row = BenchRow(case="sp5")
    row.samples = [_sample(100.0, 100.0, 100.0), _sample(2.0, 4.0, 6.0)]
    row.discarded = 1
    assert row.measured() == row.samples[1:]
    assert tuple(map(row.median, ("reading", "transformation", "writing"))) == (2.0, 4.0, 6.0)


def test_row_summaries_are_medians():
    row = BenchRow(case="sp5")
    row.samples = [_sample(1.0, 1.0, 1.0), _sample(2.0, 2.0, 2.0), _sample(100.0, 100.0, 100.0)]
    assert tuple(map(row.median, ("reading", "transformation", "writing"))) == (2.0, 2.0, 2.0)


def test_empty_rows_average_to_zero():
    assert BenchRow(case="sp0").median("reading") == 0.0


def test_bench_validates_arguments():
    with pytest.raises(PreconditionError):
        bench([], reps=1, seed=0)
    with pytest.raises(PreconditionError):
        bench([5], reps=0, seed=0)
    with pytest.raises(PreconditionError, match="max_branch"):
        bench([5], reps=1, seed=0, max_branch=1)


def test_bench_passes_its_branch_cap_to_the_generator(monkeypatch):
    specs = []

    def generate(spec):
        specs.append(spec)
        return generate_sp(spec)

    monkeypatch.setattr(bench_module, "generate_sp", generate)
    assert bench([12], reps=1, seed=3).max_branch == 4
    assert bench([12], reps=1, seed=3, max_branch=64).max_branch == 64
    assert [(spec.places, spec.seed, spec.max_branch) for spec in specs] == [
        (12, 3, 4), (12, 3, 64)
    ]


def test_bench_measures_every_size():
    report = bench([5, 12], reps=2, seed=3)
    assert [row.case for row in report.rows] == ["sp5", "sp12"]
    for row in report.rows:
        assert row.error is None
        assert len(row.samples) == 2
        for sample in row.samples:
            assert sample.reading_ms >= 0.0
            assert sample.transformation_ms > 0.0
            assert sample.writing_ms >= 0.0


def test_bench_discard_first_keeps_the_sample():
    report = bench([5], reps=3, seed=3, discard_first=True)
    row = report.rows[0]
    assert len(row.samples) == 3
    assert row.discarded == 1
    single = bench([5], reps=1, seed=3, discard_first=True).rows[0]
    assert single.discarded == 0  # never discard the only repetition


def test_bench_reports_failures_per_case():
    report = bench([5, 0], reps=1, seed=3)
    good, bad = report.rows
    assert good.error is None
    assert bad.case == "sp0"
    assert bad.error is not None and ">= 1" in bad.error
    assert bad.samples == []


def test_render_table_layout():
    report = bench([5, 0], reps=1, seed=3)
    table = report.render_table()
    lines = table.splitlines()
    assert lines[0].startswith("case")
    assert "Reading input" in lines[0]
    assert "Transformation" in lines[0]
    assert "Writing output" in lines[0]
    assert lines[1].startswith("sp5")
    assert lines[1].count(" ms") == 3
    assert "ERROR:" in lines[2]


def test_render_csv_layout():
    report = bench([5, 0], reps=2, seed=3)
    lines = report.render_csv().splitlines()
    assert lines[0] == "case,reading_ms,transformation_ms,writing_ms"
    assert len(lines) == 2  # the failed case is omitted
    assert re.fullmatch(r"sp5,\d+\.\d\d,\d+\.\d\d,\d+\.\d\d", lines[1])


def test_render_handles_synthetic_rows():
    row = BenchRow(case="sp7")
    row.samples = [_sample(1.25, 2.5, 0.125)]
    report = BenchReport(rows=[row])
    assert "1.25 ms" in report.render_table()
    assert report.render_csv().splitlines()[1] == "sp7,1.25,2.50,0.12"


def test_render_json_keys():
    report = bench([5, 0], reps=3, seed=3, discard_first=True)
    doc = json.loads(report.render_json())
    assert set(doc) == {
        "python", "platform", "machine", "cpus", "revision", "seed", "sizes", "max_branch",
        "cases",
    }
    assert doc["machine"] == platform.machine() and doc["cpus"] == os.cpu_count()
    assert (doc["seed"], doc["sizes"], doc["max_branch"]) == (3, [5, 0], 4)
    assert doc["python"].count(".") == 2
    assert doc["revision"] is None or re.fullmatch(r"[0-9a-f]{40}(-dirty)?", doc["revision"])
    good, bad = doc["cases"]
    assert set(good) == {"case", "error", "samples", "discarded", "phases", "layers"}
    assert (good["case"], good["error"], good["samples"], good["discarded"]) == ("sp5", None, 2, 1)
    assert list(good["phases"]) == ["reading", "transformation", "writing"]
    assert list(good["layers"]) == [
        "parse", "initialize", "reduce", "export", "write_chart", "write_trace"
    ]
    assert good["layers"]["parse"]["min_ms"] <= good["phases"]["reading"]["median_ms"]
    assert good["layers"]["write_chart"]["min_ms"] <= good["phases"]["writing"]["median_ms"]
    for spread in [*good["phases"].values(), *good["layers"].values()]:
        assert set(spread) == {"median_ms", "min_ms", "iqr_ms"}
        assert 0.0 <= spread["min_ms"] <= spread["median_ms"]
        assert spread["iqr_ms"] >= 0.0
    assert bad["error"] is not None and bad["samples"] == 0


def test_revision_is_none_when_git_cannot_say(monkeypatch):
    """`git describe` that cannot start or exits nonzero, whatever it
    printed, gives no revision, and the JSON report carries null; a
    successful one gives its stripped output.  Other commands, such as the
    `uname -p` that `platform` may run once, go to the real
    `subprocess.run`."""
    calls = []
    real_run = subprocess.run

    def run(outcome):
        def fake_run(args, **kwargs):
            if args[0] != "git":
                return real_run(args, **kwargs)
            calls.append(args)
            if isinstance(outcome, Exception):
                raise outcome
            return subprocess.CompletedProcess(args, *outcome)
        monkeypatch.setattr(subprocess, "run", fake_run)

    run((0, " 0123abcd-dirty\n", ""))
    assert bench_module._revision() == "0123abcd-dirty"
    for outcome in (OSError("no git"), (128, "0123abcd\n", "fatal: not a git repository\n")):
        run(outcome)
        assert bench_module._revision() is None
        assert json.loads(BenchReport(rows=[]).render_json())["revision"] is None
    assert len(calls) == 5 and calls[0][:2] == ["git", "describe"]


def test_render_json_spread_of_synthetic_rows():
    row = BenchRow(case="sp7")
    row.samples = [_sample(9.0, t, 1.0) for t in (4.0, 1.0, 3.0, 2.0, 100.0)]
    phases = json.loads(BenchReport(rows=[row]).render_json())["cases"][0]["phases"]
    # quartiles of 1, 2, 3, 4, 100 by the exclusive method: 1.5 and 52.0
    assert phases["transformation"] == {"median_ms": 3.0, "min_ms": 1.0, "iqr_ms": 50.5}
    assert phases["writing"] == {"median_ms": 1.0, "min_ms": 1.0, "iqr_ms": 0.0}
    row.samples = row.samples[:1]
    single = json.loads(BenchReport(rows=[row]).render_json())["cases"][0]["phases"]
    assert single["reading"] == {"median_ms": 9.0, "min_ms": 9.0, "iqr_ms": 0.0}


def test_bench_times_the_layers():
    (row,) = bench([40], reps=2, seed=3).rows
    for sample in row.samples:
        assert 0.0 < sample.parse_ms <= sample.reading_ms
        assert min(sample.initialize_ms, sample.reduce_ms, sample.export_ms) > 0.0
        # the chart's serialization is inside writing; the trace's is outside it
        assert 0.0 < sample.write_chart_ms <= sample.writing_ms
        assert sample.write_trace_ms > 0.0


def test_bench_layers_add_up_to_transformation():
    # one run of the pipeline per repetition: its three layers are the
    # transformation, split by contiguous timestamps
    for row in bench([5, 40], reps=3, seed=3).rows:
        for sample in row.samples:
            layers = sample.initialize_ms + sample.reduce_ms + sample.export_ms
            assert layers == pytest.approx(sample.transformation_ms, rel=1e-9, abs=1e-9)
