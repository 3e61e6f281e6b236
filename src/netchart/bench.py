"""Per-phase timing harness over generated series-parallel nets.

Each case is generated once and written to a temp file; every
repetition runs the pipeline once and measures three disjoint intervals
with a monotonic clock: reading (load + parse), transformation (the
steps of `transform`: a fresh trace, initialize, reduce and the trace
export) and writing (serialize + store the chart).  Six layers are
timed from the same contiguous timestamps: parse (the parse inside
reading); initialize, reduce and export, which add up to
transformation; write_chart (the serialization inside writing); and
write_trace, the exported trace serialized as the CLI writes it, timed
after writing and outside all three phases.  A repetition builds its
trace and chart from scratch; only the id strings the charts share carry
over (see `chart`, up to 8,192 of each kind), made by the first
repetition of a size larger than any before, which `discard_first`
drops.
Automatic garbage collection is paused inside the timed region, as
`timeit` does, so collector scheduling does not leak into the phase
times.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import NetchartError, PreconditionError
from .formats import parse_net, write_chart, write_net, write_trace
from .generator import SpSpec, generate_sp
from .pipeline import Trace, initialize, reduce


@dataclass
class PhaseSample:
    """Milliseconds spent in each phase, and in each layer, of one
    repetition."""

    reading_ms: float
    transformation_ms: float
    writing_ms: float
    parse_ms: float
    initialize_ms: float
    reduce_ms: float
    export_ms: float
    write_chart_ms: float
    write_trace_ms: float


@dataclass
class BenchRow:
    """All measurements for one case; medians skip discarded warmups."""

    case: str
    samples: list[PhaseSample] = field(default_factory=list)
    discarded: int = 0
    error: str | None = None

    def measured(self) -> list[PhaseSample]:
        return self.samples[self.discarded :]

    def times(self, phase: str) -> list[float]:
        """The measured milliseconds of *phase*, one of `_PHASES` or `_LAYERS`."""
        return [getattr(s, f"{phase}_ms") for s in self.measured()]

    def median(self, phase: str) -> float:
        """The median milliseconds of *phase*; 0.0 without samples."""
        times = self.times(phase)
        return statistics.median(times) if times else 0.0


def _spread(row: BenchRow, phase: str) -> dict[str, float]:
    """Median, minimum and interquartile range of one phase, in ms."""
    values = row.times(phase)
    if not values:
        return {"median_ms": 0.0, "min_ms": 0.0, "iqr_ms": 0.0}
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median_ms": round(row.median(phase), 3),
        "min_ms": round(min(values), 3),
        "iqr_ms": round(quartiles[2] - quartiles[0], 3),
    }


def _revision() -> str | None:
    """The git revision of the checkout this package runs from, with
    "-dirty" when it has uncommitted changes; None outside a checkout."""
    import subprocess  # only the JSON report pays for it, not every import

    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
        )
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


_COLUMNS = ("Reading input", "Transformation", "Writing output")
_PHASES = ("reading", "transformation", "writing")
_LAYERS = ("parse", "initialize", "reduce", "export", "write_chart", "write_trace")


@dataclass
class BenchReport:
    rows: list[BenchRow]
    sizes: list[int] = field(default_factory=list)
    seed: int | None = None
    max_branch: int | None = None

    def render_table(self) -> str:
        case_width = max([4] + [len(row.case) for row in self.rows])
        cells = []
        for row in self.rows:
            if row.error is not None:
                cells.append(None)
            else:
                cells.append([f"{row.median(phase):.2f} ms" for phase in _PHASES])
        widths = [
            max([len(title)] + [len(c[i]) for c in cells if c is not None])
            for i, title in enumerate(_COLUMNS)
        ]
        lines = [
            "case".ljust(case_width)
            + "".join("  " + title.rjust(widths[i]) for i, title in enumerate(_COLUMNS))
        ]
        for row, values in zip(self.rows, cells):
            if values is None:
                lines.append(f"{row.case.ljust(case_width)}  ERROR: {row.error}")
            else:
                lines.append(
                    row.case.ljust(case_width)
                    + "".join("  " + values[i].rjust(widths[i]) for i in range(3))
                )
        return "\n".join(lines)

    def render_csv(self) -> str:
        lines = ["case,reading_ms,transformation_ms,writing_ms"]
        for row in self.rows:
            if row.error is not None:
                continue
            lines.append(",".join([row.case] + [f"{row.median(phase):.2f}" for phase in _PHASES]))
        return "\n".join(lines)

    def render_json(self) -> str:
        """Every case's phases and layers as median, minimum and
        interquartile range, with the seed, the sizes, the branch cap and
        the Python version, platform, machine type, CPU count and git
        revision that produced them."""
        import platform  # only the JSON report pays for it, not every import

        cases = []
        for row in self.rows:
            cases.append({
                "case": row.case,
                "error": row.error,
                "samples": len(row.measured()),
                "discarded": row.discarded,
                "phases": {phase: _spread(row, phase) for phase in _PHASES},
                "layers": {layer: _spread(row, layer) for layer in _LAYERS},
            })
        return json.dumps(
            {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
                "revision": _revision(),
                "seed": self.seed,
                "sizes": self.sizes,
                "max_branch": self.max_branch,
                "cases": cases,
            },
            indent=2,
        )


def _run_case(
    size: int, reps: int, seed: int, discard_first: bool, max_branch: int
) -> BenchRow:
    row = BenchRow(case=f"sp{size}")
    try:
        net = generate_sp(SpSpec(places=size, seed=seed, max_branch=max_branch))
        document = write_net(net, "xml")
        with tempfile.TemporaryDirectory(prefix="netchart-bench-") as tmp:
            in_path = Path(tmp) / "net.xml"
            out_path = Path(tmp) / "chart.xml"
            in_path.write_bytes(document)
            for _ in range(reps):
                # collector sweeps are runtime noise, not phase cost: start
                # each repetition clean, then keep automatic collection out
                # of the timed region the way timeit does
                gc.collect()
                was_enabled = gc.isenabled()
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    document = in_path.read_bytes()
                    t1 = time.perf_counter()
                    parsed = parse_net(document)
                    t2 = time.perf_counter()
                    # the steps of `transform`, each timed as a layer
                    trace = Trace()
                    chart = initialize(parsed, trace)
                    t3 = time.perf_counter()
                    reduce(parsed, chart, trace)
                    t4 = time.perf_counter()
                    entries = trace.export()
                    t5 = time.perf_counter()
                    data = write_chart(chart, "xml")
                    t6 = time.perf_counter()
                    out_path.write_bytes(data)
                    t7 = time.perf_counter()
                    write_trace(entries)
                    t8 = time.perf_counter()
                finally:
                    if was_enabled:
                        gc.enable()
                row.samples.append(
                    PhaseSample(
                        reading_ms=(t2 - t0) * 1e3,
                        transformation_ms=(t5 - t2) * 1e3,
                        writing_ms=(t7 - t5) * 1e3,
                        parse_ms=(t2 - t1) * 1e3,
                        initialize_ms=(t3 - t2) * 1e3,
                        reduce_ms=(t4 - t3) * 1e3,
                        export_ms=(t5 - t4) * 1e3,
                        write_chart_ms=(t6 - t5) * 1e3,
                        write_trace_ms=(t8 - t7) * 1e3,
                    )
                )
        if discard_first and len(row.samples) > 1:
            row.discarded = 1
    except (NetchartError, OSError) as exc:
        row.error = str(exc)
    return row


def bench(
    sizes: list[int],
    reps: int,
    seed: int,
    discard_first: bool = False,
    max_branch: int = 4,
) -> BenchReport:
    """Measure every size in `sizes`, one case after another, on nets whose
    parallel splits take at most `max_branch` branches; per-case failures
    land in the row."""
    if not sizes:
        raise PreconditionError("sizes must be nonempty")
    if reps < 1:
        raise PreconditionError(f"reps must be >= 1, got {reps}")
    if max_branch < 2:
        raise PreconditionError(f"max_branch must be >= 2, got {max_branch}")
    rows = [_run_case(size, reps, seed, discard_first, max_branch) for size in sizes]
    return BenchReport(rows=rows, sizes=list(sizes), seed=seed, max_branch=max_branch)
