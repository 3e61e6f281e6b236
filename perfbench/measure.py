"""One measuring interpreter of the netchart benchmark.

`run.py` starts this script in a fresh interpreter per set-up sample and
per measuring run; the package is found through an absolute PYTHONPATH.
The script prints one JSON line, its result, as the last line of its
standard output.

Modes:

- `setup`: import netchart, generate and serialize the inputs, report
  the seconds since the parent started the interpreter, and exit.
- `measure`: the same set-up, then a closed loop over the documents for
  `--seconds` seconds (and at least MIN_DOCS documents, up to the end of
  the workload's current block).  Before each
  document it runs a fixed reference loop, and a document's cost is given
  in units of that loop's time (see `measure`).  It calls only what the
  CLI calls.
- `trace`: the same closed loop, but each document runs once untraced and
  once layer by layer with in-memory spans, followed by a separate
  tracemalloc pass over the first few documents and a probe of the
  deepest nest the JSON chart writer can write.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import random
import resource
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import selftest
import workloads

MIN_DOCS = 100  # so that ten documents lie beyond p90
MIN_TRACED_DOCS = 30
REPEATS = 2
HARD_CAP_S = 120.0  # stop short of the runner's time limit on a slow build
MEM_DOCS = 5
DEPTH_PROBE_MAX = 512
_REF_NODES = 4_500
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass(frozen=True)
class Workload:
    pool: Callable[[int], list]
    out_format: str
    read_back: bool  # also parse the written chart, as `validate --chart` does
    block: int = 1  # a run ends after a whole number of blocks of the pool


# Sizes keep a run at about 150 documents on a 2-core machine, so that p90
# has ten documents beyond it within the run's time.
WORKLOADS = {
    "sp_xml": Workload(
        lambda seed: workloads.sp_xml_pool(seed, 160, 400, 1600), "xml", False
    ),
    "hub_xml": Workload(
        lambda seed: workloads.hub_xml_pool(seed, 160, (600, 1600), (250, 700)),
        "xml",
        False,
    ),
    "corpus_json": Workload(
        lambda seed: workloads.corpus_json_pool(seed, 288, (50, 1000), (40, 220), 16, 6),
        "json",
        True,
        # every 96 documents hold each of the six nest depths once; a run
        # cut inside a block would weigh the costly deep nests by chance
        96,
    ),
}

# layers timed from outside netchart, named after its modules
FINE_LAYERS = ("pipeline.initialize", "net.copy", "pipeline.reduce", "engine.trace_export")
# extra calls the traced run makes to time a layer that another call
# already runs inside netchart; kept out of the traced document time
PROBES = ("formats.tokenize", "net.check_net", "chart.validate_chart")


class _RefNode:
    __slots__ = ("name", "out", "into", "serial")

    def __init__(self, name: str, serial: int):
        self.name = name
        self.out: dict[str, _RefNode] = {}
        self.into: dict[str, _RefNode] = {}
        self.serial = serial


def reference_loop() -> int:
    """Fixed pure-stdlib work of about 20 ms that never touches netchart.

    It builds and links small slotted objects through dicts, writes them as
    attribute strings, reads those back and sorts: the same kind of work a
    document does.  A host that runs faster or slower for a while (other
    tenants, frequency) then changes this loop and a document alike, so the
    ratio of the two holds steadier than either time.
    """
    nodes = {}
    for i in range(_REF_NODES):
        name = "n%05d" % i
        nodes[name] = _RefNode(name, i)
    names = list(nodes)
    x = 12345
    for node in nodes.values():
        for _ in range(2):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            other = nodes[names[x % _REF_NODES]]
            node.out[other.name] = other
            other.into[node.name] = node
    text = "\n".join(
        f'<n id="{node.name}" out="{" ".join(node.out)}" in="{len(node.into)}"/>'
        for node in nodes.values()
    )
    spaces = {line[7:13]: line.count(" ") for line in text.split("\n")}
    order = sorted(nodes.values(), key=lambda node: (len(node.into), node.name))
    return len(spaces) + order[0].serial


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile; +inf values sort last and stay +inf."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if pos == lo:
        return ordered[lo]
    if ordered[hi] == float("inf"):
        return float("inf")
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_doc(nc, doc, work: Workload) -> tuple[bytes, bytes]:
    """One document through what the CLI calls: `transform --trace`, and for
    read-back workloads `validate --chart` on the written chart."""
    net = nc.parse_net(doc.data)
    chart, _, trace = nc.transform(net)
    chart_data = nc.write_chart(chart, work.out_format)
    trace_data = nc.write_trace(trace)
    if work.read_back:
        nc.parse_chart(chart_data)
    return chart_data, trace_data


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, document id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.doc = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, self.doc]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


def _fine_api(nc):
    """The pipeline's inner functions, or None once they are gone."""
    try:
        from netchart.engine import TransformationContext
        from netchart.pipeline import RuleSet, initialize, reduce
    except ImportError:
        return None
    return RuleSet, TransformationContext, initialize, reduce


def traced_doc(nc, fine, doc, work: Workload, tracer: Tracer):
    """One document, layer by layer, in the order `transform` uses; returns
    (chart bytes, trace bytes, report, trace entries)."""
    span = tracer.span
    with span("doc"):
        with span("formats.tokenize"):
            if doc.data[:1] == b"<":
                ET.fromstring(doc.data)
            else:
                json.loads(doc.data)
        with span("formats.parse_net"):
            net = nc.parse_net(doc.data)
        with span("net.check_net"):
            nc.check_net(net)
        with span("pipeline.transform"):
            if fine is None:
                chart, report, trace = nc.transform(net)
            else:
                rule_set, context, initialize, reduce = fine
                rules, ctx = rule_set(), context()
                with span("pipeline.initialize"):
                    chart = initialize(net, rules, ctx)
                with span("net.copy"):
                    working = net.copy()
                with span("pipeline.reduce"):
                    report = reduce(working, chart, rules, ctx)
                with span("engine.trace_export"):
                    trace = ctx.trace_export()
        with span("chart.validate_chart"):
            nc.validate_chart(chart)
        with span("formats.write_chart"):
            chart_data = nc.write_chart(chart, work.out_format)
        with span("formats.write_trace"):
            trace_data = nc.write_trace(trace)
        if work.read_back:
            with span("formats.parse_chart"):
                nc.parse_chart(chart_data)
    return chart_data, trace_data, report, trace


def _failure(doc, reason: str) -> dict:
    return {"doc": doc.index, "family": doc.family, "places": doc.places,
            "depth": doc.depth, "reason": reason[:300]}


def _check_outcome(doc, outcome, failures: list, digests: list):
    """Record a failure for an exception or a wrong output.  `outcome` is
    (chart bytes, trace bytes) or the exception the document raised.
    Returns the chart reading of a passing document, else None."""
    if isinstance(outcome, Exception):
        failures.append(_failure(doc, f"{type(outcome).__name__}: {outcome}"))
        return None
    chart_data, trace_data = outcome
    digests.append([doc.index, hashlib.sha256(chart_data + b"\0" + trace_data).hexdigest()])
    problems, chart = check.check(doc, chart_data, trace_data)
    if problems:
        failures.append(_failure(doc, "wrong output: " + "; ".join(problems[:5])))
        return None
    return chart


def _outcome_key(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return outcome


def _closed_loop(
    pool, seconds: float, min_docs: int, block: int, step: Callable[[object], None]
) -> int:
    """Feed documents one after another until the time is up, at least
    `min_docs` ran and the count is a whole number of blocks; the pool
    wraps around when a fast build empties it."""
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and count >= min_docs and count % block == 0
        if elapsed >= HARD_CAP_S or done:
            return count
        step(pool[count % len(pool)])
        count += 1


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def trim_heap() -> None:
    """Collect garbage and hand the C heap's free pages back to the system,
    so that less of what earlier documents left in the heap carries into
    the next document's memory peak."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


def _timed(fn) -> float:
    gc.collect()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(nc, pool, work: Workload, seconds: float) -> dict:
    """The gated run.  Each document runs REPEATS times back to back after
    one reference loop, failing or not, and must give the same result each
    time.  Its cost in reference units (ru) is its fastest wall time over
    the faster of the reference loops just before and just after it: the
    host's short slowdowns hit single runs and drop out, while longer ones
    slow both sides alike.  A failed document costs +inf.  The heap is
    trimmed after the reference loop, before the document's first run, so
    that `peak_rss_mb` depends less on what earlier documents left."""
    ref_s: list[float] = []
    timings: list = []  # [doc index, fastest wall seconds, passed, peak RSS kB]
    failures: list[dict] = []
    digests: list = []

    def step(doc):
        ref_s.append(_timed(reference_loop))
        trim_heap()
        walls = []
        outcomes = []
        for _ in range(REPEATS):
            gc.collect()
            start = time.perf_counter()
            try:
                outcomes.append(run_doc(nc, doc, work))
            except Exception as exc:  # a failing document never stops the run
                # without its traceback, which would keep the failed run's
                # objects alive through the next one
                outcomes.append(exc.with_traceback(None))
            walls.append(time.perf_counter() - start)
        if len({_outcome_key(other) for other in outcomes}) > 1:
            failures.append(_failure(doc, "wrong output: repeated runs gave different results"))
            ok = False
        else:
            ok = _check_outcome(doc, outcomes[0], failures, digests) is not None
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        timings.append([doc.index, min(walls), ok, rss])

    loop_start = time.perf_counter()
    count = _closed_loop(pool, seconds, MIN_DOCS, work.block, step)
    loop_s = time.perf_counter() - loop_start
    ref_s.append(_timed(reference_loop))

    ru = [t[1] / min(ref_s[i], ref_s[i + 1]) for i, t in enumerate(timings)]
    costs = [cost if t[2] else float("inf") for cost, t in zip(ru, timings)]
    passed_places = sum(pool[t[0]].places for t in timings if t[2])
    doc_s = [t[1] for t in timings]
    return {
        "attempted": count,
        "failures": failures,
        "digests": digests,
        "timings": [t + [r] for t, r in zip(timings, ref_s)],
        "metrics": {
            "places_per_ru": (passed_places / sum(ru), "places/ru"),
            "doc_ru_p50": (quantile(costs, 0.5), "ru"),
            "doc_ru_p90": (quantile(costs, 0.9), "ru"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "context": {
            "loop_s": loop_s,
            "ref_ms_p50": quantile(ref_s, 0.5) * 1e3,
            "doc_ms_p50": quantile(doc_s, 0.5) * 1e3,
            "doc_ms_p90": quantile(doc_s, 0.9) * 1e3,
        },
    }


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _peak_mb(fn):
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, (tracemalloc.get_traced_memory()[1] - before) / 2**20


def _memory_doc(nc, fine, doc, work: Workload, peaks: dict[str, list[float]]) -> None:
    net = nc.parse_net(doc.data)
    if fine is None:
        chart = nc.transform(net)[0]
    else:
        rule_set, context, initialize, reduce = fine
        rules, ctx = rule_set(), context()
        chart, mb = _peak_mb(lambda: initialize(net, rules, ctx))
        peaks["initialize"].append(mb)
        working, mb = _peak_mb(net.copy)
        peaks["copy"].append(mb)
        peaks["reduce"].append(_peak_mb(lambda: reduce(working, chart, rules, ctx))[1])
    peaks["write_chart"].append(_peak_mb(lambda: nc.write_chart(chart, work.out_format))[1])


def memory_pass(nc, fine, docs, work: Workload) -> dict[str, list[float]]:
    """tracemalloc peaks above the live heap, per layer; never timed.  A
    document that raises keeps the peaks it reached before."""
    peaks: dict[str, list[float]] = {
        "initialize": [], "copy": [], "reduce": [], "write_chart": []
    }
    tracemalloc.start()
    try:
        for doc in docs:
            try:
                _memory_doc(nc, fine, doc, work, peaks)
            except Exception:  # recorded by the timed runs
                pass
            gc.collect()
    finally:
        tracemalloc.stop()
    return peaks


def json_depth_limit(nc) -> int:
    """Deepest fork/join nest whose chart `write_chart(chart, "json")` writes
    without raising RecursionError, by bisection over 0..DEPTH_PROBE_MAX.

    The corpus keeps its nests below this limit so that no document fails;
    the limit is where the JSON writer's recursion shows.  Never timed."""

    def writes(depth: int) -> bool:
        net, _ = workloads.deep_net(f"probe{depth}", random.Random(depth), depth)
        chart = nc.transform(nc.parse_net(net.to_json()))[0]
        try:
            nc.write_chart(chart, "json")
        except RecursionError:
            return False
        return True

    if writes(DEPTH_PROBE_MAX):
        return DEPTH_PROBE_MAX
    low, high = 0, DEPTH_PROBE_MAX  # a nest of depth 0 is one place
    while high - low > 1:
        mid = (low + high) // 2
        if writes(mid):
            low = mid
        else:
            high = mid
    return low


def trace_run(nc, pool, work: Workload, seconds: float) -> dict:
    fine = _fine_api(nc)
    tracer = Tracer()
    failures: list[dict] = []
    digests: list = []
    ref_s: list[float] = []
    raw_s: list[float] = []
    counts: dict[str, list[float]] = {
        "or": [], "and": [], "entries": [], "states": [], "out_kb": [], "arcs": []
    }

    def step(doc):
        ref_s.append(_timed(reference_loop))
        gc.collect()
        start = time.perf_counter()
        try:
            run_doc(nc, doc, work)
        except Exception:  # the traced pass below records the failure
            pass
        raw_s.append(time.perf_counter() - start)
        gc.collect()
        tracer.doc = doc.index
        try:
            chart_data, trace_data, report, trace = traced_doc(nc, fine, doc, work, tracer)
            outcome = chart_data, trace_data
        except Exception as exc:  # a failing document never stops the run
            outcome = exc
        chart = _check_outcome(doc, outcome, failures, digests)
        if chart is not None:
            counts["or"].append(getattr(report, "or_applications", 0))
            counts["and"].append(getattr(report, "and_applications", 0))
            counts["entries"].append(len(trace))
            counts["states"].append(chart.states)
            counts["out_kb"].append((len(chart_data) + len(trace_data)) / 1024)
        counts["arcs"].append(doc.arcs)

    count = _closed_loop(pool, seconds, MIN_TRACED_DOCS, work.block, step)
    peaks = memory_pass(nc, fine, pool[:MEM_DOCS], work)
    depth_limit = json_depth_limit(nc)

    own = _self_times(tracer.spans)
    per_doc: dict[str, dict[int, float]] = {}
    doc_time: dict[int, float] = {}
    for (name, start, end, _, doc_id), self_s in zip(tracer.spans, own):
        if name == "doc":
            doc_time[doc_id] = doc_time.get(doc_id, 0.0) + (end - start)
            continue
        if name in PROBES:
            doc_time[doc_id] = doc_time.get(doc_id, 0.0) - (end - start)
        value = end - start if name == "pipeline.transform" else self_s
        layer = per_doc.setdefault(name, {})
        layer[doc_id] = layer.get(doc_id, 0.0) + value
    traced_total = sum(doc_time.values())

    def ms(name):
        values = list(per_doc.get(name, {}).values())
        return quantile(values, 0.5) * 1e3 if values else 0.0

    def share(name):
        return sum(per_doc.get(name, {}).values()) / traced_total

    def median(values):
        return quantile(values, 0.5) if values else 0.0

    reduce_s = sum(per_doc.get("pipeline.reduce", {}).values())
    metrics = {
        "pipeline.initialize_ms": (ms("pipeline.initialize"), "ms"),
        "pipeline.initialize_share": (share("pipeline.initialize"), "fraction"),
        "engine.trace_export_ms": (ms("engine.trace_export"), "ms"),
        "engine.trace_entries": (median(counts["entries"]), "count"),
        "pipeline.reduce_ms": (ms("pipeline.reduce"), "ms"),
        "pipeline.reduce_share": (share("pipeline.reduce"), "fraction"),
        "pipeline.reduce_us_per_arc": (reduce_s * 1e6 / sum(counts["arcs"]), "us/arc"),
        "pipeline.or_applications": (median(counts["or"]), "count"),
        "pipeline.and_applications": (median(counts["and"]), "count"),
        "formats.write_chart_ms": (ms("formats.write_chart"), "ms"),
        "formats.write_chart_share": (share("formats.write_chart"), "fraction"),
        "formats.write_trace_ms": (ms("formats.write_trace"), "ms"),
        "formats.write_trace_share": (share("formats.write_trace"), "fraction"),
        "formats.tokenize_ms": (ms("formats.tokenize"), "ms"),
        "formats.parse_net_ms": (ms("formats.parse_net"), "ms"),
        "formats.parse_net_share": (share("formats.parse_net"), "fraction"),
        "formats.parse_chart_ms": (ms("formats.parse_chart"), "ms"),
        "formats.parse_chart_share": (share("formats.parse_chart"), "fraction"),
        "formats.out_kb": (median(counts["out_kb"]), "kB"),
        "formats.json_depth_limit": (depth_limit, "levels"),
        "net.check_net_ms": (ms("net.check_net"), "ms"),
        "net.copy_ms": (ms("net.copy"), "ms"),
        "chart.validate_chart_ms": (ms("chart.validate_chart"), "ms"),
        "chart.states": (median(counts["states"]), "count"),
        "mem.initialize_peak_mb": (median(peaks["initialize"]), "MB"),
        "mem.copy_peak_mb": (median(peaks["copy"]), "MB"),
        "mem.reduce_peak_mb": (median(peaks["reduce"]), "MB"),
        "mem.write_chart_peak_mb": (median(peaks["write_chart"]), "MB"),
        "pipeline.transform_ms": (ms("pipeline.transform"), "ms"),
        "raw.doc_ms_p50": (quantile(raw_s, 0.5) * 1e3, "ms"),
        "raw.doc_ms_p90": (quantile(raw_s, 0.9) * 1e3, "ms"),
        "host.ref_ms": (quantile(ref_s, 0.5) * 1e3, "ms"),
        "trace.overhead_pct": ((traced_total / sum(raw_s) - 1) * 100, "%"),
    }
    return {
        "attempted": count,
        "failures": failures,
        "digests": digests,
        "metrics": metrics,
        "absent": [] if fine is not None else list(FINE_LAYERS),
        "spans": tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this interpreter")
    parser.add_argument("--package", required=True,
                        help="absolute path of the netchart package directory")
    args = parser.parse_args()

    import netchart as nc

    if Path(nc.__file__).resolve().parent != Path(args.package):
        raise SystemExit(f"imported netchart from {nc.__file__}, not {args.package}")
    work = WORKLOADS[args.workload]
    pool = work.pool(args.seed)
    setup_s = time.monotonic() - args.started
    rss_after_setup = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.mode == "measure":
        result = measure(nc, pool, work, args.seconds)
    else:
        result = trace_run(nc, pool, work, args.seconds)
    result["selftest"] = selftest.run(nc)
    result["setup_s"] = setup_s
    result["rss_after_setup_mb"] = rss_after_setup

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-{args.mode}"
    record = {key: result.pop(key) for key in ("digests", "timings", "spans") if key in result}
    record["failures"] = result["failures"]
    stem.with_suffix(".json").write_text(json.dumps(record))
    result["out_file"] = str(stem.with_suffix(".json"))
    result["run_digest"] = hashlib.sha256(
        "".join(d for _, d in record["digests"]).encode()
    ).hexdigest()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
