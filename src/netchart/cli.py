"""Command-line front end.

Exit codes: 0 success, 1 unreadable or unparseable input (including
usage errors, and input too large or too deep for the interpreter),
2 semantic/validation failure, 3 reduction left material behind while
--require-full-reduction was given.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import bench
from .errors import NetchartError, ParseError, ValidationError
from .formats import parse_chart, parse_net, write_chart, write_net, write_trace
from .generator import SpSpec, generate_sp
from .net import _collector_paused, find_self_loops
from .pipeline import ReductionReport, transform


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this interface reserves 2 for
    # validation failures and reports usage problems with 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _csv_sizes(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from None


def _format_for(path: str) -> str:
    return "json" if Path(path).suffix.lower() == ".json" else "xml"


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="netchart",
        description="Synthesize hierarchical statecharts from Petri nets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "transform",
        help="read a net, reduce it and write the statechart",
        description="Read a net file, build the statechart and write it out. "
        "The input format is sniffed; the output format follows --format or "
        "the output file suffix.",
    )
    p.add_argument("--input", required=True, help="net file (xml or json)")
    p.add_argument("--output", required=True, help="statechart file to write")
    p.add_argument("--trace", help="also write the rule trace (json) here")
    p.add_argument(
        "--format",
        choices=("xml", "json"),
        help="output format (default: by output file suffix)",
    )
    p.add_argument(
        "--require-full-reduction",
        action="store_true",
        help="exit 3 unless the net collapsed to a single place",
    )
    p.add_argument("--stats", action="store_true", help="print reduction counters")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser(
        "generate",
        help="generate a series-parallel net",
        description="Generate a series-parallel net; equal parameters give "
        "byte-identical files. The format follows the --out suffix.",
    )
    p.add_argument("--places", type=int, required=True, help="exact place count")
    p.add_argument("--seed", type=int, required=True, help="RNG seed")
    p.add_argument("--out", required=True, help="net file to write")
    p.add_argument(
        "--max-branch", type=int, default=4, help="parallel branch cap (default 4)"
    )
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser(
        "validate",
        help="check a net or statechart file",
        description="Parse and validate one file; violations are listed with "
        "the offending ids and exit code 2.",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--net", help="net file to check")
    group.add_argument("--chart", help="statechart file to check")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser(
        "bench",
        help="time generated cases per phase",
        description="Generate one case per size and time reading, "
        "transformation and writing per repetition.",
    )
    p.add_argument(
        "--sizes", type=_csv_sizes, required=True, help="place counts, e.g. 200,2000"
    )
    p.add_argument("--reps", type=int, required=True, help="repetitions per case")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument(
        "--report", choices=("table", "csv", "json"), default="table", help="output style"
    )
    p.add_argument(
        "--discard-first",
        action="store_true",
        help="report the median of all but the first repetition",
    )
    p.add_argument(
        "--max-branch", type=int, default=4, help="parallel branch cap (default 4)"
    )
    p.set_defaults(handler=_cmd_bench)
    return parser


def _print_stats(report: ReductionReport) -> None:
    print(f"and applications:      {report.and_applications}")
    print(f"or applications:       {report.or_applications}")
    print(f"remaining places:      {report.remaining_places}")
    print(f"remaining transitions: {report.remaining_transitions}")
    print(f"fully reduced:         {'yes' if report.fully_reduced else 'no'}")


# the library calls pause the collector themselves; pausing the whole
# command also saves the young-generation pass that would follow each
@_collector_paused
def _cmd_transform(args) -> int:
    net = parse_net(Path(args.input).read_bytes())
    chart, report, trace = transform(net)
    format = args.format or _format_for(args.output)
    Path(args.output).write_bytes(write_chart(chart, format))
    if args.trace:
        Path(args.trace).write_bytes(write_trace(trace))
    if args.stats:
        _print_stats(report)
    if args.require_full_reduction and not report.fully_reduced:
        print(
            f"error: net {net.name!r} did not fully reduce "
            f"({report.remaining_places} places and "
            f"{report.remaining_transitions} transitions left)",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_generate(args) -> int:
    net = generate_sp(
        SpSpec(places=args.places, seed=args.seed, max_branch=args.max_branch)
    )
    Path(args.out).write_bytes(write_net(net, _format_for(args.out)))
    return 0


def _cmd_validate(args) -> int:
    if args.net:
        net = parse_net(Path(args.net).read_bytes())
        for warning in find_self_loops(net):
            print(f"warning: {warning}")
        print(
            f"net {net.name!r}: OK "
            f"({len(net.places)} places, {len(net.transitions)} transitions)"
        )
    else:
        chart = parse_chart(Path(args.chart).read_bytes())
        states = sum(1 for _ in chart.states())
        print(
            f"chart {chart.name!r}: OK "
            f"({states} states, {len(chart.hyperedges)} hyperedges)"
        )
    return 0


def _cmd_bench(args) -> int:
    report = bench(
        sizes=args.sizes,
        reps=args.reps,
        seed=args.seed,
        discard_first=args.discard_first,
        max_branch=args.max_branch,
    )
    for row in report.rows:
        if row.error is not None:
            print(f"warning: {row.case}: {row.error}", file=sys.stderr)
    if args.report == "csv":
        print(report.render_csv())
    elif args.report == "json":
        print(report.render_json())
    else:
        print(report.render_table())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return 2
    except NetchartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply (Python's recursion limit)", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
