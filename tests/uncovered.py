"""List the statements of `src/netchart` that no test executes.

Run from anywhere:

    python tests/uncovered.py [PYTEST_ARGS...]

It runs the test suite (or what PYTEST_ARGS name, in place of the whole
`tests` directory) in this process under a `sys.settrace` line tracer
that records lines only in the package's own source files, then prints
the statements no test reached, one run of adjacent lines per row, as
`path:first[-last]: source of the first`.  A statement line is a line
that starts bytecode in some code object compiled from the file.  Only
the standard library is used.  The name keeps
pytest from collecting the script; a run takes a few minutes, since
every traced line costs a Python call.

What the tracer cannot see is listed too, so read a line as "no test
reached it here", not as dead code:
- a line run only while a test holds its own tracer, as
  `support.line_events` does: the test's tracer replaces this one for
  the call it measures;
- a line run only in a child process, such as the `__main__` guards.

The tracer allocates objects of its own, so the garbage collector runs
where a test in `test_collector.py` asserts it does not.  Failures in
that file are therefore reported apart and not counted as failures of
the program.  The exit status is 1 if any other test fails, else 0.
"""

from __future__ import annotations

import dis
import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "netchart"
# failures in this file come from the tracer's own allocations
TRACER_SENSITIVE = "tests/test_collector.py::"


def statements(path: Path) -> set[int]:
    """The lines of *path* that start bytecode in any of its code objects."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's code starts with an instruction on line 0
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class _Failures:
    """A pytest plugin that keeps the node ids of failed tests."""

    def __init__(self) -> None:
        self.nodeids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.nodeids.append(report.nodeid)


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    reached: dict[str, set[int]] = {}

    # one local tracer for every frame: a closure made per call would be
    # cyclic garbage, which the tests that count it would see
    def on_line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = reached.get(filename)
        if lines is None:  # one set per file, not one made per call
            lines = reached[filename] = set()
        lines.add(frame.f_lineno)
        return on_line

    # the package is imported under the tracer, so its module bodies count
    sys.path.insert(0, str(PACKAGE.parent))
    failures = _Failures()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                     *(args or [str(ROOT / "tests")])], plugins=[failures])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = sorted(statements(path) - reached.get(str(path), set()))
        missed += len(lines)
        runs: list[list[int]] = []
        for line in lines:
            if runs and runs[-1][-1] == line - 1:
                runs[-1].append(line)
            else:
                runs.append([line])
        for run in runs:
            span = str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}"
            print(f"{path.relative_to(ROOT)}:{span}: {source[run[0] - 1].strip()}")
    print(f"{missed} statement lines of {PACKAGE.relative_to(ROOT)} no test executed")

    sensitive = [n for n in failures.nodeids if n.startswith(TRACER_SENSITIVE)]
    others = [n for n in failures.nodeids if not n.startswith(TRACER_SENSITIVE)]
    if sensitive:
        print(f"{len(sensitive)} failures in {TRACER_SENSITIVE[:-2]} come from the "
              "tracer's own allocations, which start the collector; not counted:")
        for nodeid in sensitive:
            print(f"  {nodeid}")
    if others:
        print(f"{len(others)} other tests failed:")
        for nodeid in others:
            print(f"  {nodeid}")
    return 1 if others else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
