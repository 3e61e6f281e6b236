"""Benchmark of netchart: one workload, one seed, one run.

From the repository root:

    python3 perfbench/run.py --workload sp_xml --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
is a separate traced run that reports the per-layer metrics.  Every
interpreter that imports netchart is a fresh child of this process, which
itself never imports it; children find the package in this checkout's
`src/` through an absolute PYTHONPATH.  Set-up time is the median over
SETUP_SAMPLES + 1 fresh interpreters: the measuring one, with set-up-only
ones before and after it, so that the samples span the whole run rather
than one stretch of the host's speed.

Lines starting with "#" describe the run (interpreter, platform, CPUs, git
revision, failures, output digest).  The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`correct` is false when any document's output fails the output check or
the check's self-test fails; a document that raises counts in `failed`.
The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sp_xml", "hub_xml", "corpus_json")
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def host() -> dict:
    return {
        "python": platform.python_implementation() + " " + platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
    }


def child(mode: str, args, package: Path, deadline: float) -> dict:
    """Run measure.py in a fresh interpreter; returns its result line."""
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--package", str(package),
        "--started", repr(time.monotonic()),
    ]
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} interpreter exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="netchart benchmark, one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    package = ROOT / "src" / "netchart"
    if not (package / "__init__.py").is_file():
        print(f"error: no netchart package at {package}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = child("trace", args, package, deadline)
            setups = [result["setup_s"]]
        else:
            setups = [
                child("setup", args, package, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES // 2)
            ]
            result = child("measure", args, package, deadline)
            setups.append(result["setup_s"])
            setups += [
                child("setup", args, package, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            ]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # a failed document costs +inf; printed as the largest float, which
    # JSON can carry
    metrics = {
        name: {"value": min(value, sys.float_info.max), "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    wrong = [f for f in result["failures"] if f["reason"].startswith("wrong output")]
    print("# host " + json.dumps(host()))
    print("# run " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setups,
        "rss_after_setup_mb": result["rss_after_setup_mb"],
        "run_digest": result["run_digest"],
        "out_file": result["out_file"],
        "absent_layers": result.get("absent", []),
        "context": result.get("context", {}),
        "selftest": result["selftest"] or "ok",
    }))
    for failure in result["failures"]:
        print("# failed " + json.dumps(failure))
    print(json.dumps({
        "correct": not wrong and not result["selftest"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
