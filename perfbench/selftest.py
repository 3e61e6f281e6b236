"""Self-test of the output check: a correct chart passes, and the same chart
with one basic state moved to another OR state is rejected.

Run with `python3 perfbench/selftest.py` from the repository root; the
measuring run also calls `run` after its timed loop.
"""

from __future__ import annotations

import json
import random
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import check
import workloads


def _move_basic_xml(chart: bytes) -> bytes:
    root = ET.fromstring(chart)
    top_or = root[0][0]
    for parent in top_or.iter("or"):
        if parent is not top_or and len(parent) >= 2:
            basic = next(child for child in parent if child.tag == "basic")
            parent.remove(basic)
            top_or.append(basic)
            return ET.tostring(root)
    raise AssertionError("no nested OR state with two children")


def _move_basic_json(chart: bytes) -> bytes:
    doc = json.loads(chart)
    top_or = doc["topstate"]["children"][0]
    stack = list(top_or["children"])
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        if node["kind"] == "or" and len(children) >= 2:
            basic = next(child for child in children if child["kind"] == "basic")
            children.remove(basic)
            top_or["children"].append(basic)
            return json.dumps(doc).encode()
        stack.extend(children)
    raise AssertionError("no nested OR state with two children")


def run(nc) -> list[str]:
    """Problems with the check itself; empty when it behaves."""
    problems = []
    for fmt, move in (("xml", _move_basic_xml), ("json", _move_basic_json)):
        net, expected = workloads.sp_net("selftest", random.Random(5), 40, 3)
        data = net.to_xml() if fmt == "xml" else net.to_json()
        doc = workloads.Doc(0, "selftest", data, len(net.places), net.arcs(), 0, expected)
        chart, _, trace = nc.transform(nc.parse_net(data))
        chart_data = nc.write_chart(chart, fmt)
        trace_data = nc.write_trace(trace)
        if check.check(doc, chart_data, trace_data)[0]:
            problems.append(f"{fmt}: the check rejects a correct chart")
        if not check.check(doc, move(chart_data), trace_data)[0]:
            problems.append(f"{fmt}: the check accepts a chart with a basic state moved")
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import netchart

    found = run(netchart)
    print("\n".join(found) or "selftest: ok")
    sys.exit(1 if found else 0)
