"""Output check for the netchart benchmark; it does not trust netchart.

Chart and trace documents are re-read with plain ElementTree and `json`
and compared with what the input's construction recipe implies:

- the chart's hierarchy, as a canonical signature that ignores state ids
  and child order (`workloads.composite_sig`), equals the recipe's;
- hyperedges are conserved: one per input transition, and its source and
  target basic states name exactly that transition's input and output
  places;
- every place has exactly one basic state;
- the trace names every place and every transition.

All tree walks use explicit stacks, so deep charts need no recursion.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from typing import NamedTuple

from workloads import basic_sig, composite_sig

_KINDS = {"or": "O", "and": "A"}


def read_net(data: bytes) -> tuple[list[str], dict[str, tuple[list[str], list[str]]]]:
    """Places and transitions (id -> (src, tgt)) of an XML or JSON net."""
    if data.lstrip()[:1] == b"<":
        root = ET.fromstring(data)
        places = [e.get("id") for e in root.iter("place")]
        transitions = {
            e.get("id"): (e.get("src").split(), e.get("tgt").split())
            for e in root.iter("transition")
        }
    else:
        doc = json.loads(data)
        places = [p["id"] for p in doc["places"]]
        transitions = {t["id"]: (t["src"], t["tgt"]) for t in doc["transitions"]}
    return places, transitions


class Chart(NamedTuple):
    """What the check needs of a chart document."""

    signature: int  # canonical signature of the state tree
    basics: dict[str, str]  # basic state id -> place
    edges: list[tuple[str, list[str], list[str]]]  # (transition, src ids, tgt ids)
    states: int


def _xml_tree(root: ET.Element):
    top = root[0]
    edges = [
        (e.get("transition"), e.get("src").split(), e.get("tgt").split())
        for e in root[1:]
    ]

    def describe(elem):
        if elem.tag == "basic":
            return "basic", elem.get("id"), elem.get("place"), ()
        return elem.tag, elem.get("id"), None, list(elem)

    return top, describe, edges


def _json_tree(doc: dict):
    edges = [(e["transition"], e["src"], e["tgt"]) for e in doc["hyperedges"]]

    def describe(obj):
        return obj["kind"], obj["id"], obj.get("place"), obj.get("children", ())

    return doc["topstate"], describe, edges


def read_chart(data: bytes) -> Chart:
    if data.lstrip()[:1] == b"<":
        top, describe, edges = _xml_tree(ET.fromstring(data))
    else:
        top, describe, edges = _json_tree(json.loads(data))
    basics: dict[str, str] = {}
    states = 0
    # post-order: a composite's signature is computed once its children's
    # are; a pushed kind letter marks where a composite closes
    done: list[list[int]] = [[]]
    stack = [top]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            sigs = done.pop()
            done[-1].append(composite_sig(node, sigs))
            continue
        kind, node_id, place, children = describe(node)
        states += 1
        if kind == "basic":
            if node_id in basics:
                raise ValueError(f"state id {node_id!r} used twice")
            basics[node_id] = place
            done[-1].append(basic_sig(place))
            continue
        if kind not in _KINDS:
            raise ValueError(f"unknown state kind {kind!r}")
        done.append([])
        stack.append(_KINDS[kind])
        stack.extend(children)
    (signature,) = done[0]
    return Chart(signature, basics, edges, states)


def check(doc, chart_data: bytes, trace_data: bytes) -> tuple[list[str], Chart | None]:
    """Problems found in one document's outputs (empty when correct)."""
    places, transitions = read_net(doc.data)
    try:
        chart = read_chart(chart_data)
    except (ET.ParseError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"chart unreadable: {type(exc).__name__}: {exc}"], None

    problems = []
    if chart.signature != doc.expected:
        problems.append("hierarchy differs from the construction recipe")
    if sorted(chart.basics.values()) != sorted(places):
        problems.append("basic states do not match the places one to one")
    seen = set()
    for transition, src, tgt in chart.edges:
        if transition in seen or transition not in transitions:
            problems.append(f"hyperedge for {transition!r} is extra or repeated")
            continue
        seen.add(transition)
        want_src, want_tgt = transitions[transition]
        got_src = sorted(chart.basics.get(s, "?") for s in src)
        got_tgt = sorted(chart.basics.get(s, "?") for s in tgt)
        if got_src != sorted(want_src) or got_tgt != sorted(want_tgt):
            problems.append(f"hyperedge for {transition!r} has other endpoints")
    if len(seen) != len(transitions):
        problems.append(f"{len(transitions) - len(seen)} transitions have no hyperedge")

    try:
        named = {entry["input"] for entry in json.loads(trace_data)}
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"trace unreadable: {type(exc).__name__}: {exc}"], chart
    missing = (set(places) | set(transitions)) - named
    if missing:
        problems.append(f"trace does not name {len(missing)} places/transitions")
    return problems, chart
