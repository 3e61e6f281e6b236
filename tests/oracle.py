"""Brute-force reference reducer used to cross-check the pipeline.

Implements the same two reduction rules over plain sets and dicts:
every round it re-derives adjacency from scratch and tries both rules
at every transition, in the net's transition order, until nothing
fires.  No worklist, no trace, no
code shared with the package under test; the only common vocabulary is
the canonical signature grammar from `support`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OracleResult:
    signature: str
    fully_reduced: bool
    remaining_places: int
    remaining_transitions: int
    and_applications: int
    or_applications: int


def _sig(node) -> str:
    kind, payload = node
    if kind == "basic":
        return f"b[{payload}]"
    return f"{kind}(" + ",".join(sorted(_sig(child) for child in payload)) + ")"


def oracle_reduce(
    places: set[str], transitions: dict[str, tuple[frozenset, frozenset]]
) -> OracleResult:
    places = set(places)
    trans = {
        tid: (frozenset(src), frozenset(tgt))
        for tid, (src, tgt) in transitions.items()
    }
    # per surviving place, the child list of its OR grouping
    ors: dict[str, list] = {p: [("basic", p)] for p in places}
    merges = 0
    and_count = 0
    or_count = 0

    def pre(place: str) -> frozenset:
        return frozenset(tid for tid, (_, tgt) in trans.items() if place in tgt)

    def post(place: str) -> frozenset:
        return frozenset(tid for tid, (src, _) in trans.items() if place in src)

    def connected_elsewhere(q: str, p: str, tid: str) -> bool:
        for other, (src, tgt) in trans.items():
            if other == tid:
                continue
            if (q in src and p in tgt) or (p in src and q in tgt):
                return True
        return False

    changed = True
    while changed:
        changed = False
        # sweep in the net's transition order, the order FIFO starts from
        for tid in list(trans):
            if tid not in trans:
                continue
            src, tgt = trans[tid]

            if len(src) == 1 and len(tgt) == 1:
                q = next(iter(src))
                p = next(iter(tgt))
                if q != p and not connected_elsewhere(q, p, tid):
                    del trans[tid]
                    for other in list(trans):
                        s, g = trans[other]
                        if p in s:
                            s = (s - {p}) | {q}
                        if p in g:
                            g = (g - {p}) | {q}
                        trans[other] = (frozenset(s), frozenset(g))
                    places.discard(p)
                    ors[q].extend(ors.pop(p))
                    or_count += 1
                    changed = True
                    continue

            group = src if len(src) >= 2 else tgt if len(tgt) >= 2 else None
            if group is None:
                continue
            if len({(pre(p), post(p)) for p in group}) != 1:
                continue
            if any(pre(p) & post(p) for p in group):
                continue
            fresh = f"bm{merges}"
            merges += 1
            for other in list(trans):
                s, g = trans[other]
                if s & group:
                    s = (s - group) | {fresh}
                if g & group:
                    g = (g - group) | {fresh}
                trans[other] = (frozenset(s), frozenset(g))
            places -= set(group)
            places.add(fresh)
            and_node = ("and", [("or", ors.pop(p)) for p in sorted(group)])
            ors[fresh] = [and_node]
            and_count += 1
            changed = True

    top = "and(" + ",".join(
        sorted("or(" + ",".join(sorted(_sig(c) for c in ors[p])) + ")" for p in places)
    ) + ")"
    return OracleResult(
        signature=top,
        fully_reduced=len(places) == 1 and not trans,
        remaining_places=len(places),
        remaining_transitions=len(trans),
        and_applications=and_count,
        or_applications=or_count,
    )
