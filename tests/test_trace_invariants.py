"""Criterion 7's trace checker against a checker that parses every line.

``_check_trace_invariants`` reads each line's kind from its kind field and
parses only send, halt and enlighten lines; ``reference_check`` parses every
line into a ``TraceEvent``.  They must report the same problems on real
traces and on traces edited to break each invariant.
"""

import json
import re
from dataclasses import replace

import pytest

from relsim.acceptance import _check_trace_invariants
from relsim.adversary import (
    FractionalPolynomial,
    LinearFraction,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import RunConfig, run
from relsim.estimator import EstimationParams
from relsim.trace import TraceCollector

Q = EstimationParams(0.8, 0.4)

CONFIGS = {
    "lf-upfront": RunConfig(n=16, params=Q, model=LinearFraction(0.25),
                            crash_pattern=UpfrontCrashes(), seed=3),
    "fp-spread": RunConfig(n=12, params=Q, model=FractionalPolynomial(0.5),
                           crash_pattern=SpreadCrashes(10),
                           reliability=UniformReliability(0.5, 1.0), seed=11),
    "pl-spread": RunConfig(n=10, params=Q, model=PolyLog(1.0),
                           crash_pattern=SpreadCrashes(8), seed=9),
    "round-cap": RunConfig(n=16, params=Q, model=FractionalPolynomial(0.5),
                           crash_pattern=SpreadCrashes(10), seed=5, max_rounds=40),
}


def reference_check(result) -> list[str]:
    """Trace-level invariant violations, from every line parsed."""
    problems = []
    trace = result.trace
    halt_round = {}
    enlighten_round = {}
    sends = receives = drops = 0
    for ev in trace.events:
        if ev.kind == "halt":
            halt_round[ev.id] = ev.round
        elif ev.kind == "enlighten":
            enlighten_round.setdefault(ev.id, ev.round)
        elif ev.kind == "send":
            sends += 1
            if ev.id in halt_round and ev.round > halt_round[ev.id]:
                problems.append(f"processor {ev.id} sent after halting")
            if ev.payload["type"] == "share" and ev.payload["ell"] != 0:
                problems.append(f"share with nonzero level from {ev.id}")
            if ev.payload["type"] == "profess":
                if ev.id not in enlighten_round or ev.round < enlighten_round[ev.id]:
                    problems.append(f"profess from unenlightened {ev.id}")
        elif ev.kind == "receive":
            receives += 1
        elif ev.kind == "drop":
            drops += 1
    m = result.metrics
    if sends != m.messages_total:
        problems.append(f"trace sends {sends} != messages_total {m.messages_total}")
    if receives != m.delivered or drops != m.dropped_to_crashed + m.dropped_to_halted:
        problems.append("trace routing counts disagree with metrics ledger")
    if not m.conservation_ok():
        problems.append("metrics conservation ledger unbalanced")
    return problems


def _with_lines(result, lines):
    trace = TraceCollector()
    trace.chunks.append("".join(line + "\n" for line in lines))
    return replace(result, trace=trace)


def _first(lines, pattern):
    return next(i for i, line in enumerate(lines) if re.search(pattern, line))


def _halt_before_a_send(lines):
    at = _first(lines, r'"round":[1-9]\d*,.*"kind":"send"')
    record = json.loads(lines[at])
    halt = {"v": 1, "seq": 0, "round": record["round"] - 1, "stage": "gossip",
            "step": "compute", "id": record["id"], "kind": "halt"}
    return lines[:at] + [json.dumps(halt, separators=(",", ":"))] + lines[at:]


def _leveled_share(lines):
    at = _first(lines, r'"type":"share".*"ell":0\}')
    return lines[:at] + [lines[at].replace('"ell":0}', '"ell":1}')] + lines[at + 1:]


def _professor_unenlightened(lines):
    pid = json.loads(lines[_first(lines, r'"type":"profess"')])["id"]
    return [line for line in lines
            if not re.search(rf'"id":{pid},"kind":"enlighten"', line)]


def _without(kind):
    def edit(lines):
        at = _first(lines, f'"kind":"{kind}"')
        return lines[:at] + lines[at + 1:]
    return edit


EDITS = {
    "sent-after-halting": _halt_before_a_send,
    "share-with-level": _leveled_share,
    "profess-unenlightened": _professor_unenlightened,
    "send-missing": _without("send"),
    "receive-missing": _without("receive"),
    "drop-missing": _without("drop"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_checker_matches_reference_on_real_traces(name):
    result = run(CONFIGS[name], collect_trace=True)
    assert _check_trace_invariants(result) == reference_check(result) == []


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_checker_matches_reference_on_broken_traces(edit):
    result = run(CONFIGS["lf-upfront"], collect_trace=True)
    broken = _with_lines(result, EDITS[edit](result.trace.lines))
    problems = _check_trace_invariants(broken)
    assert problems and problems == reference_check(broken)


def test_checker_matches_reference_on_unbalanced_ledger():
    result = run(CONFIGS["lf-upfront"], collect_trace=True)
    metrics = replace(result.metrics, messages_by_type={
        **result.metrics.messages_by_type, "share": result.metrics.messages_by_type["share"] + 1})
    broken = replace(result, metrics=metrics)
    assert _check_trace_invariants(broken) == reference_check(broken) == [
        "metrics conservation ledger unbalanced"]
