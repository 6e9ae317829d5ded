"""Criterion 7's trace checker against a checker that parses every line,
and the digest that compares a run with its replay.

``TraceChecker`` is a trace sink: it checks a run's trace batches as they
stream, with no text.  ``reference_check`` parses every line of the rendered
trace into a ``TraceEvent``.  They must report the same problems on real
traces and on traces edited to break each invariant, which reach the
checker as one-line batches.
"""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from relsim.acceptance import TraceChecker, fold_batch
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
from relsim.trace import CODED_COLUMNS, CODES, Batch, TraceCollector
from trace_events import events

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
    for ev in events(trace):
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


def _batches(lines) -> list[Batch]:
    """Trace ``lines`` as one-line batches."""
    batches = []
    for line in lines:
        record = json.loads(line)
        head = [record.pop(key) for key in ("seq", "round", "stage", "step", "kind")]
        pid = record.pop("id")
        del record["v"]
        batches.append(Batch(*head, np.array([pid]), {
            key: np.array([CODES.index(value) if key in CODED_COLUMNS else value])
            for key, value in record.items()}))
    return batches


def _with_lines(result, lines):
    """``result`` holding a trace of ``lines``, as one-line batches."""
    trace = TraceCollector()
    trace.batches.extend(_batches(lines))
    assert trace.lines == lines
    return replace(result, trace=trace)


def _traced(config):
    """A run whose trace goes to held batches and to a checker sink."""
    held, checker = TraceCollector(), TraceChecker(config.n)
    result = run(config, trace_sink=lambda batch: (held.batches.append(batch),
                                                   checker(batch)))
    return replace(result, trace=held), checker


def _checked_lines(result, lines) -> list[str]:
    """The checker's problems with trace ``lines``, fed as one-line batches."""
    checker = TraceChecker(result.config.n)
    for batch in _batches(lines):
        checker(batch)
    return checker.problems(result.metrics)


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
    result, checker = _traced(CONFIGS[name])
    assert checker.problems(result.metrics) == reference_check(result) == []
    assert _checked_lines(result, result.trace.lines) == []


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_checker_matches_reference_on_broken_traces(edit):
    result, _ = _traced(CONFIGS["lf-upfront"])
    lines = EDITS[edit](result.trace.lines)
    problems = _checked_lines(result, lines)
    assert problems and problems == reference_check(_with_lines(result, lines))


def test_checker_matches_reference_on_unbalanced_ledger():
    result, checker = _traced(CONFIGS["lf-upfront"])
    metrics = replace(result.metrics, messages_by_type={
        **result.metrics.messages_by_type, "share": result.metrics.messages_by_type["share"] + 1})
    broken = replace(result, metrics=metrics)
    assert checker.problems(metrics) == reference_check(broken) == [
        "metrics conservation ledger unbalanced"]


def _digest(batches) -> bytes:
    sha = hashlib.sha256()
    for batch in batches:
        fold_batch(sha, batch)
    return sha.digest()


def _edits(batch):
    """``batch`` with one field, column name or value changed, each way."""
    for i, field in enumerate(batch[:5]):
        yield batch._replace(**{batch._fields[i]: field + (1 if isinstance(field, int) else "x")})
    for key in batch.columns:
        yield batch._replace(columns={("x" if k == key else k): v
                                      for k, v in batch.columns.items()})
    ids = batch.ids.copy()
    ids[-1] += 1
    yield batch._replace(ids=ids)
    for key, values in batch.columns.items():
        values = np.array(values, copy=True)
        values.flat[-1] += 1
        yield batch._replace(columns={**batch.columns, key: values})


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_batch_digest_sees_every_field_and_value(name):
    batches = run(CONFIGS[name], collect_trace=True).trace.batches
    again = run(CONFIGS[name], collect_trace=True).trace.batches
    digest = _digest(batches)
    assert _digest(again) == digest
    # The last batch of each (stage, kind): sends carry code and int
    # columns, gossip sends a level too, and drops a reason.
    picked = {(b.stage, b.kind): i for i, b in enumerate(batches)}
    assert {("query", "send"), ("gossip", "send")} <= set(picked)
    for i in picked.values():
        edited = list(_edits(batches[i]))
        assert len(edited) == 6 + 2 * len(batches[i].columns)
        for batch in edited:
            assert _digest([*batches[:i], batch, *batches[i + 1:]]) != digest
