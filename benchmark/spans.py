"""Per-layer spans recorded around the calls the engine makes into each layer.

:class:`SpanRecorder` replaces each function in :data:`TARGETS` by a wrapper
that records one span per call (name, start, end, parent span) and puts the
originals back when the traced run ends, so nothing under ``src/relsim``
changes.  A wrapper is installed where the caller looks the name up: the
engine calls the protocol steps through the ``protocol`` module, but it
imported ``assign_probabilities`` and ``generate_crash_schedule`` into its own
namespace, and the protocol imported ``merge_knowledge`` into its own.

Self time of a span is its duration minus the durations of its direct
children.  Spans are kept in flat arrays until :meth:`SpanRecorder.drain`
folds them into per-name totals, which the benchmark does after each
operation.
"""

from __future__ import annotations

from array import array
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

import numpy as np

from relsim import engine, harness, knowledge, metrics, protocol, trace


def _satisfies(counts, args, result):
    counts["knowledge.satisfies.true"] += bool(result)


def _deliver(counts, args, result):
    counts["engine.deliver.messages"] += len(args[0])
    counts["engine.deliver.dropped"] += len(result[1])


def _query_compute(counts, args, result):
    counts["protocol.query_compute.requests"] += len(args[1])
    counts["protocol.query_compute.tasks"] += len(result)


# (span name, object holding the name the caller looks up, attribute, counter)
TARGETS = (
    ("engine.run", engine, "run", None),
    ("engine.deliver", engine, "deliver", _deliver),
    ("protocol.query_send", protocol, "query_send", None),
    ("protocol.query_compute", protocol, "query_compute", _query_compute),
    ("protocol.response_receive", protocol, "response_receive", None),
    ("protocol.response_compute", protocol, "response_compute", None),
    ("protocol.gossip_send", protocol, "gossip_send", None),
    ("protocol.gossip_receive", protocol, "gossip_receive", None),
    ("protocol.gossip_compute", protocol, "gossip_compute", None),
    ("knowledge.merge_knowledge", protocol, "merge_knowledge", None),
    ("knowledge.RecordPool.add_record", knowledge.RecordPool, "add_record", None),
    ("knowledge.RecordPool.satisfies", knowledge.RecordPool, "satisfies", _satisfies),
    ("knowledge.RecordPool.estimate_all", knowledge.RecordPool, "estimate_all", None),
    ("adversary.assign_probabilities", engine, "assign_probabilities", None),
    ("adversary.generate_crash_schedule", engine, "generate_crash_schedule", None),
    ("metrics.RunMetrics.account_step", metrics.RunMetrics, "account_step", None),
    ("metrics.accuracy", metrics, "accuracy", None),
    ("trace.TraceCollector.emit", trace.TraceCollector, "emit", None),
    ("harness.write_trace", harness, "write_trace", None),
    ("harness.render_trace", harness, "render_trace", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


def originals() -> list:
    """The objects currently bound at every target, for before/after checks."""
    return [vars(owner)[attr] for _name, owner, attr, _count in TARGETS]


class SpanRecorder:
    """Records spans while installed; :meth:`drain` folds them into totals."""

    def __init__(self):
        self._name = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()

    def _wrap(self, index: int, fn, count):
        name, parent, start, end = self._name, self._parent, self._start, self._end
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        """Wrap every target for the body of the ``with`` block."""
        saved = []
        try:
            for index, (_name, owner, attr, count) in enumerate(TARGETS):
                fn = vars(owner)[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(index, fn, count))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def _fold(self):
        names = np.array(self._name, dtype=np.int64)
        parents = np.array(self._parent, dtype=np.int64)
        duration = np.array(self._end) - np.array(self._start)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=len(duration))
        self_time = np.bincount(names, weights=duration - children,
                                minlength=len(TARGETS))
        return np.bincount(names, minlength=len(TARGETS)), self_time

    def drain(self) -> None:
        """Fold the recorded spans into per-name calls and self time."""
        if not self._start:
            return
        if len(self._stack) > 1:
            raise RuntimeError("drain() called while a span is still open")
        calls, self_time = self._fold()
        for index, span in enumerate(SPAN_NAMES):
            self.calls[span] += int(calls[index])
            self.self_s[span] += float(self_time[index])
        for buf in (self._name, self._parent, self._start, self._end):
            del buf[:]
