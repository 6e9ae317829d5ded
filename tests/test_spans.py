"""The benchmark's per-layer spans wrap names looked up in ``relsim``.

``benchmark/spans.py`` installs a wrapper at every ``(owner, attribute)`` of
its ``TARGETS`` and raises ``KeyError`` on one that is gone, so a name it
wraps must stay bound where the caller looks it up.  Its counters read the
arguments and results of ``deliver`` and ``query_compute``.
"""

import importlib.util
from pathlib import Path

import pytest

from relsim import engine
from relsim.adversary import FractionalPolynomial, SpreadCrashes
from relsim.engine import RunConfig
from relsim.estimator import EstimationParams

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_is_bound():
    spans = _spans()
    missing = [name for name, owner, attr, _count in spans.TARGETS
               if not callable(vars(owner).get(attr))]
    assert not missing, f"span targets no longer bound: {missing}"


def _traced(spans, config):
    recorder = spans.SpanRecorder()
    bound = spans.originals()
    with recorder.installed():
        result = engine.run(config)
    recorder.drain()
    assert spans.originals() == bound
    return recorder, result.metrics


@pytest.mark.parametrize("max_rounds", [None, 30])
def test_span_counters_run_around_a_run_with_spread_crashes(max_rounds):
    # Without a cap the pool settles, cutting a block of rounds whose query
    # stage ran past the cut; a cap of 30 stops the run inside its first
    # block, before settlement, so every routed message is counted once.
    spans = _spans()
    config = RunConfig(n=10, params=EstimationParams(0.8, 0.4),
                       model=FractionalPolynomial(0.5), crash_pattern=SpreadCrashes(40),
                       seed=8, max_rounds=max_rounds)
    recorder, metrics = _traced(spans, config)
    assert recorder.calls["engine.run"] == 1
    for name in ("engine.deliver", "protocol.query_send", "protocol.query_compute",
                 "protocol.response_receive", "protocol.gossip_send"):
        assert 0 < recorder.calls[name] < metrics.rounds_to_all_halt, name
    # One merge per block: a block of rounds merges its shares in one call.
    assert recorder.calls["knowledge.merge_knowledge"] == recorder.calls["protocol.gossip_send"]
    counts = recorder.counts
    routed = metrics.messages_total - metrics.messages_by_type["task_response"]
    dropped = metrics.dropped_to_crashed + metrics.dropped_to_halted
    served = metrics.tasks_executed + metrics.dropped_requests
    got = (counts["engine.deliver.messages"], counts["engine.deliver.dropped"],
           counts["protocol.query_compute.requests"])
    if max_rounds is None:
        assert all(a >= b for a, b in zip(got, (routed, dropped, served)))
    else:
        assert got == (routed, dropped, served)
    assert dropped > 0
