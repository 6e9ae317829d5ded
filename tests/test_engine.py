import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relsim
from relsim import protocol
from relsim.adversary import (
    ConstantReliability,
    LinearFraction,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import (
    ConfigError,
    RunConfig,
    count_route,
    deliver,
    rng_stream,
    run,
)
from relsim.estimator import EstimationParams, gamma1
from relsim.metrics import RunMetrics
from relsim.protocol import Messages, Population
from relsim.streams import StreamWindow
from trace_events import events

PARAMS = EstimationParams(0.5, 0.1)


class TestRngStream:
    def test_same_key_identical(self):
        a = rng_stream(1, 2, 3, "query").random(100)
        b = rng_stream(1, 2, 3, "query").random(100)
        assert np.array_equal(a, b)

    def test_seed_changes_draws(self):
        a = rng_stream(1, 2, 3, "query").random(10)
        b = rng_stream(2, 2, 3, "query").random(10)
        assert not np.array_equal(a, b)

    def test_distinct_coordinates_distinct_streams(self):
        base = rng_stream(5, 1, 1, "query").random(8)
        for pid, rnd, stage in [(2, 1, "query"), (1, 2, "query"), (1, 1, "gossip")]:
            assert not np.array_equal(base, rng_stream(5, pid, rnd, stage).random(8))

    def test_independence_smoke(self):
        x = rng_stream(11, 0, 0, "query").random(100_000)
        y = rng_stream(11, 1, 0, "query").random(100_000)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.01

    def test_pool_matches_fresh_streams(self):
        # The windowed first blocks and the re-keyed fallback generator both
        # equal fresh streams of the same key.
        window = StreamWindow(99, 4, last_round=8)
        pids = np.arange(4)
        for rnd in (0, 3):
            for stage in ("query", "gossip"):
                draws = window.stage(rnd, stage, pids)
                for pid in range(4):
                    fresh = rng_stream(99, pid, rnd, stage)
                    assert np.array_equal(draws.words[pid],
                                          fresh.bit_generator.random_raw(4))
                    fresh = rng_stream(99, pid, rnd, stage).random(5)
                    assert np.array_equal(draws.exact(pid).random(5), fresh)

    @pytest.mark.parametrize("seed", [2**63 + 1, 2**64 - 1])
    def test_large_seeds_use_the_full_uint64_key(self, seed, recwarn):
        key = rng_stream(seed, 1, 2, "query").bit_generator.state["state"]["key"]
        assert int(key[0]) == seed
        window = StreamWindow(seed, 2, 4).stage(0, "query", np.arange(2))
        fresh = rng_stream(seed, 1, 0, "query").bit_generator.random_raw(4)
        assert np.array_equal(window.words[1], fresh)
        assert not recwarn.list

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError):
            rng_stream(seed, 0, 0, "query")
        with pytest.raises(ConfigError):
            run(RunConfig(n=2, params=PARAMS, seed=seed))


class TestDeliver:
    def _route(self, dst, pop, rnd, metrics):
        dst = np.array(dst, dtype=np.int64)
        sent = Messages(np.zeros_like(dst), dst, rnd=np.full_like(dst, rnd))
        delivered, dropped = deliver(sent, pop)
        count_route(sent, dropped, pop, metrics)
        return delivered, dropped

    def test_message_to_crashed_same_round_dropped(self):
        metrics = RunMetrics()
        pop = Population.start(2, {1: 3})
        delivered, dropped = self._route([1], pop, 3, metrics)
        assert len(delivered) == 0
        assert dropped.dst.tolist() == [1]
        assert metrics.dropped_to_crashed == 1

    def test_message_to_live_delivered(self):
        metrics = RunMetrics()
        delivered, dropped = self._route([1], Population.start(2, {}), 0, metrics)
        assert delivered.dst.tolist() == [1] and len(dropped) == 0
        assert metrics.delivered == 1

    def test_message_to_halted_dropped_separately(self):
        pop = Population.start(2, {})
        pop.halted[1] = True
        metrics = RunMetrics()
        _, dropped = self._route([1], pop, 0, metrics)
        assert dropped.dst.tolist() == [1]
        assert metrics.dropped_to_halted == 1 and metrics.dropped_to_crashed == 0

    def test_empty_batch(self):
        delivered, dropped = self._route([], Population.start(1, {}), 0, RunMetrics())
        assert len(delivered) == 0 and len(dropped) == 0


class TestInvariants:
    CONFIG = RunConfig(n=16, params=PARAMS, crash_pattern=UpfrontCrashes(), seed=3)

    def test_checked_run_passes(self):
        # Responses go only to active requesters, which lets the engine
        # count them as delivered without a drop pass.
        result = run(self.CONFIG, check_invariants=True)
        assert result.metrics.conservation_ok()

    def test_response_to_dead_worker_is_caught(self, monkeypatch):
        real = protocol.query_compute

        def misrouted(pop, requests, draws, p):
            responses = real(pop, requests, draws, p)
            responses.dst[:1] = np.flatnonzero(pop.crash_round == 0)[0]
            return responses

        monkeypatch.setattr(protocol, "query_compute", misrouted)
        with pytest.raises(AssertionError, match="dead processor"):
            run(self.CONFIG, check_invariants=True)

    def test_block_merge_that_shrinks_knowledge_is_caught(self, monkeypatch):
        # Only the merges of blocks of rounds lower an entry, each below its
        # value before the merge.
        real = protocol.merge_knowledge

        def shrinking(known, dst, src, rnd=None):
            if rnd is None or not len(dst):
                return real(known, dst, src, rnd)
            col = int(known[dst[0]].argmax())
            was = known[dst[0], col]
            real(known, dst, src, rnd)
            known[dst[0], col] = was - 1

        monkeypatch.setattr(protocol, "merge_knowledge", shrinking)
        with pytest.raises(AssertionError, match="knowledge shrank in rounds"):
            run(self.CONFIG, check_invariants=True)


class TestRun:
    def test_single_processor_hand_trace(self):
        # One perfect worker queries itself every round, accumulates one
        # correct record per round, becomes enlightened once the stopping
        # threshold is reached, professes to itself, and halts on receiving
        # its own profess (the halt level for n=1 is 0).
        result = run(RunConfig(n=1, params=PARAMS, seed=7), collect_trace=True)
        assert result.completion == "all_halted"
        needed = math.ceil(gamma1(PARAMS))
        assert result.metrics.per_processor_halt_round == [needed - 1]
        assert result.estimates[0][0] == gamma1(PARAMS) / (needed - 1)
        kinds = [(e.kind, e.round) for e in events(result.trace)]
        assert ("enlighten", needed - 1) in kinds
        assert ("halt", needed - 1) in kinds
        profess_sends = [e for e in events(result.trace)
                         if e.kind == "send" and e.payload["type"] == "profess"]
        assert len(profess_sends) == 1
        assert profess_sends[0].payload["to"] == 0

    def test_determinism_bit_identical(self):
        config = RunConfig(n=16, params=PARAMS, seed=5,
                           reliability=UniformReliability(0.5, 1.0))
        a = run(config, collect_trace=True)
        b = run(config, collect_trace=True)
        assert a.metrics.per_processor_halt_round == b.metrics.per_processor_halt_round
        assert a.metrics.messages_total == b.metrics.messages_total
        assert a.trace.lines == b.trace.lines
        for pid in a.estimates:
            assert np.array_equal(a.estimates[pid], b.estimates[pid],
                                  equal_nan=True)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            run(RunConfig(n=0, params=PARAMS))
        with pytest.raises(ConfigError):
            run(RunConfig(n=4, params=PARAMS, max_rounds=0))

    def test_round_cap_flagged_not_raised(self):
        result = run(RunConfig(n=8, params=EstimationParams(0.2, 0.05),
                               seed=1, max_rounds=5))
        assert result.completion == "round_cap_hit"
        assert result.metrics.rounds_to_all_halt == 5
        assert result.estimates == {}

    def test_all_halted_implies_live_halted_and_time_metric(self):
        config = RunConfig(n=32, params=PARAMS, model=LinearFraction(0.25),
                           crash_pattern=UpfrontCrashes(), seed=2)
        result = run(config)
        assert result.completion == "all_halted"
        crashed = set(result.schedule.crash_round)
        halt_rounds = result.metrics.per_processor_halt_round
        for pid in range(32):
            if pid in crashed:
                assert halt_rounds[pid] is None
            else:
                assert halt_rounds[pid] is not None
        max_halt = max(r for r in halt_rounds if r is not None)
        assert result.metrics.rounds_to_all_halt == max_halt + 1

    def test_work_bounded_by_nine_steps_per_round(self):
        result = run(RunConfig(n=16, params=PARAMS, seed=3))
        m = result.metrics
        assert m.work_steps <= 9 * 16 * m.rounds_to_all_halt

    def test_message_conservation(self):
        config = RunConfig(n=24, params=PARAMS, model=LinearFraction(0.5),
                           crash_pattern=UpfrontCrashes(), seed=4)
        result = run(config)
        assert result.metrics.conservation_ok()

    def test_no_send_after_halt(self):
        result = run(RunConfig(n=12, params=PARAMS, seed=6), collect_trace=True)
        halt_round = {}
        for event in events(result.trace):
            if event.kind == "halt":
                halt_round[event.id] = event.round
            if event.kind == "send" and event.id in halt_round:
                assert event.round <= halt_round[event.id]

    def test_crashed_send_nothing_from_crash_round(self):
        config = RunConfig(n=8, params=PARAMS, model=LinearFraction(0.5),
                           crash_pattern=UpfrontCrashes(), seed=9)
        result = run(config, collect_trace=True)
        crashed = set(result.schedule.crash_round)
        assert crashed
        for event in events(result.trace):
            if event.kind == "send":
                assert event.id not in crashed

    def test_literal_and_prose_level_reset_observationally_identical(self):
        # Shares always carry level 0, so widening the reset comparison to
        # all received gossip never changes behavior.
        base = RunConfig(n=16, params=PARAMS, seed=21,
                         reliability=UniformReliability(0.6, 1.0))
        literal = RunConfig(n=16, params=PARAMS, seed=21,
                            reliability=UniformReliability(0.6, 1.0),
                            literal_ell_reset=True)
        a = run(base, collect_trace=True)
        b = run(literal, collect_trace=True)
        assert a.metrics.per_processor_halt_round == b.metrics.per_processor_halt_round
        assert a.trace.lines == b.trace.lines

    def test_zero_crashes_zero_false_detections_when_cap_unbinding(self):
        result = run(RunConfig(n=64, params=PARAMS, seed=812))
        assert result.metrics.dropped_requests == 0
        assert result.metrics.false_crash_detections == 0

    def test_crash_event_emitted_once_per_victim(self):
        config = RunConfig(n=16, params=PARAMS, model=LinearFraction(0.5),
                           crash_pattern=UpfrontCrashes(), seed=13)
        result = run(config, collect_trace=True)
        crash_events = [e for e in events(result.trace) if e.kind == "crash"]
        assert sorted(e.id for e in crash_events) == sorted(result.schedule.crash_round)

    def test_default_round_caps(self):
        assert RunConfig(n=256, params=PARAMS).effective_max_rounds() == 64 * 8
        assert RunConfig(n=1, params=PARAMS).effective_max_rounds() == 64
        from relsim.adversary import FractionalPolynomial
        assert RunConfig(n=256, params=PARAMS,
                         model=FractionalPolynomial(0.5)).effective_max_rounds() == 2048

    def test_estimates_dtype_and_population(self):
        result = run(RunConfig(n=8, params=PARAMS, seed=1))
        for pid, est in result.estimates.items():
            assert est.shape == (8,)
            assert est.dtype == np.float64


def test_a_run_and_its_scoring_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma, about 12 ms, on its first call.  The run
    # serves past the request cap and its profess fan-outs outgrow one
    # Philox block, so the draws' exact paths run too.
    code = """
import sys
from relsim.adversary import LinearFraction, UpfrontCrashes
from relsim.engine import RunConfig, run
from relsim.estimator import EstimationParams
from relsim.metrics import accuracy
result = run(RunConfig(n=32, params=EstimationParams(0.5, 0.1), model=LinearFraction(0.25),
                       crash_pattern=UpfrontCrashes(), seed=1))
assert result.completion == "all_halted" and result.metrics.messages_by_type["profess"]
accuracy(result, result.truth, result.schedule, result.config.params)
print("numpy.ma" in sys.modules)
"""
    src = str(Path(relsim.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
