import math

import numpy as np
import pytest

from relsim.engine import rng_stream
from relsim.estimator import EstimationParams, gamma1
from relsim.knowledge import RecordPool
from relsim.protocol import (
    Messages,
    Population,
    ceil_log2,
    gossip_compute,
    gossip_receive,
    gossip_send,
    profess_fanout,
    query_compute,
    query_send,
    request_cap,
    response_compute,
    response_receive,
)
from relsim.streams import StreamWindow

from pool_records import records_for

PARAMS = EstimationParams(0.5, 0.1)
G1 = gamma1(PARAMS)


def make_pop(n=4):
    return Population.start(n, {})


def make_pool(n=4):
    return RecordPool(n, G1)


def ids(*pids):
    return np.array(pids, dtype=np.int64)


def draws(pop, seed, rnd, stage, active):
    return StreamWindow(seed, pop.n, rnd + 1).stage(rnd, stage, active)


def gossip(src, dst, level, profess):
    return Messages(ids(*src), ids(*dst), ids(*level), np.array(profess, dtype=bool))


def profess(src, dst, level):
    return gossip([src], [dst], [level], [True])


def share(src, dst):
    return gossip([src], [dst], [0], [False])


def fill_correct(pool, pop, plan, first_round=0):
    # Each ``pid: (target, count)`` of ``plan`` records ``count`` correct
    # results about ``target`` in consecutive rounds from ``first_round``,
    # appended round by round as the engine does.
    for k in range(max(count for _target, count in plan.values())):
        pids = sorted(pid for pid, (_target, count) in plan.items() if count > k)
        rnd = first_round + k
        pool.add_records(pids, rnd, [plan[pid][0] for pid in pids], [1] * len(pids))
        pop.known[pids, pids] = rnd


class TestPriority:
    # A profess resets the receiver's level when its (level, sender id) pair
    # is lexicographically greater than the receiver's own.
    def _reset_by(self, mine, theirs):
        (level, pid), (their_level, src) = mine, theirs
        pop = make_pop(16)
        pop.enlightened[pid] = True
        pop.level[pid] = level
        _, reset = gossip_receive(pop, ids(pid), profess(src, pid, their_level))
        return pid in reset.tolist()

    def test_level_dominates(self):
        assert self._reset_by((2, 9), (3, 1))

    def test_id_breaks_ties(self):
        assert self._reset_by((3, 1), (3, 7))

    def test_irreflexive(self):
        assert not self._reset_by((3, 7), (3, 7))


class TestHelpers:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (1024, 10), (1025, 11)])
    def test_ceil_log2(self, n, expected):
        assert ceil_log2(n) == expected

    def test_request_cap_floor_of_one(self):
        assert request_cap(1) == 1
        assert request_cap(1024) == 10

    @pytest.mark.parametrize("level,n,expected", [
        (0, 1024, 5),   # half-log seed fan-out
        (1, 1024, 10),
        (2, 1024, 20),
        (0, 2, 1),
        (5, 1, 1),
    ])
    def test_profess_fanout(self, level, n, expected):
        assert profess_fanout(level, n) == expected


class TestQuery:
    def test_single_processor_targets_itself(self):
        pop = make_pop(1)
        requests = query_send(pop, ids(0), draws(pop, 1, 0, "query", ids(0)))
        assert requests.src.tolist() == [0] and requests.dst.tolist() == [0]
        assert requests.rnd.tolist() == [0]

    def test_reproducible_target_sequence(self):
        def picks():
            pop = make_pop(16)
            return [int(query_send(pop, ids(3), draws(pop, 9, r, "query", ids(3))).dst[0])
                    for r in range(20)]
        fresh = [int(rng_stream(9, 3, r, "query").integers(16)) for r in range(20)]
        assert picks() == picks() == fresh

    def test_targets_uniform(self):
        pop = make_pop(16)
        active = np.arange(16)
        window = StreamWindow(77, 16, 6250)
        counts = np.zeros(16, dtype=int)
        for r in range(6250):
            dst = query_send(pop, active, window.stage(r, "query", active)).dst
            counts += np.bincount(dst, minlength=16)
        assert np.all(np.abs(counts - 6250) <= 300)

    def test_cap_subsets_large_inbox(self):
        pop = make_pop(1024)
        active = np.arange(14)
        requests = Messages(active, np.zeros(14, dtype=np.int64),
                            rnd=np.zeros(14, dtype=np.int64))
        plan = query_compute(pop, requests, draws(pop, 5, 0, "query", active),
                             np.ones(1024))
        assert len(plan) == 10
        served = plan.dst.tolist()
        assert sorted(served) == served
        assert set(served) <= set(range(14))
        assert set(plan.src.tolist()) == {0}

    def test_empty_inbox(self):
        pop = make_pop()
        none = Messages(ids(), ids(), rnd=ids())
        plan = query_compute(pop, none, draws(pop, 5, 0, "query", ids(0)), np.ones(4))
        assert len(plan) == 0

    def test_perfect_worker_all_correct(self):
        pop = make_pop(64)
        active = np.arange(5)
        requests = Messages(active, np.zeros(5, dtype=np.int64),
                            rnd=np.zeros(5, dtype=np.int64))
        plan = query_compute(pop, requests, draws(pop, 5, 0, "query", active),
                             np.ones(64))
        assert plan.dst.tolist() == list(range(5))
        assert plan.correct.tolist() == [True] * 5


class TestResponse:
    def _receive(self, answer):
        # Processor 1 asks 2 in round 0; the engine records the outcome and
        # gives 1 its own record.
        pool, pop = make_pool(), make_pop()
        requests = Messages(ids(1), ids(2), rnd=ids(0))
        responses = (Messages(ids(), ids(), correct=np.zeros(0, dtype=bool), rnd=ids())
                     if answer is None else
                     Messages(ids(2), ids(1), correct=np.array([answer]), rnd=ids(0)))
        res = response_receive(pop, requests, responses)
        pool.add_records(requests.src, requests.rnd, requests.dst, res)
        pop.known[1, 1] = 0
        return pool, pop, res

    def test_correct_response_recorded(self):
        pool, pop, res = self._receive(True)
        assert res.tolist() == [1]
        assert records_for(pool, pop.known[1], 2) == {(1, 1, 0)}

    def test_missing_response_records_crash_mark(self):
        pool, pop, res = self._receive(None)
        assert res.tolist() == [-1]
        assert {r.res for r in records_for(pool, pop.known[1], 2)} == {-1}

    def test_incorrect_response(self):
        _, _, res = self._receive(False)
        assert res.tolist() == [0]

    def test_enlightened_at_exact_threshold(self):
        n, needed = 2, math.ceil(G1)
        pool, pop = make_pool(n), make_pop(n)
        fill_correct(pool, pop, {0: (0, needed), 1: (1, needed)})
        pop.known[0] = np.maximum(pop.known[0], pop.known[1])
        assert response_compute(pop, ids(0, 1), pool).tolist() == [0]
        assert pop.enlightened.tolist() == [True, False]

    def test_not_enlightened_when_one_target_short(self):
        n, needed = 2, math.ceil(G1)
        pool, pop = make_pool(n), make_pop(n)
        fill_correct(pool, pop, {0: (0, needed), 1: (1, needed - 1)})
        pop.known[0] = np.maximum(pop.known[0], pop.known[1])
        assert response_compute(pop, ids(0), pool).size == 0
        assert not pop.enlightened[0]

    def test_crash_marks_settle_everything(self):
        n = 3
        pool, pop = make_pool(n), make_pop(n)
        for target in range(n):
            pool.add_records([0], target, [target], [-1])
            pop.known[0, 0] = target
        assert response_compute(pop, ids(0), pool).tolist() == [0]


class TestGossip:
    def test_unenlightened_sends_one_share(self):
        pop = make_pop(1024)
        out = gossip_send(pop, ids(0), draws(pop, 3, 0, "gossip", ids(0)))
        assert len(out) == 1
        assert not out.is_profess[0]
        assert out.level.tolist() == [0]
        assert out.dst[0] == rng_stream(3, 0, 0, "gossip").integers(1024)

    def test_enlightened_profess_fanout_and_level_bump(self):
        pop = make_pop(1024)
        pop.enlightened[0] = True
        pop.level[0] = 1
        out = gossip_send(pop, ids(0), draws(pop, 3, 0, "gossip", ids(0)))
        assert out.is_profess.all()
        assert out.level.tolist() == [1] * len(out)
        assert 1 <= len(out) <= 10  # 10 draws, deduplicated
        dests = out.dst.tolist()
        assert dests == sorted(set(dests))
        fresh = rng_stream(3, 0, 0, "gossip").integers(0, 1024, size=10)
        assert dests == np.unique(fresh).tolist()
        assert pop.level[0] == 2

    def test_snapshot_is_immutable_copy(self):
        # 0 gossips to 1 while 1 gossips to 2: 2 receives what 1 knew when
        # it sent, not what it learns from 0 in the same step.
        pop, pool = make_pop(3), make_pool(3)
        pop.known[0, 0] = 5
        pop.known[1, 1] = 3
        gossip_compute(pop, ids(0, 1, 2), gossip([0, 1], [1, 2], [0, 0],
                                                 [False, False]), pool)
        assert pop.known[1].tolist() == [5, 3, -1]
        assert pop.known[2].tolist() == [-1, 3, -1]
        assert pop.known[0].tolist() == [5, -1, -1]

    def test_profess_receipt_enlightens(self):
        pop = make_pop(8)
        enlightened_now, _ = gossip_receive(pop, ids(0), profess(3, 0, 0))
        assert enlightened_now.tolist() == [0] and pop.enlightened[0]

    def test_higher_priority_profess_resets_level(self):
        pop = make_pop(16)
        pop.enlightened[5], pop.level[5] = True, 3
        _, reset = gossip_receive(pop, ids(5), profess(9, 5, 3))
        assert reset.tolist() == [5] and pop.level[5] == 0

    def test_share_does_not_reset_by_default(self):
        pop = make_pop(16)
        pop.enlightened[5], pop.level[5] = True, 3
        _, reset = gossip_receive(pop, ids(5), share(9, 5))
        assert reset.size == 0 and pop.level[5] == 3

    def test_literal_reset_ranges_over_shares(self):
        # A share always carries level 0, so comparing against shares as
        # well could only reset an already-zero level: never an event.
        pop = make_pop(16)
        out = gossip_send(pop, ids(9), draws(pop, 1, 0, "gossip", ids(9)))
        assert out.level.tolist() == [0]
        _, reset = gossip_receive(pop, ids(5), share(9, 5))
        assert reset.size == 0 and pop.level[5] == 0

    def test_empty_inbox_no_change(self):
        pop = make_pop(16)
        pop.enlightened[5], pop.level[5] = True, 3
        now, reset = gossip_receive(pop, ids(5), gossip([], [], [], []))
        assert now.size == 0 and reset.size == 0
        assert pop.level[5] == 3

    def test_halt_on_profess_at_threshold(self):
        n = 4
        pool, pop = make_pool(n), make_pop(n)
        for target in range(n):
            fill_correct(pool, pop, {1: (target, math.ceil(G1))},
                         first_round=target * math.ceil(G1))
        halted = gossip_compute(pop, ids(0, 1), profess(1, 0, ceil_log2(n)), pool)
        assert halted.tolist() == [0] and pop.halted.tolist() == [True, False, False, False]
        assert not np.isnan(pop.estimates[0]).any()

    def test_share_below_threshold_merges_and_advances(self):
        n = 4
        pool, pop = make_pool(n), make_pop(n)
        fill_correct(pool, pop, {1: (2, 3)})
        halted = gossip_compute(pop, ids(0, 1), share(1, 0), pool)
        assert halted.size == 0 and not pop.halted.any()
        assert pop.known[0, 1] == pop.known[1, 1]
        assert len(records_for(pool, pop.known[0], 2)) == 3

    def test_merge_is_idempotent(self):
        n = 4
        pool, pop = make_pool(n), make_pop(n)
        fill_correct(pool, pop, {1: (2, 3)})
        gossip_compute(pop, ids(0, 1), gossip([1, 1], [0, 0], [0, 0], [False, False]),
                       pool)
        before = records_for(pool, pop.known[0], 2)
        gossip_compute(pop, ids(0, 1), share(1, 0), pool)
        assert records_for(pool, pop.known[0], 2) == before
