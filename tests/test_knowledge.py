import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.estimator import (
    UNDETERMINED,
    EstimationParams,
    estimation,
    gamma1,
)
from relsim.knowledge import RecordPool, empty_knowledge, merge_knowledge

PARAMS = EstimationParams(0.5, 0.1)
G1 = gamma1(PARAMS)


def test_empty_knowledge_knows_nothing():
    known = empty_knowledge(4)
    assert known.tolist() == [-1, -1, -1, -1]


def test_merge_is_elementwise_max():
    known = np.array([[3, -1, 5, 0], [1, 2, 9, -1]], dtype=np.int32)
    merge_knowledge(known, np.array([0]), np.array([1]))
    assert known[0].tolist() == [3, 2, 9, 0]
    # the sender's row is untouched
    assert known[1].tolist() == [1, 2, 9, -1]


def _random_pool(rng, n, rounds, crash_prob=0.02):
    """Pool populated the way the engine would: one record per creator-round."""
    pool = RecordPool(n, G1)
    last = np.full(n, -1, dtype=np.int32)
    for rnd in range(rounds):
        for creator in range(n):
            target = int(rng.integers(n))
            roll = rng.random()
            res = -1 if roll < crash_prob else (1 if roll < 0.7 else 0)
            pool.add_record(creator, rnd, target, res)
            last[creator] = rnd
    return pool, last


def _random_known(rng, last):
    known = empty_knowledge(len(last))
    for s in range(len(last)):
        known[s] = int(rng.integers(-1, last[s] + 2))
        known[s] = min(known[s], last[s])
    return known


@pytest.mark.parametrize("seed", range(5))
def test_estimate_all_matches_record_set_estimator(seed):
    rng = np.random.default_rng(seed)
    n = 6
    pool, last = _random_pool(rng, n, rounds=160)
    for _ in range(8):
        known = _random_known(rng, last)
        batch = pool.estimate_all(known)
        reference = estimation(pool.all_records_for(known), PARAMS)
        for j in range(n):
            if reference[j] is UNDETERMINED:
                assert math.isnan(batch[j])
            else:
                assert batch[j] == reference[j]


def test_satisfies_matches_brute_force():
    rng = np.random.default_rng(11)
    n = 5
    pool, last = _random_pool(rng, n, rounds=200, crash_prob=0.005)
    needed = pool.needed
    checked_true = checked_false = 0
    for _ in range(30):
        known = _random_known(rng, last)
        records = pool.all_records_for(known)
        expected = all(
            sum(1 for r in records[j] if r.res == 1) >= needed
            or any(r.res == -1 for r in records[j])
            for j in range(n)
        )
        if not pool.globally_estimable():
            expected = False
        got = pool.satisfies(known)
        assert got == expected
        checked_true += got
        checked_false += not got
    assert checked_true and checked_false


def test_satisfies_gate_blocks_before_global_estimability():
    pool = RecordPool(2, G1)
    pool.add_record(0, 0, 1, 1)
    full = np.array([0, -1], dtype=np.int32)
    assert not pool.globally_estimable()
    assert not pool.satisfies(full)


def test_records_round_trip():
    pool = RecordPool(3, G1)
    pool.add_record(0, 0, 2, 1)
    pool.add_record(1, 0, 2, 0)
    pool.add_record(2, 0, 1, -1)
    known = np.array([0, 0, -1], dtype=np.int32)
    assert pool.records_for(known, 2) == {(1, 0, 0), (0, 1, 0)}
    assert pool.records_for(known, 1) == set()
    known[2] = 0
    assert pool.records_for(known, 1) == {(-1, 2, 0)}


def test_snapshot_semantics_shared_message_not_mutated():
    # One row shipped to several destinations, one of which also sends:
    # every merge reads the rows as they were before the step.
    known = np.array([[2, 2, 2], [5, 0, 1], [0, 7, 0]], dtype=np.int32)
    merge_knowledge(known, np.array([1, 2, 1, 0]), np.array([0, 0, 0, 2]))
    assert known.tolist() == [[2, 7, 2], [5, 2, 2], [2, 7, 2]]


def test_merge_matches_rowwise_maximum():
    rng = np.random.default_rng(3)
    known = rng.integers(-1, 50, size=(12, 12)).astype(np.int32)
    dst = rng.integers(0, 12, size=60)
    src = rng.integers(0, 12, size=60)
    expected = known.copy()
    for d in range(12):
        rows = src[dst == d]
        if rows.size:
            expected[d] = np.maximum(known[d], known[rows].max(axis=0))
    merge_knowledge(known, dst, src)
    assert np.array_equal(known, expected)


def test_add_records_matches_one_at_a_time():
    rng = np.random.default_rng(5)
    batched, single = RecordPool(6, G1), RecordPool(6, G1)
    for rnd in range(120):
        creators = np.flatnonzero(rng.random(6) < 0.8)
        targets = rng.integers(0, 6, size=creators.size)
        res = rng.choice([-1, 0, 1, 1, 1], size=creators.size, p=[0.01, 0.2, 0.27, 0.26, 0.26])
        batched.add_records(creators, rnd, targets, res)
        for c, t, r in zip(creators, targets, res):
            single.add_record(int(c), rnd, int(t), int(r))
        assert batched._settle_order == single._settle_order
        assert batched._num_settled == single._num_settled
        assert np.array_equal(batched._global_crash, single._global_crash)
    assert len(batched) == len(single)
    known = np.full(6, 119, dtype=np.int32)
    assert np.array_equal(batched.estimate_all(known), single.estimate_all(known),
                          equal_nan=True)
