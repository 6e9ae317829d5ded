import copy
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
from relsim import knowledge
from relsim.knowledge import RecordPool, empty_knowledge, merge_knowledge

from pool_records import all_records_for, records_for

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
        reference = estimation(all_records_for(pool, known), PARAMS)
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
        records = all_records_for(pool, known)
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
    assert records_for(pool, known, 2) == {(1, 0, 0), (0, 1, 0)}
    assert records_for(pool, known, 1) == set()
    known[2] = 0
    assert records_for(pool, known, 1) == {(-1, 2, 0)}


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


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), start=st.integers(0, 4), width=st.integers(2, 7),
       data=st.data())
def test_block_merge_matches_round_by_round(n, start, width, data):
    # A block of rounds as the engine steps one: each processor live in a
    # round shares with one peer (itself allowed) or its share is lost, and
    # processors crash inside the block.  The reference writes each round's
    # own records, then merges the round; the block merge writes the own
    # records once, at the end.
    end = start + width
    crash = np.array(data.draw(st.lists(st.integers(start, end), min_size=n, max_size=n)))
    known = np.array(data.draw(st.lists(st.integers(-1, start - 1), min_size=n * n,
                                        max_size=n * n)), dtype=np.int16).reshape(n, n)
    # A draw of n loses the share.
    picks = data.draw(st.lists(st.integers(0, n), min_size=width * n, max_size=width * n))
    shares = [(r, s, d) for (r, s), d in zip(
        ((r, s) for r in range(start, end) for s in range(n)), picks)
        if crash[s] > r and d < n and crash[d] > r]
    rnd, src, dst = np.array(shares, dtype=np.int64).reshape(-1, 3).T

    expected = known.copy()
    for r in range(start, end):
        acting = np.flatnonzero(crash > r)
        expected[acting, acting] = r
        merge_knowledge(expected, dst[rnd == r], src[rnd == r])
    active = np.flatnonzero(crash > start)
    merge_knowledge(known, dst, src, rnd)
    known[active, active] = np.minimum(crash[active], end) - 1
    assert np.array_equal(known, expected)

    # Each run writes a row in one round only and reads no row it wrote.
    cuts = knowledge.snapshot_runs(dst, src, rnd)
    assert cuts[0] == 0 and cuts[-1] == len(dst) and cuts == sorted(set(cuts))
    for lo, hi in zip(cuts, cuts[1:]):
        first_write = {}
        for r, s, d in zip(rnd[lo:hi].tolist(), src[lo:hi].tolist(), dst[lo:hi].tolist()):
            assert first_write.setdefault(d, r) == r
            assert first_write.get(s, r) == r


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 7), rnd=st.integers(0, 4), data=st.data())
def test_one_round_merge_of_fanouts_matches_own_records_first(n, rnd, data):
    # A round after the pool settles, as the engine steps one: each live
    # processor sends to a set of live destinations, itself allowed, as a
    # profess does (one destination is a share).  The reference writes the
    # round's own records, then merges as one snapshot; the block merge
    # writes them after.
    crash = np.array(data.draw(st.lists(st.integers(rnd, rnd + 1), min_size=n, max_size=n)))
    known = np.array(data.draw(st.lists(st.integers(-1, rnd - 1), min_size=n * n,
                                        max_size=n * n)), dtype=np.int16).reshape(n, n)
    live = np.flatnonzero(crash > rnd)
    messages = [(s, d) for s in live.tolist() for d in live.tolist() if data.draw(st.booleans())]
    src, dst = np.array(messages, dtype=np.int64).reshape(-1, 2).T

    expected = known.copy()
    expected[live, live] = rnd
    merge_knowledge(expected, dst, src)
    rounds = np.full(len(dst), rnd)
    merge_knowledge(known, dst, src, rounds)
    known[live, live] = rnd
    assert np.array_equal(known, expected)
    cuts = knowledge.snapshot_runs(dst, src, rounds)
    assert cuts == ([0, len(dst)] if len(dst) else [0])


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
        for name in ("_total", "_total_correct", "_first_crash", "_cross_round",
                     "_cross_value", "_last"):
            assert np.array_equal(getattr(batched, name), getattr(single, name),
                                  equal_nan=True), name
        assert batched.globally_estimable() == single.globally_estimable()
    assert len(batched) == len(single)
    known = np.full(6, 119, dtype=np.int32)
    assert np.array_equal(batched.estimate_all(known), single.estimate_all(known),
                          equal_nan=True)


def test_out_of_order_append_raises():
    pool = RecordPool(3, G1)
    pool.add_records([0, 2], 4, [1, 1], [1, 1])
    with pytest.raises(ValueError):
        pool.add_records([1], 3, [0], [1])  # round goes backwards
    with pytest.raises(ValueError):
        pool.add_records([1], 4, [0], [1])  # creator 1 after creator 2 in round 4
    with pytest.raises(ValueError):
        pool.add_records([2, 0], 5, [0, 0], [1, 1])  # creators descend in a round
    with pytest.raises(ValueError):
        pool.add_records([1, 1], 5, [0, 0], [1, 1])  # one creator twice in a round
    assert len(pool) == 2
    pool.add_records([0, 1, 2], 5, [0, 0, 0], [1, 0, -1])
    assert len(pool) == 5


SMALL = EstimationParams(0.9, 0.5)  # needs 11 correct results per target


def _brute_satisfies(pool, known):
    return all(
        sum(r.res == 1 for r in records) >= pool.needed
        or any(r.res == -1 for r in records)
        for records in all_records_for(pool, known)
    )


def _assert_estimates_match(pool, known):
    batch = pool.estimate_all(known)
    reference = estimation(all_records_for(pool, known), SMALL)
    for j, want in enumerate(reference):
        if want is UNDETERMINED:
            assert math.isnan(batch[j])
        else:
            assert batch[j] == want


def _rows(rng, last):
    """Knowledge rows near the cut's edge cases: fully known, lagging every
    creator by 0-20 rounds, and one creator far behind the rest."""
    n = len(last)
    rows = [last.copy()]
    for _ in range(3):
        lag = rng.integers(0, rng.integers(0, 21) + 1, size=n)
        rows.append(np.maximum(last - lag, -1))
    for _ in range(2):
        row = last.copy()
        s = int(rng.integers(n))
        row[s] = int(rng.integers(-1, last[s] + 1))
        rows.append(row)
    return np.array(rows, dtype=np.int32)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       rounds=st.integers(1, 90), skip=st.sampled_from([0.0, 0.2, 0.6]),
       crash=st.sampled_from([0.0, 0.01, 0.05]))
def test_cut_queries_match_brute_force(seed, n, rounds, skip, crash):
    # Pools built round by round, creators skipping rounds, queried at
    # checkpoints along the way and compared with the record sets.
    rng = np.random.default_rng(seed)
    pool = RecordPool(n, gamma1(SMALL))
    last = np.full(n, -1, dtype=np.int32)
    checkpoints = set(rng.integers(0, rounds, size=3).tolist()) | {rounds - 1}
    for rnd in range(rounds):
        creators = np.flatnonzero(rng.random(n) >= skip)
        roll = rng.random(creators.size)
        res = np.where(roll < crash, -1, np.where(roll < 0.65, 1, 0))
        pool.add_records(creators, rnd, rng.integers(0, n, size=creators.size), res)
        last[creators] = rnd
        if rnd not in checkpoints:
            continue
        rows = _rows(rng, last)
        assert pool.globally_estimable() == _brute_satisfies(pool, rows[0])
        got = pool.satisfied(rows)
        assert got.tolist() == [_brute_satisfies(pool, k) for k in rows]
        assert [pool.satisfies(k) for k in rows] == got.tolist()
        batch = pool.estimate_all(rows)
        assert got.tolist() == (~np.isnan(batch).any(axis=1)).tolist()
        for known, estimates in zip(rows, batch):
            assert np.array_equal(estimates, pool.estimate_all(known), equal_nan=True)
            _assert_estimates_match(pool, known)


def test_cut_queries_match_brute_force_across_row_blocks(monkeypatch):
    # Eight cells per block: satisfied and estimate_all take a batch's rows
    # a few at a time, or one at a time once a suffix has more records.
    monkeypatch.setattr(knowledge, "_MASK_CELLS", 8)
    test_cut_queries_match_brute_force()


FACTS = ("_total", "_total_correct", "_first_crash", "_cross_round", "_cross_value",
         "_last")


def _assert_same_facts(pool, other):
    assert len(pool) == len(other)
    for name in FACTS:
        assert np.array_equal(getattr(pool, name), getattr(other, name),
                              equal_nan=True), name
    assert pool.globally_estimable() == other.globally_estimable()
    assert pool._tail == other._tail


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       rounds=st.integers(1, 80), skip=st.sampled_from([0.0, 0.2, 0.6]),
       crash=st.sampled_from([0.0, 0.01, 0.05]), loose=st.booleans())
def test_multi_round_add_matches_round_by_round(seed, n, rounds, skip, crash, loose):
    # The same records added round by round, one at a time, and in blocks
    # of consecutive rounds with a round per record.
    rng = np.random.default_rng(seed)
    params = EstimationParams(0.9, 0.45) if loose else SMALL
    by_round, one_by_one, blocked = (RecordPool(n, gamma1(params)) for _ in range(3))
    records = []
    for rnd in range(rounds):
        creators = np.flatnonzero(rng.random(n) >= skip)
        roll = rng.random(creators.size)
        res = np.where(roll < crash, -1, np.where(roll < 0.65, 1, 0))
        records.append((creators, np.full(creators.size, rnd),
                        rng.integers(0, n, size=creators.size), res))
    edges = sorted({0, rounds, *rng.integers(0, rounds, size=4).tolist()})
    for lo, hi in zip(edges, edges[1:]):
        creators, rnd, targets, res = (np.concatenate(column)
                                       for column in zip(*records[lo:hi]))
        settles = None
        for r in range(lo, hi):
            round_creators, _, round_targets, round_res = records[r]
            by_round.add_records(round_creators, r, round_targets, round_res)
            for c, t, v in zip(round_creators.tolist(), round_targets.tolist(),
                               round_res.tolist()):
                one_by_one.add_record(c, r, t, v)
            if settles is None and by_round.globally_estimable():
                settles = r
        if not blocked.globally_estimable():
            assert blocked.settling_round(rnd, targets, res) == settles
        # Out of (round, creator) order: the block reversed, its first
        # record twice, and the newest record already added.  Each is
        # rejected whole.
        bad = []
        if creators.size > 1:
            bad.append((creators[::-1], rnd[::-1]))
        if creators.size:
            bad.append((creators[[0, 0]], rnd[[0, 0]]))
        if len(blocked):
            bad.append((blocked._src[len(blocked) - 1:len(blocked)],
                        blocked._rnd[len(blocked) - 1:len(blocked)]))
        kept = copy.deepcopy(blocked)
        for bad_creators, bad_rnd in bad:
            size = bad_creators.size
            with pytest.raises(ValueError):
                blocked.add_records(bad_creators, bad_rnd, np.zeros(size, dtype=int),
                                    np.ones(size, dtype=int))
            _assert_same_facts(blocked, kept)
        before = len(blocked)
        blocked.add_records(creators, rnd, targets, res)
        assert len(blocked) == before + creators.size
        _assert_same_facts(blocked, by_round)
        _assert_same_facts(blocked, one_by_one)
    last = np.full(n, rounds - 1, dtype=np.int32)
    assert np.array_equal(blocked.estimate_all(last), by_round.estimate_all(last),
                          equal_nan=True)


def _first_target_crossed():
    """A pool of two workers whose target 0 crossed in round ``needed - 1``
    and whose target 1 has no records."""
    pool = RecordPool(2, gamma1(SMALL))
    for rnd in range(pool.needed):
        pool.add_records([0], rnd, [0], [1])
    return pool


def test_settling_round_none_while_a_target_stays_open():
    # Target 1 gets correct records short of the threshold and no crash
    # record; target 0, settled already, gets a crash record.
    pool = _first_target_crossed()
    r = pool.needed
    rnd, tgt, res = np.array([r, r, r + 1, r + 1]), [1, 0, 1, 0], [1, -1, 1, 0]
    assert pool.settling_round(rnd, np.array(tgt), np.array(res)) is None
    pool.add_records([0, 1], r, tgt[:2], res[:2])
    pool.add_records([0, 1], r + 1, tgt[2:], res[2:])
    assert not pool.globally_estimable()


def test_settling_round_at_a_crash_record_of_the_last_open_target():
    # Target 1, the last open one, gets one correct record and then, in
    # round r + 1, a crash record; the block goes on to round r + 2.
    pool = _first_target_crossed()
    r = pool.needed
    rnd, tgt, res = np.array([r, r + 1, r + 2, r + 2]), [1, 1, 0, 1], [1, -1, 1, -1]
    assert pool.settling_round(rnd, np.array(tgt), np.array(res)) == r + 1
    pool.add_records([0], r, tgt[:1], res[:1])
    assert not pool.globally_estimable()
    pool.add_records([1], r + 1, tgt[1:2], res[1:2])
    assert pool.globally_estimable()


@pytest.mark.parametrize("plan, settles, cross, before, crash", [
    ([(1, -1)] + [(1, 1)] * 5, 0, 5, 11, 0),
    ([(1, 1)] * 5 + [(1, 0), (0, -1)], 5, 5, 10, 6),
    ([(1, 1)] * 5 + [(-1, 1)], 5, 5, 11, 5),
    ([(1, 1)] * 5 + [(1, -1)], 5, 5, 10, 5),
], ids=["crash-then-cross", "cross-then-crash", "crash-and-cross", "cross-and-crash"])
def test_crossing_and_crash_records_of_the_last_open_target(plan, settles, cross,
                                                            before, crash):
    # In round r + i, creators 0 and 1 report the res values plan[i] about
    # target 1, the last open one.  Target 1 settles in round r + settles,
    # crosses the threshold in round r + cross with ``before`` of its records
    # before the crossing record, and is first reported crashed in round
    # r + crash.
    blocked, by_round = _first_target_crossed(), _first_target_crossed()
    r = blocked.needed
    rnd = np.repeat(np.arange(r, r + len(plan)), 2)
    creators, tgt, res = np.tile([0, 1], len(plan)), np.ones_like(rnd), np.ravel(plan)
    first = None
    for i, pair in enumerate(plan):
        by_round.add_records([0, 1], r + i, [1, 1], pair)
        if first is None and by_round.globally_estimable():
            first = r + i
    assert first == r + settles
    assert blocked.settling_round(rnd, tgt, res) == r + settles
    blocked.add_records(creators, rnd, tgt, res)
    assert (blocked._cross_round[1], blocked._first_crash[1]) == (r + cross, r + crash)
    assert blocked._cross_value[1] == blocked.gamma1 / before
    _assert_same_facts(blocked, by_round)
