"""Windowed Philox draws against numpy Generators on the same keys.

Each decoder method must return exactly what the numpy calls it stands for
return on a fresh :func:`rng_stream` of every row's key, including the rows
it hands to the re-keyed fallback generator: Lemire rejections, more
requests than one Philox block serves, the request-cap ``choice``, profess
fan-outs beyond one block, and n = 1, whose ``integers(1)`` draws nothing.
"""

import numpy as np
import pytest

from relsim.streams import (
    RekeyedStream,
    StageDraws,
    StreamWindow,
    lemire,
    philox_first_block,
    rng_stream,
    stream_key,
)

SEED = 2024
HUGE_N = 2**30 + 1  # Lemire rejects about a quarter of first draws


def stage_draws(n, pids, rnd=3, stage="query", seed=SEED):
    pids = np.asarray(pids, dtype=np.int64)
    words = philox_first_block(seed, stream_key(seed, pids, rnd, stage)[1])
    return StageDraws(seed, rnd, stage, n, pids, words, RekeyedStream())


def fresh(pid, rnd=3, stage="query", seed=SEED):
    return rng_stream(seed, int(pid), rnd, stage)


def reference_serve(pid, n, requesters, cap, p):
    rng = fresh(pid)
    rng.integers(n)
    if len(requesters) > cap:
        requesters = np.sort(rng.choice(np.asarray(requesters), size=cap,
                                        replace=False))
    return [(int(r), rng.random() < p) for r in requesters]


def check_serve(n, groups, cap, p=0.6):
    """``groups`` maps a server pid to its ascending requesters."""
    pids = np.array(sorted(groups), dtype=np.int64)
    draws = stage_draws(n, pids)
    sizes = [len(groups[s]) for s in pids]
    starts = np.concatenate(([0], np.cumsum(sizes)))
    requesters = np.concatenate([np.asarray(groups[s], dtype=np.int64) for s in pids])
    served, rows, correct = draws.serve(np.arange(pids.size), starts, requesters,
                                        cap, np.full(pids.size, p))
    got = {}
    for r, row, c in zip(served.tolist(), rows.tolist(), correct.tolist()):
        got.setdefault(int(pids[row]), []).append((r, c))
    for s in pids.tolist():
        assert got.get(s, []) == reference_serve(s, n, groups[s], cap, p), s


def test_first_block_matches_random_raw():
    words = stream_key(SEED, np.arange(64), 7, "gossip")[1]
    blocks = philox_first_block(SEED, words)
    for pid in range(64):
        assert np.array_equal(blocks[pid], fresh(pid, 7, "gossip").bit_generator.random_raw(4))


@pytest.mark.parametrize("n", [1, 2, 3, 1000, HUGE_N])
def test_index_matches_integers(n):
    pids = np.arange(600)
    got = stage_draws(n, pids).index()
    assert got.tolist() == [int(fresh(pid).integers(n)) for pid in pids]


def test_huge_range_exercises_rejection():
    words = stage_draws(HUGE_N, np.arange(600)).words
    _, rejected = lemire(words[:, 0] & np.uint64(0xFFFFFFFF), HUGE_N)
    assert 0.15 < rejected.mean() < 0.35


def test_index_of_listed_rows():
    draws = stage_draws(HUGE_N, np.arange(40))
    rows = np.array([1, 5, 6, 30])
    assert draws.index(rows).tolist() == [int(fresh(r).integers(HUGE_N)) for r in rows]


@pytest.mark.parametrize("n", [1, 3, 16, HUGE_N])
def test_fanout_matches_unique_integers(n):
    pids = np.arange(300)
    k = np.array([1, 2, 5, 8, 9, 17, 40])[pids % 7]
    draws = stage_draws(n, pids, stage="gossip")
    rows, values = draws.fanout(pids, k)
    assert np.all(np.diff(rows) >= 0)
    for pid in pids.tolist():
        want = np.unique(fresh(pid, stage="gossip").integers(0, n, size=k[pid]))
        assert values[rows == pid].tolist() == want.tolist(), pid


def test_fanout_of_listed_rows_keeps_row_order():
    draws = stage_draws(64, np.arange(10), stage="gossip")
    rows, values = draws.fanout(np.array([2, 7, 9]), np.array([12, 3, 30]))
    assert sorted(set(rows.tolist())) == [2, 7, 9]
    assert np.all(np.diff(rows) >= 0)
    assert values[rows == 7].tolist() == np.unique(
        fresh(7, stage="gossip").integers(0, 64, size=3)).tolist()


def test_serve_single_processor():
    check_serve(1, {0: [0]}, cap=1)


def test_serve_n3_cap_overflow():
    # Three requests at one server of n=3, cap 2: the choice path.
    check_serve(3, {0: [0, 1, 2], 1: [0, 2], 2: [1]}, cap=2)


def test_serve_four_or_more_requests():
    groups = {s: list(range(s % 7 + 1)) for s in range(40)}
    check_serve(64, groups, cap=6)


def test_serve_cap_binds_in_a_large_population():
    groups = {s: list(range(0, 3 * (s % 6 + 1), 3)) for s in range(30)}
    check_serve(1024, groups, cap=4)


def test_serve_after_rejected_first_draw():
    groups = {s: [s, s + 1] for s in range(200)}
    check_serve(HUGE_N, groups, cap=30)


def test_window_spans_rounds_and_shrinking_live_set():
    window = StreamWindow(SEED, 300, last_round=100)
    everyone = np.arange(300)
    survivors = np.arange(0, 300, 7)
    for rnd, pids in [(0, everyone), (1, everyone), (2, survivors), (9, survivors),
                      (60, survivors)]:
        for stage in ("query", "gossip"):
            words = window.stage(rnd, stage, pids).words
            for row, pid in enumerate(pids.tolist()[:5]):
                raw = fresh(pid, rnd, stage).bit_generator.random_raw(4)
                assert np.array_equal(words[row], raw)
