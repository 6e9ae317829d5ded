"""Keyed random streams and their whole-population evaluation.

Every random draw of a run comes from a Philox4x64-10 stream keyed by
``(seed, processor, round, stage)`` (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  Philox is counter-based, so the first
block of 64-bit words of many streams can be computed at once with array
operations; :class:`StreamWindow` does this for every live processor and the
next few rounds in one call.

:class:`StageDraws` decodes those words exactly as ``numpy.random.Generator``
would: ``integers(n)`` is Lemire's multiply-shift on 32-bit halves of words
(Lemire, "Fast random integer generation in an interval", TOMACS 2019), low
half first, and ``random()`` is ``(word >> 11) * 2**-53``.  Rows whose draws
fall outside the first block, or hit Lemire's rejection, are replayed through
an exact re-keyed ``Generator``, so every value is bit-identical to a fresh
:func:`rng_stream` consumed in the same order.
"""

from __future__ import annotations

import numpy as np

STAGE_CODE = {"query": 0, "response": 1, "gossip": 2}

SEED_LIMIT = 1 << 64

# Philox4x64 multipliers and Weyl key increments.
_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_W0 = np.uint64(0x9E3779B97F4A7C15)
_W1 = np.uint64(0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_ROUNDS = 10

# Keys evaluated per window: the cost of one vectorized call is flat up to a
# few hundred keys, so windows batch rounds until about this many.
_WINDOW_KEYS = 4096
# 32-bit values in one Philox block, and the 53-bit doubles after word 0.
_HALVES = 8
_DOUBLES = 3


def stream_key(seed: int, pid, rnd, stage) -> tuple[np.uint64, np.ndarray]:
    """Philox key ``(seed, pid << 34 | rnd << 4 | stage)`` as uint64 words.

    ``pid`` and ``rnd`` may be integer arrays; the second word then has their
    broadcast shape.  The one place where stream keys are built.
    """
    code = STAGE_CODE.get(stage, stage)
    if not isinstance(code, (int, np.integer)) or not 0 <= code < 16:
        raise ValueError(f"invalid stage {stage!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if isinstance(pid, (int, np.integer)) and isinstance(rnd, (int, np.integer)):
        pid, rnd = int(pid), int(rnd)
        if not (0 <= pid < 1 << 30 and 0 <= rnd < 1 << 30):
            raise ValueError("processor id and round must fit in 30 bits")
        return np.uint64(seed), np.uint64((pid << 34) | (rnd << 4) | code)
    pid = np.asarray(pid, dtype=np.int64)
    rnd = np.asarray(rnd, dtype=np.int64)
    if np.any((pid < 0) | (pid >= 1 << 30) | (rnd < 0) | (rnd >= 1 << 30)):
        raise ValueError("processor id and round must fit in 30 bits")
    word = (pid.astype(np.uint64) << np.uint64(34)) | (
        rnd.astype(np.uint64) << np.uint64(4)) | np.uint64(code)
    return np.uint64(seed), word


def rng_stream(seed: int, pid: int, rnd: int, stage) -> np.random.Generator:
    """Independent random stream for one (seed, processor, round, stage) key.

    Counter-based (Philox), so construction is O(1) and streams for distinct
    keys are independent by design.  Draws within a stage are consumed in a
    fixed documented order, which keeps whole-population execution
    observationally identical to a sequential per-processor one.
    """
    key0, key1 = stream_key(seed, pid, rnd, stage)
    return np.random.Generator(
        np.random.Philox(key=np.array([key0, key1], dtype=np.uint64)))


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Full 64x64 -> 128-bit product from 32-bit limbs.
    a_lo, a_hi = a & _LO32, a >> _U32
    b_lo, b_hi = b & _LO32, b >> _U32
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    cross = (lo_lo >> _U32) + (hi_lo & _LO32) + a_lo * b_hi
    hi = a_hi * b_hi + (hi_lo >> _U32) + (cross >> _U32)
    return hi, (cross << _U32) | (lo_lo & _LO32)


def philox_first_block(seed: int, words: np.ndarray) -> np.ndarray:
    """First output block (counter 1) of Philox4x64-10 for each key word.

    Returns a ``(len(words), 4)`` uint64 array equal, row by row, to the
    first four ``random_raw`` outputs of ``np.random.Philox(key=[seed, w])``.
    """
    k0 = np.uint64(seed)
    k1 = np.asarray(words, dtype=np.uint64)
    with np.errstate(over="ignore"):
        # Round 1 on the counter (1, 0, 0, 0) folds to constants.
        x0 = np.full(k1.shape, k0)
        x1 = np.zeros(k1.shape, dtype=np.uint64)
        x2 = k1.copy()
        x3 = np.full(k1.shape, _M0)
        for _ in range(_ROUNDS - 1):
            k0 = k0 + _W0
            k1 = k1 + _W1
            hi0, lo0 = _mulhilo(_M0, x0)
            hi1, lo1 = _mulhilo(_M1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack([x0, x1, x2, x3], axis=-1)


def lemire(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's bounded draw in [0, n) from 32-bit values.

    Returns the draws and a mask of values numpy would reject and redraw.
    """
    m = values.astype(np.uint64) * np.uint64(n)
    threshold = ((1 << 32) - n) % n
    return (m >> _U32).astype(np.int64), (m & _LO32) < np.uint64(threshold)


def _halves(words: np.ndarray) -> np.ndarray:
    # The 32-bit values numpy takes from each word: low half, then high half.
    out = np.empty(words.shape[:-1] + (2 * words.shape[-1],), dtype=np.uint64)
    out[..., 0::2] = words & _LO32
    out[..., 1::2] = words >> _U32
    return out


class RekeyedStream:
    """One Philox generator re-keyed in place to any stream's start.

    Re-keying through the state setter skips the entropy pull of a fresh
    construction and draws exactly what :func:`rng_stream` would.
    """

    def __init__(self):
        self._bitgen = np.random.Philox(key=[0, 0])
        self._template = self._bitgen.state
        self._gen = np.random.Generator(self._bitgen)

    def get(self, seed: int, pid: int, rnd: int, stage) -> np.random.Generator:
        key0, key1 = stream_key(seed, pid, rnd, stage)
        state = dict(self._template)
        state["state"] = {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([key0, key1], dtype=np.uint64),
        }
        self._bitgen.state = state
        return self._gen


class StageDraws:
    """One stage's draws for the processors ``pids`` (ascending) in one round.

    ``words`` holds each row's first Philox block, and ``n`` is the range of
    the stage's first draw, ``integers(n)``.  Methods take row positions
    into ``pids`` and return what the named numpy calls would on a fresh
    stream of each row's key.
    """

    def __init__(self, seed: int, rnd: int, stage: str, n: int,
                 pids: np.ndarray, words: np.ndarray, rekeyed: RekeyedStream):
        self.seed = seed
        self.rnd = rnd
        self.stage = stage
        self.n = n
        self.pids = pids
        self.words = words
        self._rekeyed = rekeyed
        self._first = None

    def exact(self, row: int) -> np.random.Generator:
        """A generator at the start of row ``row``'s stream."""
        return self._rekeyed.get(self.seed, int(self.pids[row]), self.rnd,
                                 self.stage)

    def _first_draw(self):
        if self._first is None:
            self._first = lemire(self.words[:, 0] & _LO32, self.n)
        return self._first

    def index(self, rows=None) -> np.ndarray:
        """``integers(n)`` of every row, or of the rows listed."""
        value, rejected = self._first_draw()
        if rows is not None:
            value, rejected = value[rows], rejected[rows]
        if np.count_nonzero(rejected):
            value = value.copy()
            for i in np.flatnonzero(rejected).tolist():
                row = i if rows is None else rows[i]
                value[i] = self.exact(row).integers(self.n)
        return value

    def fanout(self, rows: np.ndarray, k: np.ndarray):
        """``np.unique(integers(0, n, size=k[i]))`` of each row listed.

        Returns ``(row, value)`` arrays ordered by row, then value.
        """
        n = self.n
        value, rejected = lemire(_halves(self.words[rows]), n)
        used = np.arange(_HALVES) < k[:, None]
        exact = (k > _HALVES) | np.any(rejected & used, axis=1)
        value[~used] = n
        value.sort(axis=1)
        keep = value < n
        keep[:, 1:] &= value[:, 1:] != value[:, :-1]
        keep[exact] = False
        out_rows = np.broadcast_to(rows[:, None], value.shape)[keep]
        out_values = value[keep]
        if not np.count_nonzero(exact):
            return out_rows, out_values
        parts_rows, parts_values = [out_rows], [out_values]
        for i in np.flatnonzero(exact).tolist():
            dests = np.unique(self.exact(rows[i]).integers(0, n, size=k[i]))
            parts_rows.append(np.full(dests.size, rows[i]))
            parts_values.append(dests)
        out_rows = np.concatenate(parts_rows)
        order = np.argsort(out_rows, kind="stable")
        return out_rows[order], np.concatenate(parts_values)[order]

    def serve(self, rows: np.ndarray, starts: np.ndarray, requesters: np.ndarray,
              cap: int, p: np.ndarray):
        """Draws of the query stage's compute step, which follow ``integers(n)``.

        Row ``rows[i]`` holds the ascending requesters
        ``requesters[starts[i]:starts[i+1]]``.  More than ``cap`` of them are
        first cut to ``np.sort(choice(requesters, cap, replace=False))``;
        each kept requester then gets ``random() < p[i]``.  Returns the kept
        requesters, their row positions and the outcomes.
        """
        count = np.diff(starts)
        owner = np.repeat(np.arange(rows.size), count)
        slot = np.arange(requesters.size) - starts[owner]
        # Word 0 went to integers(n), so the doubles come from words 1 to 3.
        # integers(1) takes no word, so n = 1 goes the exact way.
        words = self.words[rows[owner], 1 + np.minimum(slot, _DOUBLES - 1)]
        correct = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53 < p[owner]
        exact = self._first_draw()[1][rows] | (count > min(_DOUBLES, cap))
        if self.n == 1:
            exact[:] = True
        if not np.count_nonzero(exact):
            return requesters, rows[owner], correct
        keep = ~exact[owner]
        for i in np.flatnonzero(exact).tolist():
            rng = self.exact(rows[i])
            rng.integers(self.n)
            lo, hi = starts[i], starts[i + 1]
            chosen = requesters[lo:hi]
            if chosen.size > cap:
                picked = np.sort(rng.choice(chosen, size=cap, replace=False))
                chosen_at = lo + np.searchsorted(chosen, picked)
            else:
                chosen_at = np.arange(lo, hi)
            keep[chosen_at] = True
            correct[chosen_at] = [rng.random() < p[i] for _ in chosen_at]
        return requesters[keep], rows[owner[keep]], correct[keep]


class StreamWindow:
    """First Philox blocks of the query and gossip streams, batched over rounds.

    A window holds, for the processors live when it was filled, the blocks
    of rounds ``[start, start + width)``, with ``width`` about
    ``_WINDOW_KEYS / (2 * live)``.  The live set only shrinks during a run,
    so one window serves every round it spans.
    """

    _STAGES = ("query", "gossip")

    def __init__(self, seed: int, n: int, last_round: int):
        self.seed = seed
        self.n = n
        self.last_round = last_round
        self._row = np.full(n, -1, dtype=np.int64)
        self._start = 0
        self._blocks = np.empty((0, 2, 0, 4), dtype=np.uint64)
        self._rekeyed = RekeyedStream()

    def _fill(self, rnd: int, pids: np.ndarray) -> None:
        width = max(1, _WINDOW_KEYS // (2 * pids.size))
        width = min(width, max(1, self.last_round - rnd))
        rounds = np.arange(rnd, rnd + width)
        words = [
            stream_key(self.seed, pids[None, :], rounds[:, None], stage)[1]
            for stage in self._STAGES
        ]
        blocks = philox_first_block(self.seed, np.stack(words, axis=1).ravel())
        self._blocks = blocks.reshape(width, 2, pids.size, 4)
        self._row[:] = -1
        self._row[pids] = np.arange(pids.size)
        self._start = rnd

    def stage(self, rnd: int, stage: str, pids: np.ndarray) -> StageDraws:
        """Draws of ``stage`` in round ``rnd`` for the ascending ``pids``."""
        offset = rnd - self._start
        rows = self._row[pids]
        if not 0 <= offset < len(self._blocks) or np.any(rows < 0):
            self._fill(rnd, pids)
            offset, rows = 0, self._row[pids]
        words = self._blocks[offset, self._STAGES.index(stage)]
        if rows.size != words.shape[0]:
            words = words[rows]
        return StageDraws(self.seed, rnd, stage, self.n, pids, words,
                          self._rekeyed)
