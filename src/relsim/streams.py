"""Keyed random streams and their whole-population evaluation.

Every random draw of a run comes from a Philox4x64-10 stream keyed by
``(seed, processor, round, stage)`` (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  Philox is counter-based, so the first
block of 64-bit words of many streams can be computed at once with array
operations; :class:`StreamWindow` does this for every live processor and the
next few rounds in one call, and decodes the window's first draws in the
same call: each stage's ``integers(n)`` and the ``random()`` doubles after it.

:class:`StageDraws` serves one stage of (round, processor) pairs, of one round
or a block of them, from those blocks, decoded exactly as
``numpy.random.Generator`` would: ``integers(n)`` is Lemire's multiply-shift
on 32-bit halves of words (Lemire, "Fast random integer generation in an
interval", TOMACS 2019), low half first, and ``random()`` is
``(word >> 11) * 2**-53``.  Rows whose draws fall outside the first
block, or hit Lemire's rejection, are replayed through an exact re-keyed
``Generator``, so every value is bit-identical to a fresh :func:`rng_stream`
consumed in the same order.
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
    # 64x64 -> 128-bit product: the low word wraps; the high one sums 32-bit limbs.
    a_lo, a_hi = a & _LO32, a >> _U32
    b_lo, hi = b & _LO32, b >> _U32
    cross = a_lo * b_lo
    cross >>= _U32
    b_lo *= a_hi
    cross += b_lo & _LO32
    cross += a_lo * hi
    cross >>= _U32
    b_lo >>= _U32
    hi *= a_hi
    hi += b_lo
    hi += cross
    return hi, a * b


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


def decode(words: np.ndarray, n: int):
    """``integers(n)`` of word 0 of each Philox block, with Lemire's reject
    mask, and the ``random()`` doubles of words 1 to 3."""
    value, rejected = lemire(words[..., 0] & _LO32, n)
    return value, rejected, (words[..., 1:] >> np.uint64(11)).astype(np.float64) * 2.0**-53


class StageDraws:
    """One stage's draws for (round, processor) pairs, ordered by round, then id.

    Row ``i`` is processor ``pids[i]`` in round ``rnd[i]``; ``rnd`` may be
    one round for every row.  ``words`` holds each row's first Philox
    block, ``n`` is the range of the stage's first draw, ``integers(n)``,
    and ``decoded`` is ``decode(words, n)``.  Methods take row positions and
    return what the named numpy calls would on a fresh stream of each row's
    key.
    """

    def __init__(self, seed: int, rnd, stage: str, n: int,
                 pids: np.ndarray, words: np.ndarray, decoded,
                 rekeyed: RekeyedStream):
        self.seed = seed
        self.rnd = np.broadcast_to(rnd, pids.shape)
        self.stage = stage
        self.n = n
        self.pids = pids
        self.words = words
        self._rekeyed = rekeyed
        self._first, self._rejected, self._doubles = decoded

    def exact(self, row: int) -> np.random.Generator:
        """A generator at the start of row ``row``'s stream."""
        return self._rekeyed.get(self.seed, int(self.pids[row]), int(self.rnd[row]),
                                 self.stage)

    def rows(self, rnd: np.ndarray, pids: np.ndarray) -> np.ndarray:
        """Row positions of the pairs ``(rnd[i], pids[i])``, each one a row."""
        return (self.rnd * self.n + self.pids).searchsorted(rnd * self.n + pids)

    def index(self, rows=None) -> np.ndarray:
        """``integers(n)`` of every row, or of the rows listed."""
        value, rejected = self._first, self._rejected
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

    def serve(self, rows: np.ndarray, requesters: np.ndarray, cap: int,
              p: np.ndarray):
        """Draws of the query stage's compute step, which follow ``integers(n)``.

        Request ``i`` comes from ``requesters[i]`` to row ``rows[i]``, whose
        reliability is ``p[i]``; ``rows`` ascend, and so do the requesters
        of one row.  A row with more than ``cap`` requesters first cuts them
        to ``np.sort(choice(requesters, cap, replace=False))``; each kept
        requester then gets ``random() < p``.  Returns the kept requesters,
        their rows and the outcomes.
        """
        slot = np.arange(rows.size) - rows.searchsorted(rows)
        # A row goes the exact way if its integers(n) was rejected or it
        # has more requests than the cap or the three doubles after word 0
        # allow; all its requests, or those past that limit, are marked.
        exact = self._rejected[rows] | (slot >= min(_DOUBLES, cap))
        if self.n == 1:
            # integers(1) takes no word.
            exact[:] = True
        if not np.count_nonzero(exact):
            return requesters, rows, self._doubles[rows, slot] < p
        correct = self._doubles[rows, np.minimum(slot, _DOUBLES - 1)] < p
        keep = np.ones(rows.size, dtype=bool)
        for row in np.unique(rows[exact]).tolist():
            rng = self.exact(row)
            rng.integers(self.n)
            lo, hi = rows.searchsorted(row), rows.searchsorted(row, "right")
            keep[lo:hi] = False
            chosen = requesters[lo:hi]
            if chosen.size > cap:
                picked = np.sort(rng.choice(chosen, size=cap, replace=False))
                chosen_at = lo + np.searchsorted(chosen, picked)
            else:
                chosen_at = np.arange(lo, hi)
            keep[chosen_at] = True
            correct[chosen_at] = [rng.random() < p[lo] for _ in chosen_at]
        return requesters[keep], rows[keep], correct[keep]


class StreamWindow:
    """First Philox blocks of the query and gossip streams, batched over rounds.

    A window holds, for the processors live when it was filled, the blocks
    of rounds ``[start, start + width)``, with ``width`` about
    ``_WINDOW_KEYS / (2 * live)``, and their :func:`decode`.  The live set
    only shrinks during a run, so one window serves every round it spans.
    Its width also bounds a block of rounds that the engine steps at once.
    """

    _STAGES = ("query", "gossip")

    def __init__(self, seed: int, n: int, last_round: int):
        self.seed = seed
        self.n = n
        self.last_round = last_round
        self._pids = np.empty(0, dtype=np.int64)
        self._start = 0
        self._width = 0
        self._rekeyed = RekeyedStream()

    def _fill(self, rnd: int, pids: np.ndarray) -> None:
        width = max(1, _WINDOW_KEYS // (2 * pids.size))
        width = min(width, max(1, self.last_round - rnd))
        rounds = np.arange(rnd, rnd + width)
        words = [
            stream_key(self.seed, pids[None, :], rounds[:, None], stage)[1]
            for stage in self._STAGES
        ]
        blocks = philox_first_block(self.seed, np.stack(words).ravel())
        self._blocks = blocks.reshape(2, width, pids.size, 4)
        self._decoded = decode(self._blocks, self.n)
        self._pids = pids
        self._start = rnd
        self._width = width

    def reach(self, rnd: int, pids: np.ndarray) -> int:
        """Make the window serve the ascending ``pids`` from round ``rnd`` on,
        refilling it from ``rnd`` if it cannot; returns the first round after
        it."""
        if not 0 <= rnd - self._start < self._width:
            self._fill(rnd, pids)
        elif pids.size != self._pids.size:
            # The live set only shrinks, so a live set of the window's size
            # is the window's set, and a smaller one is read from its rows.
            rows = self._pids.searchsorted(pids).clip(0, self._pids.size - 1)
            if not np.array_equal(self._pids[rows], pids):
                self._fill(rnd, pids)
        return self._start + self._width

    def stage(self, rnd, stage: str, pids: np.ndarray) -> StageDraws:
        """Draws of ``stage`` for the pairs ``(rnd[i], pids[i])``, ordered by
        round, then id, or for the ascending ``pids`` in the one round ``rnd``.

        The window must :meth:`reach` every pair's processor and round; a
        single round is reached here.
        """
        if np.ndim(rnd) == 0:
            self.reach(rnd, pids)
        flat = (rnd - self._start) * self._pids.size + self._pids.searchsorted(pids)
        at = self._STAGES.index(stage)
        words, *decoded = (a[at].reshape(-1, *a.shape[3:])[flat]
                           for a in (self._blocks, *self._decoded))
        return StageDraws(self.seed, rnd, stage, self.n, pids, words, decoded,
                          self._rekeyed)
