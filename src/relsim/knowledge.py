"""Compact, exact representation of gossiped result knowledge.

Every live, unhalted processor produces exactly one result record per round
(the outcome of its own query), so the records created by processor ``s``
form a contiguous round prefix ``0..last``.  Gossip messages always carry a
sender's *entire* knowledge, and merging is set union, so any processor's
knowledge of ``s``-created records is itself a round prefix.  A knowledge
state is therefore fully described by one integer per creator: the highest
round known (-1 for none).  Merging becomes an elementwise maximum and a
snapshot is a cheap array copy, instead of copying record sets whose total
size grows with the run, and several rounds' shares merge as one snapshot
per run of rounds that reads or rewrites no row written earlier in the run.

Record *contents* -- which target each record is about and its res value --
are stored once in a shared, append-only :class:`RecordPool`, in creation
order: rounds ascending and, within a round, creators ascending.  The pool
answers the two knowledge queries the protocol needs, for a batch of rows:

* :meth:`RecordPool.estimate_all` -- final per-target estimates, replaying
  each target's known records in (round, requester) order, which is
  creation order;
* :meth:`RecordPool.satisfied` -- which rows leave no target undetermined,
  holding for each enough correct results or a crash record
  (:meth:`RecordPool.satisfies` is its one-row form).

Both rest on the *known-prefix cut*.  For a row ``k``, ``cut(k)`` is the
smallest ``k[s]`` over the creators ``s`` it lags behind (``k[s]`` below the
last round ``s`` created a record in); every record of a round ``<= cut(k)``
is known to ``k``.  Push gossip spreads each record to every worker within
O(log n) rounds, so the cut trails the newest round by a few rounds, and
only the records after it -- a contiguous suffix of the pool's arrays --
differ between rows.  Per-target facts about the whole pool, kept up to
date as each round's records arrive, answer everything before the cut:
each target's record and correct counts, its first crash round, and the
round and value at which its correct count crosses the threshold.  After
the smallest cut of a batch, ``satisfied`` counts each open target's known
correct and crash records, and ``estimate_all`` replays them in order.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import CRASHED

# Round of an event that has not happened: a target never crossing the
# threshold or never reported crashed.
_NEVER = np.iinfo(np.int32).max

# Most (row, record) cells a batched query compares at once.
_MASK_CELLS = 1 << 15


def empty_knowledge(n: int, dtype=np.int32) -> np.ndarray:
    """Knowledge vector that knows nothing: -1 for every creator."""
    return np.full(n, -1, dtype=dtype)


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted ``keys`` and the bounds of their runs:
    value ``i`` fills ``keys[bounds[i]:bounds[i + 1]]``."""
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    return keys[bounds[:-1]], bounds


def merge_knowledge(known: np.ndarray, dst: np.ndarray, src: np.ndarray,
                    rnd=None) -> None:
    """Merge knowledge row ``src[i]`` into row ``dst[i]`` for every i, in place.

    Union of knowledge states is the elementwise maximum of round prefixes.
    Every row is read before any is written, so a row that is both sent and
    merged into contributes its value from before this merge, as a snapshot
    taken at send time would.  Given rounds ``rnd`` (ascending), they are a
    block's shares, one per sender and round at most, lacking their senders'
    own records, and merge one :func:`snapshot_runs` run at a time.
    """
    if rnd is not None:
        cuts = snapshot_runs(dst, src, rnd)
        for lo, hi in zip(cuts, cuts[1:]):
            merge_knowledge(known, dst[lo:hi], src[lo:hi])
            # The senders' records of the round, new to their destinations.
            known[dst[lo:hi], src[lo:hi]] = rnd[lo:hi]
        return
    if len(dst) <= 1:
        if len(dst):
            # One message, as in most rounds of a sparse population.
            row = known[dst[0]]
            np.maximum(row, known[src[0]], out=row)
        return
    counts = np.bincount(dst)
    most = int(counts.max())
    if most == 1:
        # No destination repeats.
        known[dst] = np.maximum(known[dst], known[src])
        return
    order = dst.argsort(kind="stable")
    rows = counts.nonzero()[0]
    sizes = counts[rows]
    firsts = sizes.cumsum() - sizes
    src = src[order]
    merged = known[rows]
    # The k-th message of every destination that has one, for each k in
    # turn: each pass gathers at most one row per destination.
    for k in range(most):
        group = (sizes > k).nonzero()[0] if k else slice(None)
        merged[group] = np.maximum(merged[group], known[src[firsts[group] + k]])
    known[rows] = merged


def snapshot_runs(dst: np.ndarray, src: np.ndarray, rnd: np.ndarray) -> list[int]:
    """Bounds ``cuts`` of the runs of shares ``dst``, ``src`` sent in rounds
    ``rnd`` (ascending), run ``i`` being ``[cuts[i], cuts[i + 1])``: each run
    ends before a round reading or writing a row an earlier round of it
    wrote, so it merges as one snapshot exactly as it would round by round."""
    if not len(dst):
        return [0]
    rounds, bounds = runs(rnd)
    at = rnd - rnd[0]
    # written[(t + 1) * cols + c]: the last round <= t writing touched row c.
    touched = np.zeros(max(dst.max(), src.max()) + 1, dtype=bool)
    touched[dst] = touched[src] = True
    column = touched.cumsum() - 1
    cols = int(column[-1]) + 1
    writes, reads = at * cols + column[dst], at * cols + column[src]
    written = np.full((int(at[-1]) + 2) * cols, -1, dtype=np.int64)
    written[writes + cols] = at
    np.maximum.accumulate(written.reshape(-1, cols), axis=0, out=written.reshape(-1, cols))
    # Per round, the last earlier round writing a row it reads or writes.
    latest = np.maximum.reduceat(np.maximum(written[writes], written[reads]), bounds[:-1])
    cuts, start = [], -1
    for lo, r, last in zip(bounds.tolist(), (rounds - rnd[0]).tolist(), latest.tolist()):
        if last >= start:
            cuts.append(lo)
            start = r
    return cuts + [len(dst)]


def _firsts(values: np.ndarray, rnd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``values`` and the round of each one's first occurrence,
    for ``rnd`` ascending."""
    order = values.argsort(kind="stable")
    distinct, bounds = runs(values[order])
    return distinct, rnd[order[bounds[:-1]]]


def _crossing(bounds: np.ndarray, correct: np.ndarray, base, needed: int, counted=True):
    """Whether each group's correct count reaches ``needed``, and how many
    ``counted`` records come before the record where it does.

    Group ``i`` is ``correct[..., bounds[i]:bounds[i + 1]]`` in replay order
    and starts from ``base`` (per group, or one value for all); leading axes
    are independent rows.  The count only grows within a group, so the
    records before the crossing are those at which it is still below
    ``needed``.
    """
    starts = bounds[:-1]
    running = np.cumsum(correct, axis=-1, dtype=np.int32)
    running -= np.repeat(running[..., starts] - correct[..., starts] - base,
                         bounds[1:] - starts, axis=-1)
    below = running < needed
    return ~below[..., bounds[1:] - 1], np.add.reduceat(below & counted, starts, axis=-1)


class RecordPool:
    """Append-only store of every result record created during one run.

    Records are registered once by the engine when a requester records its
    query outcome, in creation order.  Per-creator prefixes index into this
    pool, so all per-processor knowledge operations are filters over the
    shared arrays.
    """

    def __init__(self, n: int, gamma1_value: float):
        self.n = n
        self.gamma1 = gamma1_value
        # Integer mass needed per target: prefix sums are integers, so
        # "sum >= gamma1" is equivalent to "sum >= ceil(gamma1)".
        self.needed = math.ceil(gamma1_value)
        # Records in creation order, in arrays that grow by doubling.  The
        # creator and target arrays are indices, so they are intp: numpy
        # converts other index arrays on every use.
        self._count = 0
        self._src = np.empty(0, dtype=np.intp)
        self._rnd = np.empty(0, dtype=np.int32)
        self._tgt = np.empty(0, dtype=np.intp)
        self._res = np.empty(0, dtype=np.int32)
        # (round, creator) of the newest record.
        self._tail = (-1, -1)
        # Per-target facts over every record, updated round by round: record
        # and correct counts, the round of the first crash record, and the
        # round of the record that brings the correct count to ``needed``
        # with the estimate ``gamma1 / N`` there (N counts the target's
        # records before it).  ``_last`` holds each creator's newest round.
        self._total = np.zeros(n, dtype=np.int64)
        self._total_correct = np.zeros(n, dtype=np.int64)
        self._first_crash = np.full(n, _NEVER, dtype=np.int32)
        self._cross_round = np.full(n, _NEVER, dtype=np.int32)
        self._cross_value = np.full(n, np.nan)
        self._last = np.full(n, -1, dtype=np.int32)
        # Targets crossed, and targets settled globally by a crossing or a
        # crash record: a row can settle a target only if the union of
        # everything created does.
        self._num_crossed = 0
        self._num_settled = 0

    def __len__(self) -> int:
        return self._count

    def add_record(self, creator: int, rnd: int, target: int, res: int) -> None:
        """Register the record ``(res, creator, rnd)`` about ``target``."""
        self.add_records([creator], rnd, [target], [res])

    def add_records(self, creators, rnd, targets, res) -> None:
        """Register one record per creator, created in round ``rnd``: one
        round for all of them or one per record.

        Records arrive in creation order: rounds never go backwards and
        creators ascend strictly within a round.  A batch breaking that
        order raises :class:`ValueError` and adds nothing.
        """
        creators = np.asarray(creators, dtype=np.intp)
        if not creators.size:
            return
        rnd = np.broadcast_to(np.asarray(rnd, dtype=np.int32), creators.shape)
        key = rnd.astype(np.int64) * self.n + creators
        last_rnd, last_src = self._tail
        if (key[0] <= last_rnd * self.n + last_src
                or np.count_nonzero(key[1:] <= key[:-1])):
            raise ValueError("records must be added in (round, creator) order")
        start = self._count
        end = start + creators.size
        if end > self._src.size:
            size = max(1024, 2 * self._src.size, end)
            for name in ("_src", "_rnd", "_tgt", "_res"):
                grown = np.empty(size, dtype=getattr(self, name).dtype)
                grown[:start] = getattr(self, name)[:start]
                setattr(self, name, grown)
        self._src[start:end] = creators
        self._rnd[start:end] = rnd
        self._tgt[start:end] = targets
        self._res[start:end] = res
        self._tail = (int(rnd[-1]), int(creators[-1]))
        self._count = end
        rnd, tgt, res = self._rnd[start:end], self._tgt[start:end], self._res[start:end]
        # Rounds ascend, so each creator's newest round is its largest.
        np.maximum.at(self._last, creators, rnd)
        correct = res == 1
        hits = np.bincount(tgt[correct], minlength=self.n)
        self._total_correct += hits
        reached = self._total_correct >= self.needed
        crossing = np.count_nonzero(reached) > self._num_crossed
        if crossing:
            targets, at, prior = self._crossings(
                tgt, correct, reached & (self._cross_round == _NEVER),
                self._total_correct - hits)
            self._num_crossed += targets.size
            self._cross_round[targets] = rnd[at]
            self._cross_value[targets] = self.gamma1 / (
                self._total[targets] + prior).astype(np.float64)
        self._total += np.bincount(tgt, minlength=self.n)
        crash = res == -1
        fresh = 0
        if np.count_nonzero(crash):
            targets, first = _firsts(tgt[crash], rnd[crash])
            new = self._first_crash[targets] == _NEVER
            self._first_crash[targets[new]] = first[new]
            fresh = np.count_nonzero(new)
        if crossing or fresh:
            self._num_settled = np.count_nonzero(
                np.minimum(self._cross_round, self._first_crash) != _NEVER)

    def _crossings(self, tgt, correct, crossed, base):
        """Where the targets flagged in ``crossed`` reach the threshold among
        new records ``tgt``, ``correct`` (in creation order), counting from
        ``base``: the targets, the index of each one's crossing record and
        the number of its new records before that one.
        """
        # Every new record about a crossing target, grouped by target in
        # creation order: those before the crossing record are below it.
        pick = np.flatnonzero(crossed[tgt])
        pick = pick[np.argsort(tgt[pick], kind="stable")]
        targets, bounds = runs(tgt[pick])
        _, prior = _crossing(bounds, correct[pick], base[targets], self.needed)
        return targets, pick[bounds[:-1] + prior], prior

    def settling_round(self, rnd: np.ndarray, tgt: np.ndarray, res: np.ndarray):
        """The round after whose records the pool would first be globally
        estimable, were the records ``rnd``, ``tgt``, ``res`` added in
        creation order; None if not even after all of them.  Adds nothing.
        """
        when = np.minimum(self._cross_round, self._first_crash).astype(np.int64)
        open_ = when == _NEVER
        correct, crash = res == 1, res == -1
        base = self._total_correct
        hits = np.bincount(tgt[correct], minlength=self.n)
        crossed = open_ & (base + hits >= self.needed)
        # Most blocks leave some target without a crossing or a crash record.
        reached = crossed | ~open_
        reached[tgt[crash]] = True
        if not reached.all():
            return None
        targets, at, _ = self._crossings(tgt, correct, crossed, base)
        when[targets] = rnd[at]
        # A target settled before these records keeps its earlier round.
        targets, first = _firsts(tgt[crash], rnd[crash])
        when[targets] = np.minimum(when[targets], first)
        return int(when.max())

    def newest(self, creators: np.ndarray) -> np.ndarray:
        """Round of each creator's newest record (-1 for none)."""
        return self._last[creators]

    def globally_estimable(self) -> bool:
        """True once every target could be settled by a full-union knower."""
        return self._num_settled == self.n

    def _cut(self, known: np.ndarray):
        """Known-prefix cut of each row of ``known`` (of the vector, if 1-D).

        Every record of a round at or below the cut is known to the row.
        A row that lags no creator gets the newest round, so its suffix is
        empty.
        """
        top = int(self._rnd[self._count - 1]) if self._count else -1
        return np.where(known < self._last, known, top).min(axis=-1)

    def _suffix(self, cut: int) -> int:
        """Index of the first record of a round after ``cut``."""
        return int(self._rnd[:self._count].searchsorted(np.int32(cut), side="right"))

    def _open(self, cut: int):
        """The records after ``cut`` about the targets open at it (neither
        crossed nor crashed), grouped by target in creation order: those
        targets, their groups' bounds, each one's correct count up to the
        cut, and the records' creators, rounds and res values."""
        start = self._suffix(cut)
        tgt = self._tgt[start:self._count]
        hard = np.minimum(self._cross_round, self._first_crash) > cut
        pick = np.flatnonzero(hard[tgt])
        pick = pick[np.argsort(tgt[pick], kind="stable")] + start
        targets, bounds = runs(self._tgt[pick])
        res = self._res[pick]
        before_correct = (self._total_correct[targets]
                          - np.add.reduceat(res == 1, bounds[:-1]))
        return targets, bounds, before_correct, self._src[pick], self._rnd[pick], res

    def _replay(self, known: np.ndarray, cut: int):
        """Estimates of the targets that neither crossed nor crashed by
        ``cut``, for a block of rows that each know every record of a round
        ``<= cut``.  Returns those of the targets with suffix records, per
        row: ``gamma1 / N`` at the row's crossing, ``CRASHED`` on a known
        crash record, NaN otherwise.
        """
        targets, bounds, before_correct, src, rnd, res = self._open(cut)
        starts = bounds[:-1]
        correct, crash = res == 1, res == -1
        # The records up to the cut are all known, and none crosses.
        before = self._total[targets] - np.diff(bounds)
        values = np.full((len(known), targets.size), np.nan)
        # Rows in blocks, so the rows x records arrays stay small.
        step = max(1, _MASK_CELLS // max(1, src.size))
        for i in range(0, len(known), step):
            knows = known[i:i + step, src] >= rnd
            crossed, prior = _crossing(bounds, knows & correct, before_correct,
                                       self.needed, knows)
            block = values[i:i + step]
            block[crossed] = self.gamma1 / (before + prior)[crossed].astype(np.float64)
            block[np.logical_or.reduceat(knows & crash, starts, axis=1)] = CRASHED
        return targets, values

    def satisfied(self, known: np.ndarray) -> np.ndarray:
        """Which rows of the knowledge matrix ``known`` settle every target.

        A target is settled by at least ``needed`` known correct records or
        by any known crash record: exactly when its estimate is not NaN.
        Returns one bool per row.
        """
        rows = len(known)
        if not rows or not self.globally_estimable():
            return np.zeros(rows, dtype=bool)
        # Every target has a settling record, so a target open at the cut has
        # records after it, and a row knows every record up to the cut.
        _, bounds, before_correct, src, rnd, res = self._open(
            int(self._cut(known).min()))
        starts = bounds[:-1]
        correct, crash = res == 1, res == -1
        needed = self.needed - before_correct
        ok = np.empty(rows, dtype=bool)
        step = max(1, _MASK_CELLS // max(1, src.size))
        for i in range(0, rows, step):
            knows = known[i:i + step, src] >= rnd
            settled = np.add.reduceat(knows & correct, starts, axis=1) >= needed
            settled |= np.logical_or.reduceat(knows & crash, starts, axis=1)
            ok[i:i + step] = settled.all(axis=1)
        return ok

    def satisfies(self, known: np.ndarray) -> bool:
        """Whether the knowledge vector ``known`` settles every target."""
        return bool(self.satisfied(known[np.newaxis])[0])

    def estimate_all(self, known: np.ndarray) -> np.ndarray:
        """Per-target estimates for a knowledge vector, or for each row of a
        knowledge matrix.

        Each row of the result has length ``n``: a crash mark is -1.0, an
        undetermined target NaN, and other entries are ``gamma1 / N`` with
        ``N`` the last known-record prefix whose res-sum is below the
        threshold.  Matches the record-set estimator exactly.
        """
        rows = np.atleast_2d(known)
        # A row whose own cut passes a target's crossing knows every record
        # before it, so one cut for all rows gives each its own replay.
        cut = int(self._cut(rows).min())
        settled = np.where(self._cross_round <= cut, self._cross_value, np.nan)
        settled[self._first_crash <= cut] = CRASHED
        estimates = np.tile(settled, (len(rows), 1))
        targets, values = self._replay(rows, cut)
        estimates[:, targets] = values
        # A target can cross by the cut and crash after it.
        start = self._suffix(cut)
        crash = np.flatnonzero(self._res[start:self._count] == -1) + start
        src, rnd, tgt = self._src[crash], self._rnd[crash], self._tgt[crash]
        step = max(1, _MASK_CELLS // max(1, crash.size))
        for i in range(0, len(rows), step):
            row, col = np.nonzero(rows[i:i + step, src] >= rnd)
            estimates[i + row, tgt[col]] = CRASHED
        return estimates if known.ndim == 2 else estimates[0]
