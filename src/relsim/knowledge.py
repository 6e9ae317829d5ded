"""Compact, exact representation of gossiped result knowledge.

Every live, unhalted processor produces exactly one result record per round
(the outcome of its own query), so the records created by processor ``s``
form a contiguous round prefix ``0..last``.  Gossip messages always carry a
sender's *entire* knowledge, and merging is set union, so any processor's
knowledge of ``s``-created records is itself a round prefix.  A knowledge
state is therefore fully described by one integer per creator: the highest
round known (-1 for none).  Merging becomes an elementwise maximum and a
snapshot is a cheap array copy, instead of copying record sets whose total
size grows with the run.

Record *contents* -- which target each record is about and its res value --
are stored once in a shared, append-only :class:`RecordPool`, in creation
order: rounds ascending and, within a round, creators ascending.  The pool
answers the two knowledge queries the protocol needs:

* :meth:`RecordPool.satisfied` -- which of a batch of knowledge rows hold,
  for every target, either enough correct results or a crash record
  (:meth:`RecordPool.satisfies` is its one-row form);
* :meth:`RecordPool.estimate_all` -- final per-target estimates for one
  row, replaying each target's known records in (round, requester) order,
  which is creation order.

Both rest on the *known-prefix cut*.  For a row ``k``, ``cut(k)`` is the
smallest ``k[s]`` over the creators ``s`` it lags behind (``k[s]`` below the
last round ``s`` created a record in); every record of a round ``<= cut(k)``
is known to ``k``.  Push gossip spreads each record to every worker within
O(log n) rounds, so the cut trails the newest round by a few rounds, and
only the records after it -- a contiguous suffix of the pool's arrays --
differ between rows.  Per-target facts about the whole pool, kept up to
date as each round's records arrive, answer everything before the cut:
each target's record and correct counts, its first crash round, and the
round and value at which its correct count crosses the threshold.  The
queries then scan only the suffix.

Literal record sets can be reconstructed with :meth:`records_for`; tests
compare the two representations against a straight-line reference
implementation on small populations.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import CRASHED, ResultRecord

# Round of an event that has not happened: a target never crossing the
# threshold or never reported crashed.
_NEVER = np.iinfo(np.int32).max

# Most (row, record) cells :meth:`RecordPool.satisfied` compares at once.
_MASK_CELLS = 1 << 15


def empty_knowledge(n: int) -> np.ndarray:
    """Knowledge vector that knows nothing: -1 for every creator."""
    return np.full(n, -1, dtype=np.int32)


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted ``keys`` and the bounds of their runs:
    value ``i`` fills ``keys[bounds[i]:bounds[i + 1]]``."""
    edge = np.empty(keys.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=edge[1:-1])
    bounds = edge.nonzero()[0]
    return keys[bounds[:-1]], bounds


def merge_knowledge(known: np.ndarray, dst: np.ndarray, src: np.ndarray) -> None:
    """Merge knowledge row ``src[i]`` into row ``dst[i]`` for every i, in place.

    Union of knowledge states is the elementwise maximum of round prefixes.
    Every row is read before any is written, so a row that is both sent and
    merged into contributes its value from before this merge, as a snapshot
    taken at send time would.
    """
    if len(dst) == 0:
        return
    counts = np.bincount(dst)
    most = int(counts.max())
    if most == 1:
        # No destination repeats, as in most rounds of a sparse population.
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


def _first_crossing(bounds: np.ndarray, correct: np.ndarray, base, needed: int):
    """Position of the record at which each group's correct count reaches
    ``needed``, or -1 where it never does.

    Group ``i`` is ``correct[bounds[i]:bounds[i + 1]]`` in replay order and
    starts from ``base`` (per group, or one value for all).  The count only
    grows within a group, so the crossing record is the group's first one
    at or above the threshold.
    """
    starts = bounds[:-1]
    running = np.cumsum(correct)
    offset = np.repeat(running[starts] - correct[starts] - base, bounds[1:] - starts)
    hits = np.add.reduceat(running - offset >= needed, starts)
    return np.where(hits > 0, bounds[1:] - hits, -1)


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

    def add_records(self, creators, rnd: int, targets, res) -> None:
        """Register one record per creator, all created in round ``rnd``.

        Records arrive in creation order: rounds never go backwards and
        creators ascend strictly within a round.  A batch breaking that
        order raises :class:`ValueError` and adds nothing.
        """
        start = self._count
        end = start + len(creators)
        if start == end:
            return
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
        new = self._src[start:end]
        last_rnd, last_src = self._tail
        if (rnd < last_rnd or (rnd == last_rnd and new[0] <= last_src)
                or np.count_nonzero(new[1:] <= new[:-1])):
            raise ValueError("records must be added in (round, creator) order")
        self._tail = (rnd, int(new[-1]))
        self._count = end
        tgt, res = self._tgt[start:end], self._res[start:end]
        self._last[new] = rnd
        correct = res == 1
        hits = np.bincount(tgt[correct], minlength=self.n)
        self._total_correct += hits
        reached = self._total_correct >= self.needed
        crossing = np.count_nonzero(reached) > self._num_crossed
        if crossing:
            fresh = reached & (self._cross_round == _NEVER)
            self._num_crossed += np.count_nonzero(fresh)
            # Every record this round about a crossing target, grouped by
            # target in creation order: the crossing record's place in its
            # group counts the target's records this round before it.
            pick = np.flatnonzero(fresh[tgt])
            pick = pick[np.argsort(tgt[pick], kind="stable")]
            targets, bounds = runs(tgt[pick])
            at = _first_crossing(bounds, correct[pick],
                                 self._total_correct[targets] - hits[targets], self.needed)
            trials = self._total[targets] + at - bounds[:-1]
            self._cross_round[targets] = rnd
            self._cross_value[targets] = self.gamma1 / trials.astype(np.float64)
        self._total += np.bincount(tgt, minlength=self.n)
        crash = tgt[res == -1]
        if crash.size:
            crash = crash[self._first_crash[crash] == _NEVER]
            self._first_crash[crash] = rnd
        if crossing or crash.size:
            self._num_settled = np.count_nonzero(
                np.minimum(self._cross_round, self._first_crash) != _NEVER)

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

    def satisfied(self, known: np.ndarray) -> np.ndarray:
        """Which rows of the knowledge matrix ``known`` settle every target.

        A target is settled by at least ``needed`` known correct records or
        by any known crash record.  Returns one bool per row.
        """
        rows = len(known)
        if not rows or not self.globally_estimable():
            return np.zeros(rows, dtype=bool)
        cut = int(self._cut(known).min())
        # Every row knows each record of a round <= cut, so a target that
        # settled globally by then is settled for all of them.
        hard = np.minimum(self._cross_round, self._first_crash) > cut
        if not np.count_nonzero(hard):
            return np.ones(rows, dtype=bool)
        start = self._suffix(cut)
        tgt = self._tgt[start:self._count]
        # The suffix records that can settle a hard target, grouped by
        # target in creation order.  A hard target's settling record is one
        # of them, so every hard target has a group.
        pick = np.flatnonzero(hard[tgt] & (self._res[start:self._count] != 0))
        pick = pick[np.argsort(tgt[pick], kind="stable")] + start
        targets, bounds = runs(self._tgt[pick])
        starts = bounds[:-1]
        src, rnd, correct = self._src[pick], self._rnd[pick], self._res[pick] == 1
        crash = ~correct if not np.all(correct) else None
        before = self._total_correct[targets] - np.add.reduceat(correct, starts)
        out = np.empty(rows, dtype=bool)
        # Rows in blocks, so the rows x records mask stays small.
        step = max(1, _MASK_CELLS // pick.size)
        for i in range(0, rows, step):
            knows = known[i:i + step, src] >= rnd
            settled = before + np.add.reduceat(knows & correct, starts, axis=1) >= self.needed
            if crash is not None:
                settled |= np.logical_or.reduceat(knows & crash, starts, axis=1)
            out[i:i + step] = settled.all(axis=1)
        return out

    def satisfies(self, known: np.ndarray) -> bool:
        """Whether the knowledge vector ``known`` settles every target."""
        return bool(self.satisfied(known[np.newaxis])[0])

    def estimate_all(self, known: np.ndarray) -> np.ndarray:
        """Per-target estimates for one knowledge vector.

        Returns a float array of length ``n`` where a crash mark is -1.0 and
        an undetermined target is NaN; other entries are ``gamma1 / N`` with
        ``N`` the last known-record prefix whose res-sum is below the
        threshold.  Matches the record-set estimator exactly.
        """
        cut = int(self._cut(known))
        start = self._suffix(cut)
        src, rnd, tgt, res = (a[start:self._count] for a in
                              (self._src, self._rnd, self._tgt, self._res))
        seen = known[src] >= rnd
        # The row knows every record up to a crossing at or before its cut,
        # so its replay of that target is the full one.
        done = self._cross_round <= cut
        estimates = np.where(done, self._cross_value, np.nan)
        # The other targets: replay the row's known suffix records, starting
        # from the records of rounds up to the cut, all known and none crossing.
        pick = np.flatnonzero(seen & ~done[tgt])
        if pick.size:
            pick = pick[np.argsort(tgt[pick], kind="stable")]
            targets, bounds = runs(tgt[pick])
            before = self._total[targets] - np.bincount(tgt, minlength=self.n)[targets]
            before_correct = (self._total_correct[targets]
                              - np.bincount(tgt[res == 1], minlength=self.n)[targets])
            at = _first_crossing(bounds, res[pick] == 1, before_correct, self.needed)
            crossed = at >= 0
            trials = before + at - bounds[:-1]
            estimates[targets[crossed]] = self.gamma1 / trials[crossed].astype(np.float64)
        estimates[self._first_crash <= cut] = CRASHED
        estimates[tgt[seen & (res == -1)]] = CRASHED
        return estimates

    def records_for(self, known: np.ndarray, target: int) -> set[ResultRecord]:
        """Reconstruct the literal record set about ``target``."""
        src, rnd, tgt, res = (a[:self._count] for a in
                              (self._src, self._rnd, self._tgt, self._res))
        sel = (tgt == target) & (known[src] >= rnd)
        return {
            ResultRecord(int(v), int(s), int(r))
            for v, s, r in zip(res[sel], src[sel], rnd[sel])
        }

    def all_records_for(self, known: np.ndarray) -> list[set[ResultRecord]]:
        """Literal per-target record sets for a whole knowledge vector."""
        return [self.records_for(known, j) for j in range(self.n)]

