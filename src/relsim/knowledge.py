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
are stored once in a shared, append-only :class:`RecordPool`.  The pool also
answers the two knowledge queries the protocol needs, vectorized over all
targets at once:

* :meth:`RecordPool.satisfies` -- does a knowledge vector contain, for every
  target, either enough correct results or a crash record?
* :meth:`RecordPool.estimate_all` -- final per-target estimates for a
  knowledge vector, replaying each target's known records in (round,
  requester) order.

Literal record sets can be reconstructed with :meth:`records_for`; tests
compare the two representations against a straight-line reference
implementation on small populations.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import CRASHED, EstimationParams, ResultRecord, gamma1

# How many of the globally hardest (last-settled) targets the cheap
# prescreen inspects before a full satisfaction scan.
_PRESCREEN_TARGETS = 32


def empty_knowledge(n: int) -> np.ndarray:
    """Knowledge vector that knows nothing: -1 for every creator."""
    return np.full(n, -1, dtype=np.int32)


def runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted ``keys`` and the bounds of their runs:
    value ``i`` fills ``keys[bounds[i]:bounds[i + 1]]``."""
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.append(starts, keys.size)


def merge_knowledge(known: np.ndarray, dst: np.ndarray, src: np.ndarray) -> None:
    """Merge knowledge row ``src[i]`` into row ``dst[i]`` for every i, in place.

    Union of knowledge states is the elementwise maximum of round prefixes.
    Every row is read before any is written, so a row that is both sent and
    merged into contributes its value from before this merge, as a snapshot
    taken at send time would.
    """
    if len(dst) == 0:
        return
    order = np.argsort(dst, kind="stable")
    rows, bounds = runs(dst[order])
    src = src[order]
    sizes = np.diff(bounds)
    merged = known[rows]
    # The k-th message of every destination that has one, for each k in
    # turn: each pass gathers at most one row per destination.
    for k in range(int(sizes.max())):
        group = np.flatnonzero(sizes > k) if k else slice(None)
        merged[group] = np.maximum(merged[group], known[src[bounds[:-1][group] + k]])
    known[rows] = merged


class RecordPool:
    """Append-only store of every result record created during one run.

    Records are registered once by the engine when a requester records its
    query outcome.  Per-creator prefixes index into this pool, so all
    per-processor knowledge operations are filters over the shared arrays.
    """

    def __init__(self, n: int, gamma1_value: float):
        self.n = n
        self.gamma1 = gamma1_value
        # Integer mass needed per target: prefix sums are integers, so
        # "sum >= gamma1" is equivalent to "sum >= ceil(gamma1)".
        self.needed = math.ceil(gamma1_value)
        # Records in creation order, in arrays that grow by doubling.
        self._count = 0
        self._src = np.empty(0, dtype=np.int32)
        self._rnd = np.empty(0, dtype=np.int32)
        self._tgt = np.empty(0, dtype=np.int32)
        self._res = np.empty(0, dtype=np.int32)
        # Caches over the records, each valid for the record count it holds.
        self._flat_len = -1
        self._flat: tuple | None = None
        self._sorted_len = -1
        self._sorted: tuple | None = None
        self._prescreen_len = -1
        self._prescreen: tuple | None = None
        self._buffers_for = -1
        # Global settlement gate: a processor's knowledge can only satisfy
        # the per-target condition if the union of everything ever created
        # does.  Checked in O(1) before any per-processor scan.
        self._global_correct = np.zeros(n, dtype=np.int64)
        self._global_crash = np.zeros(n, dtype=bool)
        self._settled = np.zeros(n, dtype=bool)
        self._num_settled = 0
        self._settle_order: list[int] = []

    def __len__(self) -> int:
        return self._count

    def add_record(self, creator: int, rnd: int, target: int, res: int) -> None:
        """Register the record ``(res, creator, rnd)`` about ``target``."""
        self.add_records([creator], rnd, [target], [res])

    def add_records(self, creators, rnd, targets, res) -> None:
        """Register one record per creator, in the given order.

        ``rnd`` is one round for all of them or one round each.
        """
        k = len(creators)
        end = self._count + k
        if end > self._src.size:
            size = max(1024, 2 * self._src.size, end)
            for name in ("_src", "_rnd", "_tgt", "_res"):
                grown = np.empty(size, dtype=np.int32)
                grown[:self._count] = getattr(self, name)[:self._count]
                setattr(self, name, grown)
        self._src[self._count:end] = creators
        self._rnd[self._count:end] = rnd
        self._tgt[self._count:end] = targets
        self._res[self._count:end] = res
        self._settle(self._tgt[self._count:end], self._res[self._count:end])
        self._count = end

    def _settle(self, targets: np.ndarray, res: np.ndarray) -> None:
        # A target settles globally at its first crash record, or at the
        # correct record that brings its correct count to ``needed``.
        fresh = ~self._settled[targets]
        if not np.count_nonzero(fresh):
            return
        targets, res = targets[fresh], res[fresh]
        correct = np.bincount(targets[res == 1], minlength=self.n)
        crossing = self._global_correct + correct >= self.needed
        crossing[targets[res == -1]] = True
        counted = self._global_correct.tolist()
        self._global_correct += correct
        at = crossing[targets]
        if not np.count_nonzero(at):
            return
        for target, value in zip(targets[at].tolist(), res[at].tolist()):
            if self._settled[target] or value == 0:
                continue
            if value == 1:
                counted[target] += 1
                if counted[target] < self.needed:
                    continue
            else:
                self._global_crash[target] = True
            self._settled[target] = True
            self._num_settled += 1
            self._settle_order.append(target)

    def globally_estimable(self) -> bool:
        """True once every target could be settled by a full-union knower."""
        return self._num_settled == self.n

    def _flat_arrays(self):
        if self._flat_len != self._count:
            count = self._count
            src = self._src[:count]
            rnd = self._rnd[:count]
            tgt = self._tgt[:count]
            res = self._res[:count]
            crash_sel = res == -1
            self._flat = (
                src,
                rnd,
                tgt,
                res,
                res == 1,
                src[crash_sel],
                rnd[crash_sel],
                tgt[crash_sel],
            )
            self._flat_len = count
        return self._flat

    def min_records_needed(self) -> int:
        """Lower bound on how many records any satisfying knowledge holds."""
        crashed_targets = int(np.count_nonzero(self._global_crash))
        return self.needed * (self.n - crashed_targets) + crashed_targets

    def _prescreen_arrays(self):
        # Records about the targets that were globally hardest to settle.
        # A knowledge vector failing to settle one of them cannot satisfy,
        # and in the rounds before first enlightenment that is the common
        # case, so this small scan rejects most candidates cheaply.
        if self._prescreen_len != self._count:
            src, rnd, tgt, res, is_corr, _cs, _cr, _ct = self._flat_arrays()
            hard = self._settle_order[-_PRESCREEN_TARGETS:]
            sel = np.isin(tgt, np.asarray(hard, dtype=np.int32)) & is_corr
            compact = np.full(self.n, -1, dtype=np.int32)
            for k, j in enumerate(hard):
                compact[j] = k
            self._prescreen = (
                src[sel],
                rnd[sel],
                compact[tgt[sel]],
                len(hard),
                np.asarray(hard, dtype=np.int64),
            )
            self._prescreen_len = self._count
        return self._prescreen

    def satisfies(self, known: np.ndarray) -> bool:
        """Whether ``known`` settles every target.

        A target is settled by at least ``needed`` known correct records or
        by any known crash record.
        """
        if not self.globally_estimable():
            return False
        if int(known.sum(dtype=np.int64)) + self.n < self.min_records_needed():
            return False
        src, rnd, tgt, res, is_corr, crash_src, crash_rnd, crash_tgt = (
            self._flat_arrays()
        )
        crashed = np.zeros(self.n, dtype=bool)
        if crash_src.size:
            crashed[crash_tgt[known[crash_src] >= crash_rnd]] = True
        # Cheap necessary test over the hardest targets first.
        psrc, prnd, ptgt, nhard, hard_ids = self._prescreen_arrays()
        counts = np.bincount(ptgt[known[psrc] >= prnd], minlength=nhard)
        if not np.all(crashed[hard_ids] | (counts >= self.needed)):
            return False
        # Full scan.
        mask = known[src] >= rnd
        correct = np.bincount(tgt[mask & is_corr], minlength=self.n)
        return bool(np.all(crashed | (correct >= self.needed)))

    def _sorted_arrays(self):
        # Records ordered by (target, round, requester); within one target
        # this is exactly the replay order of the estimator.
        if self._sorted_len != self._count:
            src, rnd, tgt, res, _ic, _cs, _cr, _ct = self._flat_arrays()
            order = np.lexsort((src, rnd, tgt))
            tgt_s = tgt[order]
            counts = np.bincount(tgt_s, minlength=self.n)
            starts = np.concatenate(([0], np.cumsum(counts)))
            self._sorted = (
                src[order],
                rnd[order],
                tgt_s,
                res[order] == 1,
                res[order] == -1,
                starts,
            )
            self._sorted_len = self._count
        return self._sorted

    def _buffers(self, length: int):
        if self._buffers_for != length:
            self._buf_mask = np.empty(length, dtype=bool)
            self._buf_corr = np.empty(length, dtype=bool)
            self._buf_cc = np.zeros(length + 1, dtype=np.int32)
            self._buf_ck = np.zeros(length + 1, dtype=np.int32)
            self._buffers_for = length
        return self._buf_mask, self._buf_corr, self._buf_cc, self._buf_ck

    def estimate_all(self, known: np.ndarray) -> np.ndarray:
        """Per-target estimates for one knowledge vector.

        Returns a float array of length ``n`` where a crash mark is -1.0 and
        an undetermined target is NaN; other entries are ``gamma1 / N`` with
        ``N`` the last known-record prefix whose res-sum is below the
        threshold.  Matches the record-set estimator exactly.
        """
        src, rnd, tgt, is_corr, is_crash, starts = self._sorted_arrays()
        mask, corr, cum_correct, cum_known = self._buffers(len(src))
        np.greater_equal(known[src], rnd, out=mask)
        np.logical_and(mask, is_corr, out=corr)
        np.cumsum(corr, out=cum_correct[1:])
        np.cumsum(mask, out=cum_known[1:])
        seg_start = starts[:-1]
        seg_end = starts[1:]
        # First position in each target's segment where the known res-sum
        # reaches the threshold; the global cumsum is nondecreasing so a
        # single searchsorted answers all targets.
        cross = np.searchsorted(
            cum_correct, cum_correct[seg_start] + self.needed, side="left"
        )
        estimates = np.full(self.n, np.nan)
        reached = cross <= seg_end
        # The record at raw position cross-1 is the known correct record that
        # crosses the threshold; N counts known records strictly before it.
        trial_count = cum_known[np.maximum(cross, 1) - 1] - cum_known[seg_start]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = self.gamma1 / trial_count.astype(np.float64)
        estimates[reached] = values[reached]
        if is_crash.any():
            crash_known = mask & is_crash
            if crash_known.any():
                estimates[tgt[crash_known]] = CRASHED
        return estimates

    def records_for(self, known: np.ndarray, target: int) -> set[ResultRecord]:
        """Reconstruct the literal record set about ``target``."""
        src, rnd, tgt, res, _ic, _cs, _cr, _ct = self._flat_arrays()
        sel = (tgt == target) & (known[src] >= rnd)
        return {
            ResultRecord(int(v), int(s), int(r))
            for v, s, r in zip(res[sel], src[sel], rnd[sel])
        }

    def all_records_for(self, known: np.ndarray) -> list[set[ResultRecord]]:
        """Literal per-target record sets for a whole knowledge vector."""
        return [self.records_for(known, j) for j in range(self.n)]


def pool_for(n: int, params: EstimationParams) -> RecordPool:
    """Pool wired to the run's stopping threshold."""
    return RecordPool(n, gamma1(params))
