"""State machine of the reliability-estimation protocol, stepped for the whole
population at once.

Each round has three stages -- query, response, gossip -- and each stage has
send, receive, and compute steps.  A processor queries one random peer with a
test task per round, records the outcome (correct / incorrect / no answer),
and gossips its accumulated knowledge: one share message per round while
gathering, then exponentially growing profess multicasts once it holds, for
every peer, either enough correct results or evidence of a crash
("enlightened").  Hearing a profess makes the receiver enlightened too;
hearing one whose level has reached the halt threshold makes it compute the
final estimates and stop.  Levels double the profess fan-out each round and
double as priorities: a processor that hears a higher-priority profess resets
its own level, which keeps the total profess volume bounded.

The step functions below are whole-population transitions.  Each takes the
:class:`Population`, the processors acting (live and unhalted) and the
step's inputs, and updates the state of exactly those processors.  No
processor's transition reads state that another's changes in the same step,
so each step equals running the per-processor transition for every acting
processor in id order.  Until the pool settles globally nobody is
enlightened, professes or halts, so the engine hands every step but
``gossip_compute`` a block of consecutive rounds at once: the acting
processors are then those of (round, processor) pairs, ordered by round,
then id, and each message carries the round it is sent in.  The block's
merges, which depend on the round before, are one call given those rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .knowledge import RecordPool, empty_knowledge, merge_knowledge, runs
from .streams import StageDraws

# Crash round of a processor that never crashes.
NEVER = np.iinfo(np.int64).max


def ceil_log2(n: int) -> int:
    """Exact integer ceiling of log2(n) for n >= 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return (n - 1).bit_length()


def request_cap(n: int) -> int:
    """Most task requests a worker serves per round.

    The nominal cap is ceil(log2(n)); the floor of 1 keeps the degenerate
    single-processor population able to serve its own query.
    """
    return max(1, ceil_log2(n))


def profess_fanout(level: int, n: int) -> int:
    """Number of destination draws for a profess at the given level.

    ``ceil(2**(level-1) * log2(n))``, at least 1.  Level 0 gives the
    half-log fan-out that seeds the multicast growth.
    """
    return max(1, math.ceil(2.0 ** (level - 1) * math.log2(n))) if n > 1 else 1


# --- messages and state --------------------------------------------------------


class Messages:
    """Point-to-point sends of one step as parallel arrays, in send order.

    ``level`` is the sender's level (a profess's priority; 0 on shares) and
    ``is_profess`` marks profess messages; both are set on gossip only.
    ``correct`` is the outcome a task response carries.  ``rnd`` is the
    round each message is sent in; the engine sets it on every message.
    Gossip carries the sender's whole knowledge row, read when it is merged:
    nothing changes a row between a gossip send and the merge.
    """

    __slots__ = ("src", "dst", "level", "is_profess", "correct", "rnd")

    def __init__(self, src: np.ndarray, dst: np.ndarray, level=None,
                 is_profess=None, correct=None, rnd=None):
        self.src = src
        self.dst = dst
        self.level = level
        self.is_profess = is_profess
        self.correct = correct
        self.rnd = rnd

    def __len__(self) -> int:
        return len(self.dst)

    def take(self, index) -> "Messages":
        level, is_profess, correct = self.level, self.is_profess, self.correct
        rnd = self.rnd
        return Messages(self.src[index], self.dst[index],
                        None if level is None else level[index],
                        None if is_profess is None else is_profess[index],
                        None if correct is None else correct[index],
                        None if rnd is None else rnd[index])


_NO_IDS = np.empty(0, dtype=np.int64)
# No messages, with every field present; shared, so never written to.
NO_MESSAGES = Messages(_NO_IDS, _NO_IDS, _NO_IDS, np.empty(0, dtype=bool),
                       np.empty(0, dtype=np.int32), _NO_IDS)


@dataclass
class Population:
    """Protocol state of all ``n`` processors, indexed by processor id.

    Row ``i`` of ``known`` is processor i's compressed knowledge vector (see
    :mod:`.knowledge`); it holds -1 or a round below the run's round cap,
    so it is int16 when every such round fits and int32 otherwise.
    ``level`` is 0 wherever ``enlightened`` is False; ``crash_round`` is the
    round each processor crashes in (:data:`NEVER` if it does not);
    ``estimates`` gains an entry, exactly once, at halt.
    """

    n: int
    crash_round: np.ndarray
    known: np.ndarray
    level: np.ndarray
    enlightened: np.ndarray
    halted: np.ndarray
    estimates: dict[int, np.ndarray] = field(default_factory=dict)

    @staticmethod
    def start(n: int, crash_round: dict[int, int],
              max_rounds: Optional[int] = None) -> "Population":
        """Initial state; ``max_rounds`` is the run's round cap, if known."""
        crashes = np.full(n, NEVER, dtype=np.int64)
        crashes[list(crash_round)] = list(crash_round.values())
        small = max_rounds is not None and max_rounds - 1 <= np.iinfo(np.int16).max
        return Population(
            n=n,
            crash_round=crashes,
            known=np.tile(empty_knowledge(n, np.int16 if small else np.int32), (n, 1)),
            level=np.zeros(n, dtype=np.int64),
            enlightened=np.zeros(n, dtype=bool),
            halted=np.zeros(n, dtype=bool),
        )


# --- query stage ---------------------------------------------------------------


def query_send(pop: Population, active: np.ndarray, draws: StageDraws) -> Messages:
    """Each processor picks a uniform random peer (self allowed) and requests
    a test task.  ``active`` is the processor of each row of ``draws``."""
    return Messages(active, draws.index(), rnd=draws.rnd)


def query_compute(pop: Population, requests: Messages, draws: StageDraws,
                  p: np.ndarray) -> Messages:
    """Serve received task requests, at most ``request_cap(n)`` per server.

    A server with more requests in a round than the cap serves a uniform
    subset of exactly the cap.  Each served request costs one fresh
    correctness draw against the server's reliability ``p``, in requester-id
    order.  Returns the task responses, by round, then server id, then
    requester id.
    """
    order = (requests.rnd * pop.n + requests.dst).argsort(kind="stable")
    rnd, servers = requests.rnd[order], requests.dst[order]
    requesters, rows, correct = draws.serve(
        draws.rows(rnd, servers), requests.src[order], request_cap(pop.n), p[servers])
    return Messages(draws.pids[rows], requesters, correct=correct, rnd=draws.rnd[rows])


# --- response stage ------------------------------------------------------------


def response_receive(pop: Population, requests: Messages,
                     responses: Messages) -> np.ndarray:
    """The query outcome of every request, which the engine records.

    Exactly one each: res 1 for a correct answer, 0 for an incorrect one,
    -1 when no response arrived (the peer is presumed crashed).  Returns the
    res values, aligned with ``requests``: one per (round, requester).
    """
    # A processor's only request of a round went to its target, so any
    # response it received in that round is the answer.
    res = np.full(len(requests), -1, dtype=np.int32)
    sent = requests.rnd * pop.n + requests.src
    res[sent.searchsorted(responses.rnd * pop.n + responses.dst)] = responses.correct
    return res


def response_compute(pop: Population, active: np.ndarray,
                     pool: RecordPool) -> np.ndarray:
    """Enlighten every processor whose knowledge settles every peer.

    Settled means: enough correct results (the pool's threshold) or any
    crash record.  Returns the ids whose flag flips this step.
    """
    if not pool.globally_estimable():
        return active[:0]
    waiting = active[~pop.enlightened[active]]
    rows = pop.known[waiting]
    # A processor knows every record it created; the engine writes its
    # newest one into ``known`` by the round's merge.
    rows[np.arange(waiting.size), waiting] = pool.newest(waiting)
    flipped = waiting[pool.satisfied(rows)]
    pop.enlightened[flipped] = True
    return flipped


# --- gossip stage --------------------------------------------------------------


def gossip_send(pop: Population, active: np.ndarray, draws: StageDraws) -> Messages:
    """Emit this round's gossip.

    Enlightened: profess the full knowledge to ``profess_fanout`` uniform
    draws (with replacement, deduplicated into a set of destinations), then
    raise the level.  Otherwise: share the full knowledge with one uniform
    peer.  Self-targeting is allowed everywhere and is what lets the last
    unhalted processor stop itself.
    """
    professing = pop.enlightened[active]
    if not np.count_nonzero(professing):
        return Messages(active, draws.index(), pop.level[active], professing,
                        rnd=draws.rnd)
    sharers = np.flatnonzero(~professing)
    professors = np.flatnonzero(professing)
    levels = pop.level[active[professors]]
    distinct, _ = runs(np.sort(levels))
    fanout = np.array([profess_fanout(v, pop.n) for v in distinct.tolist()])
    rows, dst = draws.fanout(professors, fanout[distinct.searchsorted(levels)])
    if sharers.size:
        rows = np.concatenate((sharers, rows))
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        dst = np.concatenate((draws.index(sharers), dst))[order]
    src = active[rows]
    out = Messages(src, dst, pop.level[src], professing[rows], rnd=draws.rnd[rows])
    pop.level[active[professors]] += 1
    return out


def gossip_receive(pop: Population, active: np.ndarray,
                   inbox: Messages) -> tuple[np.ndarray, np.ndarray]:
    """Process received gossip flags: enlightenment and level reset.

    Any profess enlightens the receiver (its first own profess goes out next
    round, the send step of this one having passed).  The level resets to 0
    on a profess of higher priority, ordering (level, id) pairs
    lexicographically; a share always carries level 0, so comparing against
    shares too would change nothing.  Returns the ids enlightened now and
    the ids whose nonzero level was reset.
    """
    if not np.count_nonzero(inbox.is_profess):
        return active[:0], active[:0]
    n = pop.n
    professes = inbox.take(inbox.is_profess)
    heard, _ = runs(np.sort(professes.dst))
    enlightened_now = heard[~pop.enlightened[heard]]
    pop.enlightened[enlightened_now] = True
    best = np.full(n, -1, dtype=np.int64)
    np.maximum.at(best, professes.dst, professes.level * n + professes.src)
    outranked = heard[best[heard] > pop.level[heard] * n + heard]
    level_reset = outranked[pop.level[outranked] != 0]
    pop.level[outranked] = 0
    return enlightened_now, level_reset


def gossip_compute(pop: Population, active: np.ndarray, inbox: Messages,
                   pool: RecordPool) -> np.ndarray:
    """Merge received knowledge; halt if enough gossip circulated.

    Knowledge union is monotone.  A received profess whose level has reached
    ceil(log2(n)) triggers the final estimation over the merged knowledge
    and halts the processor.  Returns the ids that halted.
    """
    merge_knowledge(pop.known, inbox.dst, inbox.src)
    if not np.count_nonzero(inbox.is_profess):
        return active[:0]
    final = inbox.is_profess & (inbox.level >= ceil_log2(pop.n))
    if not np.count_nonzero(final):
        return active[:0]
    halting, _ = runs(np.sort(inbox.dst[final]))
    pop.estimates.update(zip(halting.tolist(), pool.estimate_all(pop.known[halting])))
    pop.halted[halting] = True
    return halting
