"""A fixed reference computation that measures how fast the host is right now.

The machines this benchmark runs on are shared, and their speed drifts by
20-40% over minutes.  The median host time of one run then moves with the
host, not with the program.  Timing this loop beside every operation and
dividing gives the operation's time in reference units, which cancels most
of the drift: in a 5-minute test on a 2-vCPU VM the spread of 20-s medians
fell from 16% (host seconds) to 5.5% (reference units).

The loop imitates the engine's inner loop with the same kinds of work:
Philox re-keying through the state setter, small message objects, per-
destination inboxes and ``np.maximum`` merges of knowledge vectors.  It
imports nothing from relsim, so no change to the program moves it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

_N = 32
_ROUNDS = 600


@dataclass(frozen=True)
class _Message:
    src: int
    level: int


def reference_loop() -> int:
    bitgen = np.random.Philox(key=[0, 0])
    gen = np.random.Generator(bitgen)
    template = bitgen.state
    known = [np.full(_N, -1, dtype=np.int32) for _ in range(_N)]
    inboxes: dict[int, list[_Message]] = {}
    high_levels = 0
    for rnd in range(_ROUNDS):
        for pid in range(_N):
            state = dict(template)
            state["state"] = {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([7, (pid << 34) | (rnd << 4)], dtype=np.uint64),
            }
            bitgen.state = state
            dest = int(gen.integers(_N))
            inboxes.setdefault(dest, []).append(_Message(pid, rnd & 3))
            known[pid][pid] = rnd
        for dest, inbox in inboxes.items():
            known[dest] = np.maximum.reduce([known[m.src] for m in inbox] + [known[dest]])
            high_levels += sum(1 for m in inbox if m.level > 1)
        inboxes.clear()
    return high_levels


def time_reference() -> float:
    """Seconds one :func:`reference_loop` takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start
