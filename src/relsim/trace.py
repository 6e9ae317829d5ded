"""Structured, line-delimited execution traces.

One record per observable event, totally ordered by
(round, stage, step, id, seq).  Traces are opt-in and filterable by event
kind since profess storms emit a send event per point-to-point message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

SCHEMA_VERSION = 1

EVENT_KINDS = ("send", "receive", "enlighten", "ell_reset", "halt", "crash", "drop")


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    round: int
    stage: str
    step: str
    id: int
    kind: str
    payload: dict

    def to_line(self) -> str:
        record = {
            "v": SCHEMA_VERSION,
            "seq": self.seq,
            "round": self.round,
            "stage": self.stage,
            "step": self.step,
            "id": self.id,
            "kind": self.kind,
        }
        record.update(self.payload)
        return json.dumps(record, separators=(",", ":"))


class TraceCollector:
    """Accumulates events in emission order, optionally filtered by kind."""

    def __init__(self, kinds: Optional[Iterable[str]] = None):
        if kinds is not None:
            unknown = set(kinds) - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
            self.kinds = frozenset(kinds)
        else:
            self.kinds = None
        self.events: list[TraceEvent] = []
        self._seq = 0

    def emit(self, rnd: int, stage: str, step: str, pid: int, kind: str, **payload):
        if self.kinds is not None and kind not in self.kinds:
            return
        self.events.append(
            TraceEvent(self._seq, rnd, stage, step, pid, kind, payload)
        )
        self._seq += 1
