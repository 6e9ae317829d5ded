"""Structured, line-delimited execution traces.

A trace is held as its rendered JSON lines, one per observable event, each
with the keys v, seq, round, stage, step, id, kind and then the event's
payload.  Events come in the order the engine produces them: by round, then
by step in run order.  Within a step, per-processor events (crash,
enlighten, ell_reset, halt) are in id order and sends in send order; a
receive step lists its drops in send order, then its receives by
destination (ties in send order), then, at the gossip receive step, the
enlighten and ell_reset events in id order.  seq numbers the kept events
0, 1, 2, ...  Traces are opt-in and filterable by event kind since profess
storms emit a send event per point-to-point message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

SCHEMA_VERSION = 1

EVENT_KINDS = ("send", "receive", "enlighten", "ell_reset", "halt", "crash", "drop")


@dataclass(frozen=True)
class TraceEvent:
    """One trace line, parsed."""

    seq: int
    round: int
    stage: str
    step: str
    id: int
    kind: str
    payload: dict

    @staticmethod
    def from_line(line: str) -> "TraceEvent":
        record = json.loads(line)
        del record["v"]
        return TraceEvent(*(record.pop(key) for key in
                            ("seq", "round", "stage", "step", "id", "kind")),
                          payload=record)


class TraceCollector:
    """Rendered event lines in emission order, optionally filtered by kind."""

    def __init__(self, kinds: Optional[Iterable[str]] = None):
        if kinds is not None:
            unknown = set(kinds) - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
            self.kinds = frozenset(kinds)
        else:
            self.kinds = None
        self.lines: list[str] = []
        self._seq = 0

    @property
    def events(self) -> list[TraceEvent]:
        return [TraceEvent.from_line(line) for line in self.lines]

    def emit(self, rnd: int, stage: str, step: str, kind: str, ids: list,
             **columns: list):
        """Append one line per id, in order; each payload column holds one
        int or plain (unescaped) string per id."""
        if not ids or (self.kinds is not None and kind not in self.kinds):
            return
        payload = "".join(f',"{key}":' + ('"%s"' if isinstance(col[0], str) else "%d")
                          for key, col in columns.items())
        template = (f'{{"v":{SCHEMA_VERSION},"seq":%d,"round":{rnd},'
                    f'"stage":"{stage}","step":"{step}","id":%d,'
                    f'"kind":"{kind}"{payload}}}')
        start = self._seq
        self._seq += len(ids)
        self.lines.extend(map(template.__mod__,
                              zip(range(start, self._seq), ids, *columns.values())))
