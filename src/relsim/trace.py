"""Structured, line-delimited execution traces.

A trace is a sequence of JSON lines, one per observable event, each with the
keys v, seq, round, stage, step, id, kind and then the event's payload.
Events come in the order the engine produces them: by round, then by step in
run order.  Within a step, per-processor events (crash, enlighten,
ell_reset, halt) are in id order and sends in send order; a receive step
lists its drops in send order, then its receives by destination (ties in
send order), then, at the gossip receive step, the enlighten and ell_reset
events in id order.  seq numbers the kept events 0, 1, 2, ...  Traces are
opt-in and filterable by event kind since profess storms emit a send event
per point-to-point message.

The engine emits events in batches of one kind.  Each batch is rendered
once, into one newline-terminated text chunk, and handed to a sink: by
default a list, which holds the trace in memory as its chunks, or any
callable taking a string, such as a file's ``write``, which streams the
trace and holds none of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

SCHEMA_VERSION = 1

EVENT_KINDS = ("send", "receive", "enlighten", "ell_reset", "halt", "crash", "drop")

# Ints from 0 to below this bound are rendered from a per-collector table of
# digit strings; others, and any negative one, through str.
_TABLE_LIMIT = 1 << 16


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
    """Renders event batches into text chunks for a sink, optionally
    filtered by kind.

    Without a sink, ``chunks`` holds the chunks in emission order; with one,
    it is None and the chunks go only to the sink.
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None,
                 sink: Optional[Callable[[str], object]] = None):
        if kinds is not None:
            unknown = set(kinds) - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
            self.kinds = frozenset(kinds)
        else:
            self.kinds = None
        self.chunks: Optional[list[str]] = [] if sink is None else None
        self._sink = self.chunks.append if sink is None else sink
        self._seq = 0
        self._digits: list[str] = []

    @property
    def text(self) -> str:
        """The held trace's lines, each ending in a newline."""
        return "".join(self.chunks)

    @property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    @property
    def events(self) -> list[TraceEvent]:
        return [TraceEvent.from_line(line) for line in self.lines]

    def _decimal(self, values: list) -> Iterable[str]:
        """The decimal strings of a list of ints."""
        top = max(values)
        if top >= _TABLE_LIMIT or min(values) < 0:
            return map(str, values)
        digits = self._digits
        if top >= len(digits):
            digits.extend(map(str, range(len(digits), top + 1)))
        return map(digits.__getitem__, values)

    def emit(self, rnd: int, stage: str, step: str, kind: str, ids: list,
             **columns: list):
        """Render one line per id, in order, as one chunk for the sink; each
        payload column holds one int or plain (unescaped) string per id."""
        if not ids or (self.kinds is not None and kind not in self.kinds):
            return
        m = len(ids)
        start = self._seq
        self._seq += m
        # Line i is texts[0], values[0][i], texts[1], ..., values[-1][i],
        # texts[-1]: the constant text around each value, then the values.
        texts = [f'{{"v":{SCHEMA_VERSION},"seq":',
                 f',"round":{rnd},"stage":"{stage}","step":"{step}","id":']
        values = [map(str, range(start, self._seq)), self._decimal(ids)]
        tail = f',"kind":"{kind}"'
        for key, col in columns.items():
            quote = '"' if isinstance(col[0], str) else ""
            texts.append(f'{tail},"{key}":{quote}')
            values.append(col if quote else self._decimal(col))
            tail = quote
        texts.append(tail + "}\n")
        width = len(texts) + len(values)
        parts = [None] * (width * m)
        for j, text in enumerate(texts):
            parts[2 * j::width] = [text] * m
        for j, col in enumerate(values):
            parts[2 * j + 1::width] = col
        self._sink("".join(parts))
