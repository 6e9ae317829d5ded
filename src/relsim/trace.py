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

The engine emits events in batches of one kind, as a :class:`Batch` of
arrays: ids, int columns, and message types and drop reasons as codes into
:data:`CODES`.  A trace sink takes each Batch; with none, the batches are
held.  Text is made only where a trace is written or compared:
:meth:`Batch.render` turns a batch into its lines, formatting a template
once for the whole batch, with a column of one value written into the
template.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .metrics import MESSAGE_KINDS

SCHEMA_VERSION = 1

EVENT_KINDS = ("send", "receive", "enlighten", "ell_reset", "halt", "crash", "drop")

# What coded columns index: the message types, then the drop reasons.
CODES = (*MESSAGE_KINDS, "crashed", "halted")
CODED_COLUMNS = frozenset({"type", "reason"})
_QUOTED = [f'"{code}"' for code in CODES]


class Batch(NamedTuple):
    """Trace lines seq, seq + 1, ... of one (round, stage, step, kind), one
    per id.  Each payload column is an array with one value per id, or one
    value for every line; ``type`` and ``reason`` hold codes into CODES."""

    seq: int
    round: int
    stage: str
    step: str
    kind: str
    ids: np.ndarray
    columns: dict

    def render(self) -> str:
        """The batch's lines, each ending in a newline."""
        m = len(self.ids)
        template = [f'{{"v":{SCHEMA_VERSION},"seq":%d,"round":{self.round},'
                    f'"stage":"{self.stage}","step":"{self.step}","id":%d,'
                    f'"kind":"{self.kind}"']
        columns = [range(self.seq, self.seq + m), self.ids.tolist()]
        for key, col in self.columns.items():
            values = col.tolist() if isinstance(col, np.ndarray) else [col]
            first = values[0]
            if values.count(first) == len(values):
                template.append(f',"{key}":'
                                f'{_QUOTED[first] if key in CODED_COLUMNS else int(first)}')
            elif key in CODED_COLUMNS:
                template.append(f',"{key}":%s')
                columns.append([_QUOTED[code] for code in values])
            else:
                template.append(f',"{key}":%d')
                columns.append(values)
        line = "".join(template) + "}\n"
        # Line i's values are flat[i * width:(i + 1) * width].
        width = len(columns)
        flat = [None] * (width * m)
        for j, col in enumerate(columns):
            flat[j::width] = col
        return (line * m) % tuple(flat)


class TraceCollector:
    """Numbers event batches, optionally filtered by kind, and hands each to
    ``sink``; with no sink, ``batches`` holds them in emission order."""

    def __init__(self, kinds: Optional[Iterable[str]] = None,
                 sink: Optional[Callable[[Batch], object]] = None):
        if kinds is not None:
            unknown = set(kinds) - set(EVENT_KINDS)
            if unknown:
                raise ValueError(f"unknown trace kinds: {sorted(unknown)}")
            self.kinds = frozenset(kinds)
        else:
            self.kinds = None
        self.batches: Optional[list[Batch]] = [] if sink is None else None
        self._sink = self.batches.append if sink is None else sink
        self._seq = 0

    def emit(self, rnd: int, stage: str, step: str, kind: str, ids: np.ndarray,
             **columns):
        """One line per id, in order, as one batch; each payload column is an
        int or code array with one value per id, or one int or code."""
        m = len(ids)
        if not m or (self.kinds is not None and kind not in self.kinds):
            return
        self._sink(Batch(self._seq, rnd, stage, step, kind, ids, columns))
        self._seq += m
