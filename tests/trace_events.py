"""A held trace as text, lines and parsed events, for tests that read one."""

import json
from dataclasses import dataclass


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


def trace_text(trace) -> str:
    """The lines of a ``TraceCollector`` that holds its trace, each ending in
    a newline."""
    return "".join(batch.render() for batch in trace.batches)


def trace_lines(trace) -> list[str]:
    """The lines of a ``TraceCollector`` that holds its trace."""
    return trace_text(trace).splitlines()


def events(trace) -> list[TraceEvent]:
    """The events of a ``TraceCollector`` that holds its trace."""
    return [TraceEvent.from_line(line) for line in trace_lines(trace)]
