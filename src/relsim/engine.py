"""Deterministic synchronous round scheduler.

Each round advances all live, unhalted processors through nine steps (three
stages of send/receive/compute), each step one whole-population transition
of :mod:`.protocol`.  Messages sent in a step are delivered at that stage's
receive step; messages addressed to crashed or halted processors are dropped
and counted (task responses never are: they go back to active requesters).
Identical configs (including the seed) produce bit-identical results because
every random draw comes from a counter-based stream keyed by (seed,
processor, round, stage), evaluated a window of rounds at a time by
:class:`.streams.StreamWindow`.

Until the record pool settles globally, nobody is enlightened, professes or
halts, so a round's queries, serving, records and share sends depend only on
the crash schedule and the draws.  The engine therefore steps rounds in
blocks: each step runs once over a block's (round, processor) pairs, and
only trace lines go round by round.  A block ends at its draw window's end,
at the round cap, at the first round with no live processor, and before the
round whose records settle the pool, found before anything is committed.
From that round on, each block is one round.  Gossip compute is the same for
every block: one call merges the block's delivered gossip, applying it in
runs of rounds; each processor's newest own record then goes into its
knowledge row; last, the processors that heard a final-level profess halt
(only a block's first round can carry one).

A :class:`RunConfig` checks itself when constructed; a run takes it as given.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, get_type_hints

import numpy as np

from . import protocol
from .adversary import (
    AdversaryModel,
    ConstantReliability,
    CrashPattern,
    CrashSchedule,
    ExplicitReliability,
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    ReliabilityAssignment,
    ReliabilitySpec,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
    assign_probabilities,
    generate_crash_schedule,
    max_crashes,
)
from .estimator import EstimationParams, gamma1
from .knowledge import RecordPool, snapshot_runs
from .metrics import RunMetrics
from .protocol import NO_MESSAGES, Messages, Population, ceil_log2
from .streams import SEED_LIMIT, StreamWindow, rng_stream
from .trace import CODES, TraceCollector


# Reserved stream lanes for pre-run adversary draws; protocol stages use 0-2.
_LANE_RELIABILITY = 8
_LANE_CRASHES = 9


class ConfigError(ValueError):
    """Run configuration outside its valid domain."""


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run, including the adversary's seed."""

    n: int
    params: EstimationParams
    model: AdversaryModel = LinearFraction(0.25)
    crash_pattern: CrashPattern = NoCrashes()
    reliability: ReliabilitySpec = ConstantReliability(1.0)
    seed: int = 0
    max_rounds: Optional[int] = None
    # Selects comparing a processor's priority against shares as well as
    # professes on gossip receive.  Shares carry level 0, so that never
    # changes a run; the field stays so that configs round-trip unchanged.
    literal_ell_reset: bool = False

    def effective_max_rounds(self) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        if isinstance(self.model, LinearFraction):
            return 64 * max(1, ceil_log2(self.n))
        return 8 * self.n

    def __post_init__(self):
        # Also runs in replace().  The params and specs check themselves.
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if (isinstance(self.reliability, ExplicitReliability)
                and len(self.reliability.values) != self.n):
            raise ConfigError(f"explicit list has {len(self.reliability.values)} "
                              f"entries, expected {self.n}")
        # Raises AdversaryDomainError if the model needs more survivors than n.
        max_crashes(self.n, self.model)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.params.epsilon,
            "delta": self.params.delta,
            **{section: spec_to_dict(getattr(self, section)) for section in SPECS},
            "seed": self.seed,
            "max_rounds": self.max_rounds,
            "literal_ell_reset": self.literal_ell_reset,
        }

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        """Inverse of :meth:`to_dict`; unknown or missing keys are errors."""
        _check_keys(data, _CONFIG_KEYS, "config")
        try:
            return RunConfig(
                n=_integer(data["n"], "n"),
                params=EstimationParams(_real(data["epsilon"], "epsilon"),
                                        _real(data["delta"], "delta")),
                **{section: spec_from_dict(data[section], section)
                   for section in SPECS if section in data},
                seed=_integer(data.get("seed", 0), "seed"),
                max_rounds=(
                    _integer(data["max_rounds"], "max_rounds")
                    if data.get("max_rounds") is not None else None
                ),
                literal_ell_reset=_flag(data.get("literal_ell_reset", False),
                                        "literal_ell_reset"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed config: {exc!r}") from exc


_CONFIG_KEYS = ("n", "epsilon", "delta", "model", "crash_pattern", "reliability",
                "seed", "max_rounds", "literal_ell_reset")
# The spec classes of each config section, by kind: the only list of the
# kinds and, through their dataclass fields, of each kind's keys.
SPECS = {
    "model": {"lf": LinearFraction, "fp": FractionalPolynomial, "pl": PolyLog},
    "crash_pattern": {"none": NoCrashes, "upfront": UpfrontCrashes,
                      "spread": SpreadCrashes},
    "reliability": {"constant": ConstantReliability, "uniform": UniformReliability,
                    "explicit": ExplicitReliability},
}
_KINDS = {cls: kind for table in SPECS.values() for kind, cls in table.items()}


def _check_keys(data, allowed, what: str) -> None:
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {what} keys {unknown}; allowed: {list(allowed)}")


def _real(value, what: str) -> float:
    """A config number: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{what} is out of range: {value!r}") from exc


def _integer(value, what: str) -> int:
    """A config count: an int, or a float with no fractional part."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _flag(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
    return value


# How a spec field is read, by its annotated type.
_READERS = {float: _real, int: _integer,
            tuple[float, ...]: lambda value, what: tuple(_real(v, what) for v in value)}


def spec_to_dict(spec) -> dict:
    """A spec as its kind and its fields, tuples written as lists."""
    data = {"kind": _KINDS[type(spec)]}
    for field in fields(spec):
        value = getattr(spec, field.name)
        data[field.name] = list(value) if isinstance(value, tuple) else value
    return data


def spec_from_dict(data, section: str):
    """Inverse of :func:`spec_to_dict` for a spec of config ``section``.

    The keys allowed are ``kind`` and the kind's fields; each field is read
    by its annotated type, and a field left out takes its default.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    cls = SPECS[section].get(kind)
    if cls is None:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    types = get_type_hints(cls)  # by field, in field order
    _check_keys(data, ["kind", *types], f"{kind} {section}")
    return cls(**{name: _READERS[type_](data[name], f"{section} {name}")
                  for name, type_ in types.items() if name in data})


@dataclass
class RunResult:
    """Outcome of one run.

    ``estimates`` maps each halted processor to its length-n estimate array
    (NaN marks an undetermined target, -1.0 a detected crash).  ``completion``
    is "all_halted" when every never-crashed processor halted, else
    "round_cap_hit".
    """

    config: RunConfig
    completion: str
    estimates: dict[int, np.ndarray]
    metrics: RunMetrics
    truth: ReliabilityAssignment
    schedule: CrashSchedule
    trace: Optional[TraceCollector] = None
    # Populated only when run(..., keep_states=True): the final knowledge
    # matrix (row i is processor i's) and the shared record pool.
    known: Optional[np.ndarray] = None
    pool: Optional[RecordPool] = None


def deliver(messages: Messages, pop: Population) -> tuple[Messages, Messages]:
    """Route one step's messages, dropping those to dead destinations.

    A destination is dead to a message if it crashed at or before the
    message's round, or has halted.  Everything else is delivered exactly
    once.  Returns (delivered, dropped), each in send order.
    """
    lost = pop.crash_round[messages.dst] <= messages.rnd
    lost |= pop.halted[messages.dst]
    if not np.count_nonzero(lost):
        return messages, NO_MESSAGES
    return messages.take(~lost), messages.take(lost)


def count_route(sent: Messages, dropped: Messages, pop: Population,
                metrics: RunMetrics) -> None:
    """Count a routed step's deliveries, and its drops by reason."""
    n_crashed = int(np.count_nonzero(pop.crash_round[dropped.dst] <= dropped.rnd))
    metrics.delivered += len(sent) - len(dropped)
    metrics.dropped_to_crashed += n_crashed
    metrics.dropped_to_halted += len(dropped) - n_crashed


def run(
    config: RunConfig,
    collect_trace: bool = False,
    trace_kinds=None,
    trace_sink=None,
    check_invariants: bool = False,
    keep_states: bool = False,
) -> RunResult:
    """Execute one simulation to completion or the round cap.

    ``collect_trace`` keeps the trace's batches (:class:`.trace.Batch`) in
    the result's ``TraceCollector``.  ``trace_sink``, a callable taking each
    batch as it is emitted, traces the run without keeping it.
    ``trace_kinds`` filters by event kind.

    ``check_invariants`` makes the engine assert per-round state invariants
    (knowledge monotonicity, level 0 while unenlightened); intended for
    small-population test runs.
    """
    n = config.n
    seed = config.seed
    max_rounds = config.effective_max_rounds()

    truth = assign_probabilities(
        n, config.reliability, rng_stream(seed, 0, 0, _LANE_RELIABILITY)
    )
    schedule = generate_crash_schedule(
        n, config.model, config.crash_pattern, rng_stream(seed, 0, 0, _LANE_CRASHES)
    )

    pool = RecordPool(n, gamma1(config.params))
    pop = Population.start(n, schedule.crash_round, max_rounds)
    metrics = RunMetrics(per_processor_halt_round=[None] * n)
    tracing = collect_trace or trace_sink is not None
    trace = TraceCollector(trace_kinds, trace_sink) if tracing else None
    window = StreamWindow(seed, n, max_rounds)
    p = truth.p

    rnd = 0
    settles = None  # the round whose records settle the pool, once found
    while True:
        # Live and unhalted in this round.  Fixed for the round: nobody
        # crashes or halts before gossip compute.
        active = np.flatnonzero(~pop.halted & (pop.crash_round > rnd))
        if not active.size:
            completion = "all_halted"
            break
        if rnd >= max_rounds:
            completion = "round_cap_hit"
            break
        # A block of rounds, stepped at once: to the window's end (which the
        # round cap bounds) or the first round with no live worker, cut below
        # before the round whose records settle the pool; then one round.
        end = window.reach(rnd, active)
        if rnd == settles or pool.globally_estimable():
            end = rnd + 1
        else:
            end = min(end, int(pop.crash_round[active].max()))
        at, who = np.nonzero(pop.crash_round[active] > np.arange(rnd, end)[:, None])
        pairs_rnd, pairs_pid = at + rnd, active[who]

        # ---- query stage ----------------------------------------------------
        draws = window.stage(pairs_rnd, "query", pairs_pid)
        requests = protocol.query_send(pairs_pid, draws)
        received, request_drops = deliver(requests, pop)
        responses = protocol.query_compute(pop, received, draws, p)
        res = protocol.response_receive(pop, requests, responses)
        if end > rnd + 1:
            settles = pool.settling_round(requests.rnd, requests.dst, res)
            if settles is not None:
                # Nothing is committed yet.  The settling round, if it is
                # the block's first, is a block of its own.
                end = max(settles, rnd + 1)
                requests, received, request_drops, responses = (
                    m.take(slice(m.rnd.searchsorted(end)))
                    for m in (requests, received, request_drops, responses))
                res = res[:len(requests)]
        live = len(requests)  # processor-rounds in the block
        metrics.count_messages("task_request", live)
        to_crashed = metrics.dropped_to_crashed
        count_route(requests, request_drops, pop, metrics)
        metrics.dropped_requests += len(received) - len(responses)
        metrics.account_step(3 * live, messages=live, tasks=len(responses))

        # ---- response stage -------------------------------------------------
        metrics.account_step(3 * live, messages=len(responses))
        metrics.count_messages("task_response", len(responses))
        # Every response goes to a requester active in its round, so none is
        # dropped: they are counted as delivered without a drop pass.
        if check_invariants:
            assert not np.any((pop.crash_round[responses.dst] <= responses.rnd)
                              | pop.halted[responses.dst]), (
                f"a task response goes to a dead processor in rounds {rnd}-{end - 1}"
            )
        metrics.delivered += len(responses)
        pool.add_records(requests.src, requests.rnd, requests.dst, res)
        if check_invariants:
            assert end == rnd + 1 or not pool.globally_estimable(), (
                f"the pool settled inside the block of rounds {rnd}-{end - 1}"
            )
        # A requester hears nothing if its target crashed (a true crash
        # detection), halted, or served others over the request cap.
        metrics.false_crash_detections += (
            live - len(responses) - (metrics.dropped_to_crashed - to_crashed))
        # Only a block's first round can enlighten anybody: a longer block
        # ends before the pool settles.
        flipped = protocol.response_compute(pop, active, pool)

        # ---- gossip stage ---------------------------------------------------
        gossip = protocol.gossip_send(
            pop, requests.src, window.stage(requests.rnd, "gossip", requests.src))
        metrics.account_step(3 * live, messages=len(gossip))
        professes = int(np.count_nonzero(gossip.is_profess))
        metrics.count_messages("share", len(gossip) - professes)
        metrics.count_messages("profess", professes)
        inbox, gossip_drops = deliver(gossip, pop)
        count_route(gossip, gossip_drops, pop, metrics)
        enlightened_now, level_reset = protocol.gossip_receive(pop, inbox)

        # ---- gossip compute: knowledge merges, own records and halts --------
        if trace is not None:  # round by round: the trace reads no knowledge
            edges = np.arange(rnd, end + 1)
            nobody = active[:0]
            for r, *steps in zip(range(rnd, end), *(_by_round(m, edges) for m in (
                    requests, received, request_drops, responses, gossip, inbox,
                    gossip_drops))):
                events = ((flipped, enlightened_now, level_reset) if r == rnd
                          else (nobody,) * 3)
                _trace_round(r, *steps, *events, pop, trace)
        if check_invariants:
            known_before = pop.known[active]
        # The merges, checked run by run (a run writes each row at most once).
        cuts = (snapshot_runs(inbox.dst, inbox.src, inbox.rnd) if check_invariants
                else [0, len(inbox)])
        for lo, hi in zip(cuts, cuts[1:]):
            shares = inbox.take(slice(lo, hi))
            before = pop.known[shares.dst] if check_invariants else None
            protocol.merge_knowledge(pop.known, shares.dst, shares.src, shares.rnd)
            assert before is None or np.all(pop.known[shares.dst] >= before), (
                f"knowledge shrank in rounds {shares.rnd[0]}-{shares.rnd[-1]}")
        pop.known[active, active] = pool.newest(active)  # own records
        halted = protocol.gossip_compute(pop, inbox, pool)
        for pid in halted.tolist():
            metrics.per_processor_halt_round[pid] = rnd
        if trace is not None:
            trace.emit(rnd, "gossip", "compute", "halt", halted)
        if check_invariants:
            assert np.all(pop.known[active] >= known_before), (
                f"knowledge shrank in rounds {rnd}-{end - 1}")
            # Levels and flags change only in a block's first round.
            assert np.all(pop.enlightened[active] | (pop.level[active] == 0)), (
                f"an unenlightened processor has a nonzero level in rounds {rnd}-{end - 1}")
        rnd = end

    metrics.rounds_to_all_halt = rnd
    return RunResult(
        config=config,
        completion=completion,
        estimates=dict(sorted(pop.estimates.items())),
        metrics=metrics,
        truth=truth,
        schedule=schedule,
        trace=trace,
        known=pop.known if keep_states else None,
        pool=pool if keep_states else None,
    )


def _by_round(messages: Messages, edges: np.ndarray) -> list[Messages]:
    """A set of messages ordered by round, split at the rounds ``edges``, for
    the trace."""
    if len(edges) == 2:  # all of them are in the one round
        return [messages]
    cuts = messages.rnd.searchsorted(edges).tolist()
    return [messages.take(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])]


def _trace_round(rnd, requests, received, request_drops, responses, gossip, inbox,
                 gossip_drops, flipped, enlightened_now, level_reset, pop, trace):
    """Trace one round's steps up to its gossip compute step."""
    trace.emit(rnd, "query", "send", "crash", np.flatnonzero(pop.crash_round == rnd))
    _trace_route(requests, received, request_drops, "query", pop, rnd, trace)
    _trace_route(responses, responses, NO_MESSAGES, "response", pop, rnd, trace)
    trace.emit(rnd, "response", "compute", "enlighten", flipped)
    _trace_route(gossip, inbox, gossip_drops, "gossip", pop, rnd, trace)
    if not level_reset.size:
        return trace.emit(rnd, "gossip", "receive", "enlighten", enlightened_now)
    if not enlightened_now.size:
        return trace.emit(rnd, "gossip", "receive", "ell_reset", level_reset)
    # The two kinds interleave in id order, enlighten first on a tie; each
    # run of one kind is one batch.
    ids = np.concatenate([enlightened_now, level_reset])
    order = np.argsort(ids, kind="stable")
    is_reset = order >= enlightened_now.size
    cuts = np.flatnonzero(np.diff(is_reset)) + 1
    for part, resets in zip(np.split(ids[order], cuts), np.split(is_reset, cuts)):
        trace.emit(rnd, "gossip", "receive",
                   "ell_reset" if resets[0] else "enlighten", part)


_TASK_TYPE = {"query": CODES.index("task_request"), "response": CODES.index("task_response")}
_SHARE = CODES.index("share")  # and profess is the code after it
_HALTED = CODES.index("halted")  # and crashed is the code before it


def _types(messages: Messages, stage: str, index=slice(None)):
    """Type codes of ``messages[index]``: one per gossip message, or one."""
    if stage == "gossip":
        return messages.is_profess[index] + _SHARE
    return _TASK_TYPE[stage]


def _trace_route(sent, delivered, dropped, stage, pop, rnd, trace) -> None:
    """Trace one step's sends in send order, its drops in send order and its
    receives by destination."""
    trace.emit(rnd, stage, "send", "send", sent.src, type=_types(sent, stage), to=sent.dst,
               **({"ell": sent.level} if stage == "gossip" else {}))
    if len(dropped):
        crashed = pop.crash_round[dropped.dst] <= rnd
        trace.emit(rnd, stage, "receive", "drop", dropped.dst,
                   type=_types(dropped, stage), reason=_HALTED - crashed)
    by_dst = (delivered.dst.argsort(kind="stable") if len(delivered) > 1
              else slice(None))
    trace.emit(rnd, stage, "receive", "receive", delivered.dst[by_dst],
               type=_types(delivered, stage, by_dst))
