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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

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
)
from .estimator import EstimationParams, gamma1
from .knowledge import RecordPool
from .metrics import RunMetrics
from .protocol import NO_MESSAGES, Messages, Population, ceil_log2
from .streams import SEED_LIMIT, StreamWindow, rng_stream
from .trace import TraceCollector


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

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if gamma1(self.params) <= 1.0:
            raise ConfigError(
                "stopping threshold must exceed 1; pick a smaller delta"
            )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "epsilon": self.params.epsilon,
            "delta": self.params.delta,
            "model": _model_to_dict(self.model),
            "crash_pattern": _pattern_to_dict(self.crash_pattern),
            "reliability": reliability_to_dict(self.reliability),
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
                model=_model_from_dict(data.get("model", {"kind": "lf"})),
                crash_pattern=_pattern_from_dict(
                    data.get("crash_pattern", {"kind": "none"})
                ),
                reliability=_reliability_from_dict(
                    data.get("reliability", {"kind": "constant", "p": 1.0})
                ),
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
_MODELS = {"lf": LinearFraction, "fp": FractionalPolynomial, "pl": PolyLog}
# Each model kind's config keys: the fields of its dataclass.
MODEL_KEYS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in _MODELS.items()}
_PATTERN_KEYS = {"none": (), "upfront": (), "spread": ("rounds",)}
_RELIABILITY_KEYS = {"constant": ("p",), "uniform": ("lo", "hi"),
                     "explicit": ("values",)}


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


def _kind(data, table: dict, what: str) -> str:
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in table:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    _check_keys(data, ("kind",) + table[kind], f"{kind} {what}")
    return kind


def _model_to_dict(model: AdversaryModel) -> dict:
    if isinstance(model, LinearFraction):
        return {"kind": "lf", "f": model.f}
    if isinstance(model, FractionalPolynomial):
        return {"kind": "fp", "a": model.a, "coeff": model.coeff}
    if isinstance(model, PolyLog):
        return {"kind": "pl", "c": model.c, "coeff": model.coeff}
    raise ConfigError(f"unknown model {model!r}")


def _model_from_dict(data: dict) -> AdversaryModel:
    kind = _kind(data, MODEL_KEYS, "model")
    return _MODELS[kind](**{key: _real(data[key], f"model {key}")
                            for key in MODEL_KEYS[kind] if key in data})


def _pattern_to_dict(pattern: CrashPattern) -> dict:
    if isinstance(pattern, NoCrashes):
        return {"kind": "none"}
    if isinstance(pattern, UpfrontCrashes):
        return {"kind": "upfront"}
    if isinstance(pattern, SpreadCrashes):
        return {"kind": "spread", "rounds": pattern.rounds}
    raise ConfigError(f"unknown crash pattern {pattern!r}")


def _pattern_from_dict(data: dict) -> CrashPattern:
    kind = _kind(data, _PATTERN_KEYS, "crash pattern")
    if kind == "none":
        return NoCrashes()
    if kind == "upfront":
        return UpfrontCrashes()
    return SpreadCrashes(_integer(data["rounds"], "spread rounds"))


def reliability_to_dict(spec: ReliabilitySpec) -> dict:
    if isinstance(spec, ConstantReliability):
        return {"kind": "constant", "p": spec.p}
    if isinstance(spec, UniformReliability):
        return {"kind": "uniform", "lo": spec.lo, "hi": spec.hi}
    if isinstance(spec, ExplicitReliability):
        return {"kind": "explicit", "values": list(spec.values)}
    raise ConfigError(f"unknown reliability spec {spec!r}")


def _reliability_from_dict(data: dict) -> ReliabilitySpec:
    kind = _kind(data, _RELIABILITY_KEYS, "reliability")
    if kind == "constant":
        return ConstantReliability(_real(data["p"], "reliability p"))
    if kind == "uniform":
        return UniformReliability(_real(data["lo"], "reliability lo"),
                                  _real(data["hi"], "reliability hi"))
    return ExplicitReliability(tuple(_real(v, "reliability value")
                                     for v in data["values"]))


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


def deliver(
    messages: Messages, dead: np.ndarray, pop: Population, rnd: int,
    metrics: RunMetrics,
) -> tuple[Messages, Messages]:
    """Route one step's messages, dropping those to dead destinations.

    ``dead`` marks the processors crashed at or before this round or
    already halted.  Messages to them are dropped and counted by reason;
    everything else is delivered exactly once.  Returns (delivered,
    dropped), each in send order.
    """
    lost = dead[messages.dst]
    n_dropped = int(np.count_nonzero(lost))
    metrics.delivered += len(messages) - n_dropped
    if not n_dropped:
        return messages, NO_MESSAGES
    dropped = messages.take(lost)
    n_crashed = int(np.count_nonzero(pop.crash_round[dropped.dst] <= rnd))
    metrics.dropped_to_crashed += n_crashed
    metrics.dropped_to_halted += n_dropped - n_crashed
    return messages.take(~lost), dropped


def run(
    config: RunConfig,
    collect_trace: bool = False,
    trace_kinds=None,
    check_invariants: bool = False,
    keep_states: bool = False,
) -> RunResult:
    """Execute one simulation to completion or the round cap.

    ``check_invariants`` makes the engine assert per-round state invariants
    (knowledge monotonicity, level 0 while unenlightened); intended for
    small-population test runs.
    """
    config.validate()
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
    pop = Population.start(n, schedule.crash_round)
    metrics = RunMetrics(per_processor_halt_round=[None] * n)
    trace = TraceCollector(trace_kinds) if collect_trace else None
    window = StreamWindow(seed, n, max_rounds)
    p = truth.p

    rnd = 0
    while True:
        # Crashed at or before this round, or halted.  Fixed for the round:
        # nobody crashes or halts before gossip compute.
        dead = pop.halted | (pop.crash_round <= rnd)
        active = (~dead).nonzero()[0]
        if not active.size:
            completion = "all_halted"
            break
        if rnd >= max_rounds:
            completion = "round_cap_hit"
            break
        live = active.size

        if trace is not None:
            trace.emit(rnd, "query", "send", "crash",
                       np.flatnonzero(pop.crash_round == rnd).tolist())
        if check_invariants:
            known_before = pop.known[active]

        # ---- query stage ----------------------------------------------------
        draws = window.stage(rnd, "query", active)
        requests = protocol.query_send(pop, active, draws)
        metrics.account_step(live, messages=len(requests))
        metrics.count_messages("task_request", len(requests))
        to_crashed = metrics.dropped_to_crashed
        requests = _route(requests, "query", dead, pop, rnd, metrics, trace)
        metrics.account_step(live)  # receive step
        responses = protocol.query_compute(pop, requests, draws, p)
        metrics.dropped_requests += len(requests) - len(responses)
        metrics.account_step(live, tasks=len(responses))

        # ---- response stage -------------------------------------------------
        metrics.account_step(live, messages=len(responses))
        metrics.count_messages("task_response", len(responses))
        # Every response goes to a requester active this round, so none is
        # dropped: they are counted as delivered without a drop pass.
        if check_invariants:
            assert not np.any(dead[responses.dst]), (
                f"a task response is addressed to a dead processor in round {rnd}"
            )
        metrics.delivered += len(responses)
        if trace is not None:
            _trace_route(responses, responses, NO_MESSAGES, "response", pop, rnd, trace)
        protocol.response_receive(pop, active, responses, pool, rnd)
        # A requester hears nothing if its target crashed (a true crash
        # detection), halted, or served others over the request cap.
        metrics.false_crash_detections += (
            live - len(responses) - (metrics.dropped_to_crashed - to_crashed))
        metrics.account_step(live)  # receive step
        flipped = protocol.response_compute(pop, active, pool)
        metrics.account_step(live)
        if trace is not None:
            trace.emit(rnd, "response", "compute", "enlighten", flipped.tolist())

        # ---- gossip stage ---------------------------------------------------
        gossip = protocol.gossip_send(pop, active, window.stage(rnd, "gossip", active))
        metrics.account_step(live, messages=len(gossip))
        professes = int(np.count_nonzero(gossip.is_profess))
        metrics.count_messages("share", len(gossip) - professes)
        metrics.count_messages("profess", professes)
        gossip = _route(gossip, "gossip", dead, pop, rnd, metrics, trace)
        enlightened_now, level_reset = protocol.gossip_receive(pop, active, gossip)
        metrics.account_step(live)  # receive step
        if trace is not None:
            # The two kinds interleave in id order, enlighten first on a tie;
            # each run of one kind is one batch.
            ids = np.concatenate([enlightened_now, level_reset])
            order = np.argsort(ids, kind="stable")
            is_reset = order >= enlightened_now.size
            cuts = np.flatnonzero(np.diff(is_reset)) + 1
            for part, resets in zip(np.split(ids[order], cuts),
                                    np.split(is_reset, cuts)):
                trace.emit(rnd, "gossip", "receive",
                           "ell_reset" if resets.any() else "enlighten", part.tolist())
        halted = protocol.gossip_compute(pop, active, gossip, pool)
        metrics.account_step(live)
        for pid in halted.tolist():
            metrics.per_processor_halt_round[pid] = rnd
        if trace is not None:
            trace.emit(rnd, "gossip", "compute", "halt", halted.tolist())

        if check_invariants:
            assert np.all(pop.known[active] >= known_before), (
                f"knowledge shrank in round {rnd}"
            )
            assert np.all(pop.enlightened[active] | (pop.level[active] == 0)), (
                f"an unenlightened processor has a nonzero level in round {rnd}"
            )
        rnd += 1

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


_TASK_KIND = {"query": "task_request", "response": "task_response"}


def _kinds(messages: Messages, stage: str) -> list[str]:
    if stage == "gossip":
        return np.where(messages.is_profess, "profess", "share").tolist()
    return [_TASK_KIND[stage]] * len(messages)


def _route(messages, stage, dead, pop, rnd, metrics, trace) -> Messages:
    """Deliver one step's messages, tracing sends, drops and receives."""
    delivered, dropped = deliver(messages, dead, pop, rnd, metrics)
    if trace is not None:
        _trace_route(messages, delivered, dropped, stage, pop, rnd, trace)
    return delivered


def _trace_route(sent, delivered, dropped, stage, pop, rnd, trace) -> None:
    """Trace one step's sends in send order, its drops in send order and its
    receives by destination."""
    payload = {"type": _kinds(sent, stage), "to": sent.dst.tolist()}
    if stage == "gossip":
        payload["ell"] = sent.level.tolist()
    trace.emit(rnd, stage, "send", "send", sent.src.tolist(), **payload)
    if len(dropped):
        crashed = pop.crash_round[dropped.dst] <= rnd
        trace.emit(rnd, stage, "receive", "drop", dropped.dst.tolist(),
                   type=_kinds(dropped, stage),
                   reason=np.where(crashed, "crashed", "halted").tolist())
    by_dst = delivered.take(np.argsort(delivered.dst, kind="stable"))
    trace.emit(rnd, stage, "receive", "receive", by_dst.dst.tolist(),
               type=_kinds(by_dst, stage))
