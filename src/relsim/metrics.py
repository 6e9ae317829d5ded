"""Efficiency and accuracy accounting for simulation runs.

Three cost measures are tracked: time (rounds until every live processor
halts), work (total steps executed by live, unhalted processors; nine steps
per round), and messages (point-to-point sends; a multicast to k distinct
destinations counts k).  Accuracy reports compare final estimates against
the adversary's hidden truth.  The engine adds each step's counts once per
step, for the whole population at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np


class MetricsDomainError(ValueError):
    """Invalid input to a metrics computation."""


MESSAGE_KINDS = ("task_request", "task_response", "share", "profess")


@dataclass
class RunMetrics:
    """Counters accumulated over one run."""

    rounds_to_all_halt: int = 0
    work_steps: int = 0
    messages_total: int = 0
    messages_by_type: dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in MESSAGE_KINDS}
    )
    tasks_executed: int = 0
    false_crash_detections: int = 0
    dropped_requests: int = 0
    per_processor_halt_round: list = field(default_factory=list)
    # Delivery ledger for conservation checks.
    delivered: int = 0
    dropped_to_crashed: int = 0
    dropped_to_halted: int = 0

    def account_step(self, steps: int, messages: int = 0, tasks: int = 0):
        """``steps`` processor-steps by live, unhalted processors, which sent
        ``messages`` and executed ``tasks`` between them."""
        self.work_steps += steps
        self.messages_total += messages
        self.tasks_executed += tasks

    def count_messages(self, kind: str, count: int):
        self.messages_by_type[kind] += count

    def conservation_ok(self) -> bool:
        """Every send was delivered once or dropped at a dead destination."""
        by_type = sum(self.messages_by_type.values())
        routed = self.delivered + self.dropped_to_crashed + self.dropped_to_halted
        return self.messages_total == by_type == routed


@dataclass
class AccuracyReport:
    """Estimate quality of one completed run against the hidden truth.

    Band membership uses [p*(1-epsilon), p*(1+epsilon)] and is evaluated
    only for numeric estimates about targets that never crashed.  A -1 mark
    on a crashed target is a true positive; on a live one, a false positive.
    """

    fraction_within_band: float
    n_within: int
    n_numeric_live: int
    crash_true_positives: int
    crash_false_positives: int
    undetermined: int
    live_pairs: int


def accuracy(run, truth, schedule, params) -> AccuracyReport:
    """Score a run's estimates against the adversary's choices.

    ``run`` is an engine RunResult; targets count as crashed only if their
    scheduled crash round precedes the end of the run.
    """
    n = run.config.n
    p = truth.p
    eps = params.epsilon
    lo = p * (1.0 - eps)
    hi = p * (1.0 + eps)
    executed = run.metrics.rounds_to_all_halt
    crashed = np.zeros(n, dtype=bool)
    for pid, rnd in schedule.crash_round.items():
        if rnd < executed:
            crashed[pid] = True
    live = ~crashed

    n_within = 0
    n_numeric_live = 0
    tp = 0
    fp = 0
    undetermined = 0
    observers = 0

    for _pid, est in run.estimates.items():
        observers += 1
        is_undet = np.isnan(est)
        is_crashmark = est == -1.0
        numeric = ~(is_undet | is_crashmark)
        undetermined += int(is_undet.sum())
        tp += int((is_crashmark & crashed).sum())
        fp += int((is_crashmark & live).sum())
        numeric_live = numeric & live
        n_numeric_live += int(numeric_live.sum())
        within = numeric_live & (est >= lo) & (est <= hi)
        n_within += int(within.sum())

    fraction = n_within / n_numeric_live if n_numeric_live else 0.0
    return AccuracyReport(
        fraction_within_band=fraction,
        n_within=n_within,
        n_numeric_live=n_numeric_live,
        crash_true_positives=tp,
        crash_false_positives=fp,
        undetermined=undetermined,
        live_pairs=observers * int(live.sum()),
    )


# --- growth-model fitting ------------------------------------------------------

GROWTH_MODELS: dict[str, Callable[[float], float]] = {
    "log2": lambda n: math.log2(n),
    "nlog2": lambda n: n * math.log2(n),
    "nlog2sq": lambda n: n * math.log2(n) ** 2,
    "linear": lambda n: float(n),
}


@dataclass(frozen=True)
class GrowthReport:
    """How a measured series compares with a claimed growth model.

    ``normalized`` is metric/model(n) per grid point, ``ratios`` the
    successive quotients of normalized values (1.0 everywhere means the
    model matches exactly), ``loglog_slope`` the least-squares slope of
    log(metric) against log(model(n)) (1.0 for a perfect fit, > 1 when the
    metric grows faster than claimed), and ``max_rel_deviation`` the largest
    relative distance of a normalized value from their mean.
    """

    sizes: tuple[int, ...]
    normalized: tuple[float, ...]
    ratios: tuple[float, ...]
    loglog_slope: float
    max_rel_deviation: float

    def is_flat(self, band: float) -> bool:
        return self.max_rel_deviation <= band


def scaling_fit(
    series: Sequence[tuple[int, float]],
    model: Union[str, Callable[[float], float]],
) -> GrowthReport:
    """Fit a measured (n, mean metric) series against a growth model."""
    if len(series) < 3:
        raise MetricsDomainError(
            f"need at least 3 grid points, got {len(series)}"
        )
    fn = GROWTH_MODELS[model] if isinstance(model, str) else model
    sizes = tuple(int(n) for n, _ in series)
    values = [float(v) for _, v in series]
    if any(v <= 0 for v in values):
        raise MetricsDomainError("metric values must be positive")
    normalized = tuple(v / fn(n) for (n, _), v in zip(series, values))
    ratios = tuple(b / a for a, b in zip(normalized, normalized[1:]))
    xs = np.log([fn(n) for n in sizes])
    ys = np.log(values)
    slope = float(np.polyfit(xs, ys, 1)[0])
    mean = sum(normalized) / len(normalized)
    max_dev = max(abs(v - mean) / mean for v in normalized)
    return GrowthReport(
        sizes=sizes,
        normalized=normalized,
        ratios=ratios,
        loglog_slope=slope,
        max_rel_deviation=max_dev,
    )
