"""Sequential stopping-rule estimation of a mean in [0, 1].

The estimator stops sampling once the running sum of observations reaches a
threshold derived from the requested relative error ``epsilon`` and failure
probability ``delta``, and outputs ``threshold / N``.  Two variants of the
same rule are exposed:

* :func:`sra_run` consumes a pull-based sample stream and divides the
  threshold by the *first* count at which the running sum reaches it.
* :func:`estimate_one` replays a recorded history of 0/1 outcomes in round
  order and divides by the *last* prefix length whose sum is still below the
  threshold (exactly one less than the stream variant's count on the same
  sequence).

The protocol layer uses the replay variant.  A recorded ``res = -1``
observation means the worker never answered and dominates everything else:
the worker is reported as crashed.  A history that never accumulates enough
mass yields the distinguished :data:`UNDETERMINED` value rather than an
error, so callers can surface insufficiency instead of crashing on small
populations.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

#: Fixed multiplier of the stopping-rule threshold. Not configurable.
LAMBDA = math.e - 2.0

#: Sentinel estimate meaning "a crash was detected for this worker".
CRASHED = -1.0


class ParameterDomainError(ValueError):
    """Estimation parameters outside their valid domain."""


class InsufficientSamplesError(RuntimeError):
    """Sample stream ended before the running sum reached the threshold.

    Carries the partial sum and the number of samples consumed so far.
    """

    def __init__(self, partial_sum: float, trials: int):
        super().__init__(
            f"stream exhausted after {trials} samples, "
            f"running sum {partial_sum:.6g} below threshold"
        )
        self.partial_sum = partial_sum
        self.trials = trials


class _Undetermined:
    """Singleton marker for "not enough samples to estimate"."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDETERMINED"

    def __reduce__(self):
        return (_undetermined, ())


def _undetermined() -> "_Undetermined":
    return UNDETERMINED


#: Singleton returned when a history never reaches the stopping threshold.
UNDETERMINED = _Undetermined()

#: A single worker estimate: a probability-like value, CRASHED, or UNDETERMINED.
EstimateValue = Union[float, _Undetermined]


@dataclass(frozen=True)
class EstimationParams:
    """Relative-error bound and failure probability of the estimator.

    ``epsilon`` must lie strictly inside (0, 1); ``delta`` must be positive
    and finite; and together they must give a finite stopping threshold
    :func:`gamma1`, which a tiny epsilon or delta overflows.
    """

    epsilon: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ParameterDomainError(
                f"epsilon must be in (0, 1), got {self.epsilon}"
            )
        if not 0.0 < self.delta < math.inf:
            raise ParameterDomainError(f"delta must be finite and > 0, got {self.delta}")
        # epsilon**2 underflows to 0 below about 1e-162.
        if not (self.epsilon**2 > 0.0 and math.isfinite(gamma1(self))):
            raise ParameterDomainError(
                f"epsilon {self.epsilon} and delta {self.delta} give no finite "
                "stopping threshold"
            )

    @property
    def lam(self) -> float:
        return LAMBDA


class ResultRecord(NamedTuple):
    """One observation of a worker's task outcome.

    ``res`` is 1 for a correct result, 0 for an incorrect one, -1 when no
    response arrived (evidence of a crash).  ``src`` is the processor that
    requested the task and ``rnd`` the round in which it was requested.
    """

    res: int
    src: int
    rnd: int


def gamma(params: EstimationParams) -> float:
    """Base sample-mass threshold ``4 * lambda * ln(2/delta) / epsilon^2``.

    Natural logarithm; strictly decreasing in both epsilon and delta.  In
    floating point it is only non-increasing: inputs a few ulps apart, such
    as delta 0.9 and the double below it, can give the same value.
    """
    return 4.0 * LAMBDA * math.log(2.0 / params.delta) / (params.epsilon**2)


def gamma1(params: EstimationParams) -> float:
    """Stopping threshold ``1 + (1 + epsilon) * gamma``."""
    return 1.0 + (1.0 + params.epsilon) * gamma(params)


def sra_run(
    sample_source: Iterable[float], params: EstimationParams
) -> tuple[float, int]:
    """Run the stopping rule on a stream of values in [0, 1].

    Pulls samples until the running sum first reaches the threshold and
    returns ``(threshold / N, N)`` where ``N`` is the number of samples
    consumed.  Raises :class:`InsufficientSamplesError` if the stream is
    exhausted first.
    """
    g1 = gamma1(params)
    if g1 <= 0.0:
        raise ParameterDomainError(
            f"stopping threshold {g1:.6g} is not positive; delta too large"
        )
    total = 0.0
    count = 0
    for z in sample_source:
        count += 1
        total += z
        if total >= g1:
            return g1 / count, count
    raise InsufficientSamplesError(total, count)


def _record_sort_key(record) -> tuple:
    # Round ascending; ties broken by requester id ascending, then res
    # descending, so replay order is independent of input ordering.
    return (record.rnd, record.src, -record.res)


def estimate_one(
    records: Iterable[ResultRecord], params: EstimationParams
) -> EstimateValue:
    """Estimate one worker's success probability from its recorded history.

    Any ``res = -1`` record short-circuits to :data:`CRASHED`.  Otherwise
    records are replayed sorted by :func:`_record_sort_key` and the estimate
    is ``threshold / N`` for the largest prefix of length ``N`` whose res-sum
    is still below the threshold.  Returns :data:`UNDETERMINED` when the full
    history never reaches the threshold.
    """
    g1 = gamma1(params)
    if g1 <= 1.0:
        raise ParameterDomainError(
            f"stopping threshold {g1:.6g} <= 1 leaves no valid prefix; "
            "delta too large"
        )
    recs = list(records)
    if any(r.res == -1 for r in recs):
        return CRASHED
    recs.sort(key=_record_sort_key)
    total = 0
    for index, rec in enumerate(recs):
        total += rec.res
        if total >= g1:
            # g1 > 1 and res <= 1 guarantee the crossing index is >= 1.
            return g1 / index
    return UNDETERMINED


def estimation(
    knowledge: Sequence[Iterable[ResultRecord]], params: EstimationParams
) -> list[EstimateValue]:
    """Element-wise :func:`estimate_one` over per-worker record collections."""
    return [estimate_one(records, params) for records in knowledge]
