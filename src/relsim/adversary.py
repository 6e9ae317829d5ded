"""Oblivious adversary: hidden per-worker reliabilities and crash schedules.

Everything here is decided before a run starts, as a pure function of
``(n, model, pattern, seed)``: the adversary never observes protocol state
or coin flips.  Outputs are immutable once generated and can be shared
freely across threads.

Every spec rejects its own out-of-range values when constructed, and
:func:`max_crashes` alone holds a model's survivor floor against n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class AdversaryDomainError(ValueError):
    """Adversary parameters outside their valid domain."""


# --- reliability -------------------------------------------------------------


@dataclass(frozen=True)
class ConstantReliability:
    p: float

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise AdversaryDomainError(f"constant p must be in (0, 1], got {self.p}")


@dataclass(frozen=True)
class UniformReliability:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 < self.lo <= self.hi <= 1.0):
            raise AdversaryDomainError(
                f"uniform range must satisfy 0 < lo <= hi <= 1, got [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class ExplicitReliability:
    values: tuple[float, ...]

    def __post_init__(self):
        if not all(0.0 < v <= 1.0 for v in self.values):
            raise AdversaryDomainError("explicit values must lie in (0, 1]")


ReliabilitySpec = Union[ConstantReliability, UniformReliability, ExplicitReliability]


@dataclass(frozen=True, eq=False)
class ReliabilityAssignment:
    """Hidden per-worker probabilities of returning a correct result.

    Every entry is strictly positive and at most 1; values are fixed for the
    whole run.
    """

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        if p.ndim != 1 or p.size == 0:
            raise AdversaryDomainError("reliability array must be 1-D and nonempty")
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise AdversaryDomainError("every reliability must lie in (0, 1]")
        p.setflags(write=False)


def assign_probabilities(
    n: int, spec: ReliabilitySpec, rng: np.random.Generator
) -> ReliabilityAssignment:
    """Draw the hidden reliability vector for ``n`` workers per ``spec``.

    Deterministic under the supplied generator.
    """
    if n < 1:
        raise AdversaryDomainError(f"n must be >= 1, got {n}")
    if isinstance(spec, ConstantReliability):
        values = np.full(n, spec.p, dtype=np.float64)
    elif isinstance(spec, UniformReliability):
        values = rng.uniform(spec.lo, spec.hi, size=n)
    elif isinstance(spec, ExplicitReliability):
        if len(spec.values) != n:
            raise AdversaryDomainError(
                f"explicit list has {len(spec.values)} entries, expected {n}"
            )
        values = np.asarray(spec.values, dtype=np.float64)
    else:
        raise AdversaryDomainError(f"unknown reliability spec {spec!r}")
    return ReliabilityAssignment(values)


# --- crash-count constraint models -------------------------------------------


@dataclass(frozen=True)
class LinearFraction:
    """At most ``f * n`` crashes: survivors >= (1 - f) * n."""

    f: float = 0.25

    def __post_init__(self):
        if not (0.0 <= self.f < 1.0):
            raise AdversaryDomainError(f"f must be in [0, 1), got {self.f}")

    def survivor_floor(self, n: int) -> float:
        return (1.0 - self.f) * n


@dataclass(frozen=True)
class FractionalPolynomial:
    """Survivors >= coeff * n**a for a in (0, 1)."""

    a: float = 0.5
    coeff: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.a < 1.0):
            raise AdversaryDomainError(f"a must be in (0, 1), got {self.a}")
        if not self.coeff > 0.0:
            raise AdversaryDomainError(f"coeff must be > 0, got {self.coeff}")

    def survivor_floor(self, n: int) -> float:
        return self.coeff * n**self.a


@dataclass(frozen=True)
class PolyLog:
    """Survivors >= coeff * log2(n)**c for c >= 1."""

    c: float = 1.0
    coeff: float = 1.0

    def __post_init__(self):
        if not self.c >= 1.0:
            raise AdversaryDomainError(f"c must be >= 1, got {self.c}")
        if not self.coeff > 0.0:
            raise AdversaryDomainError(f"coeff must be > 0, got {self.coeff}")

    def survivor_floor(self, n: int) -> float:
        if n == 1:
            return 0.0
        return self.coeff * math.log2(n) ** self.c


AdversaryModel = Union[LinearFraction, FractionalPolynomial, PolyLog]


# --- crash timing patterns ----------------------------------------------------


@dataclass(frozen=True)
class NoCrashes:
    pass


@dataclass(frozen=True)
class UpfrontCrashes:
    """All scheduled victims crash at round 0."""


@dataclass(frozen=True)
class SpreadCrashes:
    """Victims crash at rounds drawn uniformly from [0, rounds)."""

    rounds: int = 32

    def __post_init__(self):
        if self.rounds < 1:
            raise AdversaryDomainError(f"spread rounds must be >= 1, got {self.rounds}")


CrashPattern = Union[NoCrashes, UpfrontCrashes, SpreadCrashes]


@dataclass(frozen=True, eq=False)
class CrashSchedule:
    """Partial map from worker id to the round at which it crashes.

    Absent ids never crash.  A worker with crash round ``r`` performs no
    action in any stage of round ``r`` or later, and messages addressed to it
    from round ``r`` on are dropped.
    """

    crash_round: dict[int, int]


def max_crashes(n: int, model: AdversaryModel) -> int:
    """Largest crash count the model permits for a population of ``n``."""
    floor = model.survivor_floor(n)
    if floor > n:
        raise AdversaryDomainError(
            f"model requires {floor:.3g} survivors but only {n} workers exist"
        )
    # Tolerance absorbs float dirt in products like (1 - f) * n.
    min_survivors = math.ceil(floor - 1e-9)
    return n - max(0, min_survivors)


def generate_crash_schedule(
    n: int,
    model: AdversaryModel,
    pattern: CrashPattern,
    rng: np.random.Generator,
) -> CrashSchedule:
    """Pick victims and crash rounds for the maximum the model allows.

    ``NoCrashes`` yields an empty schedule regardless of the model.  Victims
    are drawn uniformly without replacement; crash rounds follow the pattern
    (upfront: all at round 0; spread: uniform over the pattern's window).
    """
    count = max_crashes(n, model)
    if isinstance(pattern, NoCrashes) or count == 0:
        return CrashSchedule({})
    victims = np.sort(rng.choice(n, size=count, replace=False))
    if isinstance(pattern, UpfrontCrashes):
        rounds = np.zeros(count, dtype=np.int64)
    elif isinstance(pattern, SpreadCrashes):
        rounds = rng.integers(0, pattern.rounds, size=count)
    else:
        raise AdversaryDomainError(f"unknown crash pattern {pattern!r}")
    return CrashSchedule({int(v): int(r) for v, r in zip(victims, rounds)})
