"""Simulator and library for decentralized worker-reliability estimation.

A population of crash-prone workers with hidden per-worker correctness
probabilities cooperatively estimates every probability to a relative-error
guarantee, using test-task queries and gossip, and terminates without global
coordination.  The package provides the stopping-rule estimator, the
per-processor protocol, adversary generation, a deterministic round engine,
efficiency metrics, and a CLI harness.
"""

from .adversary import (
    AdversaryDomainError,
    AdversaryModel,
    ConstantReliability,
    CrashSchedule,
    ExplicitReliability,
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    ReliabilityAssignment,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
    assign_probabilities,
    generate_crash_schedule,
)
from .engine import ConfigError, RunConfig, RunResult, rng_stream, run
from .estimator import (
    CRASHED,
    UNDETERMINED,
    EstimationParams,
    InsufficientSamplesError,
    ParameterDomainError,
    ResultRecord,
    estimate_one,
    estimation,
    gamma,
    gamma1,
    sra_run,
)
from .metrics import AccuracyReport, GrowthReport, RunMetrics, accuracy, scaling_fit

__all__ = [
    "AccuracyReport",
    "AdversaryDomainError",
    "AdversaryModel",
    "CRASHED",
    "ConfigError",
    "ConstantReliability",
    "CrashSchedule",
    "EstimationParams",
    "ExplicitReliability",
    "FractionalPolynomial",
    "GrowthReport",
    "InsufficientSamplesError",
    "LinearFraction",
    "NoCrashes",
    "ParameterDomainError",
    "PolyLog",
    "ReliabilityAssignment",
    "ResultRecord",
    "RunConfig",
    "RunMetrics",
    "RunResult",
    "SpreadCrashes",
    "UNDETERMINED",
    "UniformReliability",
    "UpfrontCrashes",
    "accuracy",
    "assign_probabilities",
    "estimate_one",
    "estimation",
    "gamma",
    "gamma1",
    "generate_crash_schedule",
    "rng_stream",
    "run",
    "scaling_fit",
    "sra_run",
]

__version__ = "0.1.0"
