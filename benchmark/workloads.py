"""Benchmark workloads: seeded batches of relsim runs and the checks on their outputs.

A workload is built from a seed and a name; the seed fixes every simulation
seed and crash window in it, so the same seed gives the same inputs.  One
*operation* is one pass over the workload's batch of runs; the benchmark
times operations and checks each one.

The engine, metrics and harness entry points are looked up through their
modules at call time (``engine.run``, ``metrics.accuracy``, ...) so that the
span wrappers of :mod:`spans` see these calls.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field, replace
from functools import cache
from pathlib import Path

import numpy as np

from relsim import engine, harness, metrics
from relsim.adversary import (
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import RunConfig
from relsim.estimator import EstimationParams

PARAMS = EstimationParams(0.5, 0.1)

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WHY = {
    "lf-dense": "two lf runs at n=256: almost every worker is live until the cascade, "
                "so whole-population steps, satisfies and estimate_all dominate",
    "fp-sparse": "three fp runs at n=256 with 16 survivors: per-round overhead and "
                 "satisfies dominate; the control for estimate_all changes",
    "small-many": "27 runs at n=8..32 over lf/fp/pl and three crash patterns: "
                  "per-run fixed costs and the request-cap overflow path",
    "traced-replay": "one lf run at n=128 whose full trace is written, read back and "
                     "replayed byte for byte: the only workload using the trace layer",
}

# The outputs each workload must reproduce at the recorded seeds; written by
# record.py.
EXPECTED_FILE = Path(__file__).with_name("expected.json")

SMALL_MANY_N = (8, 16, 32)
SMALL_MANY_MODELS = (LinearFraction(0.25), FractionalPolynomial(0.5), PolyLog(1.0))
# Generous and explicit, so the batch does not depend on the default round cap.
SMALL_MANY_MAX_ROUNDS = 5000


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: tuple[RunConfig, ...]
    # Trace every run, write the trace to a file and regenerate it from the
    # file's header, as ``relsim replay`` does.
    replay: bool = False
    # The outputs recorded for this workload and seed (see :func:`outputs`),
    # or None when the seed was not recorded.
    expected: dict | None = None


def _sim_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2**32) for _ in range(count)]


def _upfront_batch(name, seed, model, n, count, replay=False) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    configs = tuple(
        RunConfig(n=n, params=PARAMS, model=model,
                  crash_pattern=UpfrontCrashes(), seed=s)
        for s in _sim_seeds(rng, count)
    )
    return Workload(name, seed, configs, replay)


def _small_many(seed: int) -> Workload:
    # Every (n, model, pattern) combination once; only the simulation seeds
    # and spread windows come from the workload seed, which keeps the batch
    # size the same across seeds.  27 runs take about as long as one
    # operation of the other workloads, so a run still times ten or so.
    rng = random.Random(f"small-many/{seed}")
    configs = []
    for n in SMALL_MANY_N:
        for model in SMALL_MANY_MODELS:
            for pattern in (NoCrashes(), UpfrontCrashes(),
                            SpreadCrashes(rng.randrange(1, 16))):
                configs.append(RunConfig(
                    n=n, params=PARAMS, model=model, crash_pattern=pattern,
                    reliability=UniformReliability(0.5, 1.0),
                    seed=rng.randrange(2**32),
                    max_rounds=SMALL_MANY_MAX_ROUNDS,
                ))
    return Workload("small-many", seed, tuple(configs))


def batch(name: str, seed: int) -> Workload:
    """The named workload's batch of run configs for ``seed``, without its
    recorded outputs."""
    if name == "lf-dense":
        return _upfront_batch(name, seed, LinearFraction(0.25), 256, 2)
    if name == "fp-sparse":
        return _upfront_batch(name, seed, FractionalPolynomial(0.5), 256, 3)
    if name == "small-many":
        return _small_many(seed)
    if name == "traced-replay":
        return _upfront_batch(name, seed, LinearFraction(0.25), 128, 1, replay=True)
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WHY)}")


@cache
def recorded() -> dict:
    """workload name -> seed (as a string) -> recorded outputs."""
    return json.loads(EXPECTED_FILE.read_text())


def build(name: str, seed: int) -> Workload:
    """The named workload's batch of run configs for ``seed``, with the
    outputs recorded for that seed if there are any."""
    workload = batch(name, seed)
    return replace(workload, expected=recorded().get(name, {}).get(str(seed)))


def warm_up(scratch: Path) -> None:
    """One tiny traced-and-replayed run, untimed, so lazy set-up in numpy and
    relsim happens before the first timed operation."""
    config = RunConfig(n=16, params=PARAMS, crash_pattern=UpfrontCrashes())
    execute(Workload("warm-up", 0, (config,), replay=True), scratch)


@dataclass
class OpResult:
    """Outcome of one operation: its wall time, costs, digest and failed checks."""

    wall_s: float
    # Mean seconds of the reference loop timed just before and just after
    # this operation.
    ref_s: float = 0.0
    rounds: int = 0
    work: int = 0
    messages: int = 0
    processor_rounds: int = 0
    n_within: int = 0
    n_numeric_live: int = 0
    trace_bytes: int = 0
    digest: str = ""
    failures: list[str] = field(default_factory=list)


def outputs(op: OpResult) -> dict:
    """What an operation computed: T, W, M, the within-band counts and the
    digest.  All of it is exact at a fixed seed."""
    return {"T": op.rounds, "W": op.work, "M": op.messages, "within": op.n_within,
            "numeric_live": op.n_numeric_live, "digest": op.digest}


def _digest_update(h, result) -> None:
    m = result.metrics
    h.update(f"{m.rounds_to_all_halt},{m.work_steps},{m.messages_total};".encode())
    for pid in sorted(result.estimates):
        h.update(pid.to_bytes(4, "little"))
        h.update(np.ascontiguousarray(result.estimates[pid], dtype="<f8").tobytes())


def _run_checks(config: RunConfig, result) -> list[str]:
    failures = []
    rounds = result.metrics.rounds_to_all_halt
    if result.completion != "all_halted":
        failures.append(f"seed {config.seed}: completion {result.completion}")
    crashed = sum(1 for r in result.schedule.crash_round.values() if r < rounds)
    halted = sum(1 for r in result.metrics.per_processor_halt_round if r is not None)
    if halted != config.n - crashed:
        failures.append(f"seed {config.seed}: {halted} halted, "
                        f"{config.n - crashed} never crashed")
    if not result.metrics.conservation_ok():
        failures.append(f"seed {config.seed}: message conservation broken")
    return failures


def _replay_mismatch(path: Path) -> str | None:
    """Regenerate a trace file from its header; describe any difference."""
    original = path.read_text()
    header = json.loads(original.splitlines()[0])
    config = RunConfig.from_dict(header["config"])
    result = engine.run(config, collect_trace=True,
                        trace_kinds=header.get("trace_kinds"))
    if harness.render_trace(result) != original:
        return f"seed {config.seed}: replayed trace differs from the file"
    return None


def execute(workload: Workload, scratch: Path) -> OpResult:
    """Run one operation of ``workload``; checks run after the timed part."""
    outcomes = []
    start = time.perf_counter()
    for i, config in enumerate(workload.configs):
        replay_failure = None
        if workload.replay:
            result = engine.run(config, collect_trace=True)
            path = scratch / f"run{i}.trace"
            harness.write_trace(result, path)
            result.trace = None
            replay_failure = _replay_mismatch(path)
        else:
            result = engine.run(config)
        report = metrics.accuracy(result, result.truth, result.schedule, config.params)
        outcomes.append((config, result, report, replay_failure))
    op = OpResult(wall_s=time.perf_counter() - start)

    h = hashlib.sha256()
    for i, (config, result, report, replay_failure) in enumerate(outcomes):
        m = result.metrics
        op.rounds += m.rounds_to_all_halt
        op.work += m.work_steps
        op.messages += m.messages_total
        op.processor_rounds += config.n * m.rounds_to_all_halt
        op.n_within += report.n_within
        op.n_numeric_live += report.n_numeric_live
        op.failures += _run_checks(config, result)
        if replay_failure:
            op.failures.append(replay_failure)
        if workload.replay:
            path = scratch / f"run{i}.trace"
            op.trace_bytes += path.stat().st_size
            path.unlink()
        _digest_update(h, result)
    op.digest = h.hexdigest()
    if workload.expected is not None and outputs(op) != workload.expected:
        op.failures.append(f"{workload.name} seed {workload.seed}: outputs "
                           f"{outputs(op)} differ from the recorded {workload.expected}")
    return op
