"""Built-in acceptance suite: one check per shipped guarantee.

Each criterion function returns a :class:`CriterionResult`; ``run_criteria``
executes a selection and is what both the CLI ``verify`` subcommand and the
pytest acceptance module drive.  All checks are deterministic (fixed seeds)
and headless.  Criteria 3, 5 and 6 are grids of n crossed with consecutive
seeds, so each runs as one :func:`relsim.harness.sweep` and reads its rows;
each starts at most ``min(2, runs, CPUs)`` worker processes.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import engine
from .adversary import (
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
)
from .engine import RunConfig, rng_stream
from .estimator import (
    UNDETERMINED,
    EstimationParams,
    ResultRecord,
    estimate_one,
    gamma1,
    sra_run,
)
from .harness import ExperimentSpec, sweep
from .metrics import accuracy, scaling_fit
from .trace import CODES, EVENT_KINDS, Batch

_POOL_WORKERS = 2


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time, set by run_criteria


def _bernoulli_stream(rng: np.random.Generator, p: float, block: int = 8192):
    while True:
        for v in rng.random(block) < p:
            yield int(v)


def criterion_1() -> CriterionResult:
    """Stopping-rule guarantee: in-band fraction and mean trial count."""
    params = EstimationParams(0.2, 0.05)
    g1 = gamma1(params)
    trials = 2000
    details = []
    passed = True
    for idx, p in enumerate((0.2, 0.5, 0.9)):
        rng = rng_stream(101, idx, 0, "query")
        stream = _bernoulli_stream(rng, p)
        in_band = 0
        total_n = 0
        lo, hi = p * 0.8, p * 1.2
        for _ in range(trials):
            est, count = sra_run(stream, params)
            total_n += count
            if lo <= est <= hi:
                in_band += 1
        frac = in_band / trials
        mean_n = total_n / trials
        ok = frac >= 0.93 and mean_n <= 1.1 * g1 / p
        passed &= ok
        details.append(f"p={p}: in-band {frac:.3f}, mean N {mean_n:.0f} "
                       f"(cap {1.1 * g1 / p:.0f})")
    return CriterionResult(1, "stopping-rule statistical guarantee", passed,
                           "; ".join(details))


def _oracle_estimate(records, params):
    # Straight-line prefix-sum oracle, independent of the estimator module's
    # implementation: explicit sort, explicit scan.
    g1 = gamma1(params)
    for rec in records:
        if rec.res == -1:
            return -1.0
    ordered = sorted(records, key=lambda t: (t.rnd, t.src, -t.res))
    prefix = 0
    for k in range(len(ordered)):
        prefix = prefix + ordered[k].res
        if prefix >= g1:
            return g1 / k
    return UNDETERMINED


def criterion_2() -> CriterionResult:
    """Replay estimator matches an independent prefix-sum oracle exactly."""
    rng = rng_stream(202, 0, 0, "query")
    mismatches = 0
    checked = {"numeric": 0, "crash": 0, "undetermined": 0}
    for _ in range(500):
        length = int(rng.integers(1, 5001))
        eps = float(rng.uniform(0.1, 0.9))
        delta = float(rng.uniform(0.01, 0.5))
        params = EstimationParams(eps, delta)
        res = rng.integers(0, 2, size=length)
        if rng.random() < 0.15:
            res[int(rng.integers(length))] = -1
        rnds = rng.integers(0, max(1, length // 2), size=length)
        srcs = rng.integers(0, 64, size=length)
        records = [
            ResultRecord(int(v), int(s), int(r))
            for v, s, r in zip(res, srcs, rnds)
        ]
        got = estimate_one(records, params)
        want = _oracle_estimate(records, params)
        if got is UNDETERMINED:
            checked["undetermined"] += 1
            ok = want is UNDETERMINED
        elif got == -1.0:
            checked["crash"] += 1
            ok = want == -1.0
        else:
            checked["numeric"] += 1
            ok = got == want
        mismatches += 0 if ok else 1
    passed = mismatches == 0
    return CriterionResult(
        2, "replay estimator oracle equivalence", passed,
        f"500 histories, {mismatches} mismatches "
        f"(numeric {checked['numeric']}, crash {checked['crash']}, "
        f"undetermined {checked['undetermined']})")


def _sweep(grid: tuple[int, ...], trials: int, **fields) -> list[dict]:
    """The trial and aggregate rows of ``trials`` runs per n in ``grid``, at
    eps 0.5, delta 0.1 and seeds ``seed``, ``seed + 1``, ..."""
    base = RunConfig(n=grid[0], params=EstimationParams(0.5, 0.1), **fields)
    return sweep(ExperimentSpec(grid=grid, trials=trials, base=base, jobs=_POOL_WORKERS))


def criterion_3() -> CriterionResult:
    """End-to-end approximation without crashes at n=256."""
    rows = _sweep((256,), 20, model=LinearFraction(0.0), crash_pattern=NoCrashes(),
                  reliability=UniformReliability(0.3, 1.0), seed=300)
    rows = [r for r in rows if r["row_type"] == "trial"]
    all_halted = all(
        r["completion"] == "all_halted"
        and r["halted"] == r["n"]
        for r in rows
    )
    undetermined = sum(r["undetermined"] for r in rows)
    within = sum(r["n_within"] for r in rows)
    numeric = sum(r["n_numeric_live"] for r in rows)
    fraction = within / numeric if numeric else 0.0
    passed = all_halted and undetermined == 0 and fraction >= 1 - 0.1 - 0.03
    return CriterionResult(
        3, "end-to-end approximation (n=256, no crashes)", passed,
        f"all halted: {all_halted}, pooled in-band {fraction:.4f} "
        f"(need >= 0.87), undetermined {undetermined}")


def criterion_4() -> CriterionResult:
    """Crash detection under upfront linear-fraction crashes at n=128."""
    passed = True
    details = []
    total_fp = 0
    total_pairs = 0
    for s in range(5):
        config = RunConfig(
            n=128,
            params=EstimationParams(0.5, 0.1),
            model=LinearFraction(0.25),
            crash_pattern=UpfrontCrashes(),
            seed=400 + s,
        )
        result = engine.run(config)
        crashed = set(result.schedule.crash_round)
        marks_ok = all(
            all(est[j] == -1.0 for j in crashed)
            for est in result.estimates.values()
        )
        report = accuracy(result, result.truth, result.schedule, config.params)
        total_fp += report.crash_false_positives
        total_pairs += report.live_pairs
        passed &= marks_ok and result.completion == "all_halted"
        if not marks_ok:
            details.append(f"seed {config.seed}: missing crash marks")
    fp_rate = total_fp / total_pairs if total_pairs else 0.0
    passed &= fp_rate <= 0.02
    details.append(f"false positives {total_fp}/{total_pairs} ({fp_rate:.4f}, cap 0.02)")
    return CriterionResult(4, "crash detection (n=128, upfront f=0.25)",
                           passed, "; ".join(details))


def criterion_5() -> CriterionResult:
    """Growth shape under the linear-fraction model."""
    sizes = (128, 256, 512, 1024, 2048)
    rows = _sweep(sizes, 10, model=LinearFraction(0.25), crash_pattern=UpfrontCrashes(),
                  seed=500)
    means = {r["n"]: r for r in rows if r["row_type"] == "aggregate"}
    fit_t = scaling_fit([(n, means[n]["T"]) for n in sizes], "log2")
    fit_w = scaling_fit([(n, means[n]["W"]) for n in sizes], "nlog2")
    fit_m = scaling_fit([(n, means[n]["M"]) for n in sizes], "nlog2sq")
    passed = (
        fit_t.is_flat(0.35) and fit_w.is_flat(0.50) and fit_m.is_flat(0.50)
    )
    return CriterionResult(
        5, "linear-fraction growth shape", passed,
        f"T/log2n dev {fit_t.max_rel_deviation:.2f} (cap 0.35), "
        f"W/(n log2 n) dev {fit_w.max_rel_deviation:.2f} (cap 0.50), "
        f"M/(n log2^2 n) dev {fit_m.max_rel_deviation:.2f} (cap 0.50)")


def criterion_6() -> CriterionResult:
    """Fractional-polynomial model terminates and grows sublinearly."""
    sizes = (256, 1024, 4096)
    seeds = 3
    rows = _sweep(sizes, seeds, model=FractionalPolynomial(0.5, 1.0),
                  crash_pattern=UpfrontCrashes(), seed=600)
    rows = [r for r in rows if r["row_type"] == "trial"]
    under_cap = all(r["completion"] == "all_halted" for r in rows)
    # Means of the trials' T, unrounded, unlike the aggregate rows'.
    mean_t = {
        n: sum(r["T"] for r in rows if r["n"] == n) / seeds
        for n in sizes
    }
    ratio = mean_t[4096] / mean_t[256]
    envelope_hi = 16 * (math.log2(4096) / math.log2(256))
    passed = under_cap and 2.0 <= ratio <= envelope_hi
    return CriterionResult(
        6, "fractional-polynomial model behavior", passed,
        f"all under cap: {under_cap}, T means {mean_t}, "
        f"T(4096)/T(256)={ratio:.2f} in [2, {envelope_hi:.0f}]")


_SHARE, _PROFESS = CODES.index("share"), CODES.index("profess")
_NEVER = np.iinfo(np.int64).max
_SEND_PROBLEMS = ("processor {} sent after halting", "share with nonzero level from {}",
                  "profess from unenlightened {}")


def fold_batch(sha, batch: Batch) -> None:
    """Fold every field of ``batch`` into the hash ``sha``.  A batch's text is
    a function of these fields, so equal digests mean equal text."""
    sha.update(repr((*batch[:5], len(batch.ids), *batch.columns)).encode())
    for values in map(np.asarray, (batch.ids, *batch.columns.values())):
        sha.update(f"{values.dtype.str}{values.shape}".encode())
        sha.update(values.tobytes())


class TraceChecker:
    """Trace-level invariants of one run, checked as a trace sink while it streams:
    per processor, its halt round and first enlighten round; lines by kind."""

    def __init__(self, n: int):
        self.halt_round = np.full(n, _NEVER)
        self.enlighten_round = np.full(n, _NEVER)
        self.lines = dict.fromkeys(EVENT_KINDS, 0)
        self.found: list[str] = []

    def __call__(self, batch: Batch) -> None:
        kind, ids, rnd = batch.kind, batch.ids, batch.round
        self.lines[kind] += len(ids)
        if kind == "halt":
            self.halt_round[ids] = rnd
        elif kind == "enlighten":
            self.enlighten_round[ids[self.enlighten_round[ids] == _NEVER]] = rnd
        elif kind == "send":
            types = batch.columns["type"]
            checks = (self.halt_round[ids] < rnd,
                      (types == _SHARE) & (batch.columns.get("ell", 0) != 0),
                      (types == _PROFESS) & (self.enlighten_round[ids] > rnd))
            for i in np.flatnonzero(checks[0] | checks[1] | checks[2]).tolist():
                self.found.extend(
                    text.format(ids[i]) for text, check in zip(_SEND_PROBLEMS, checks)
                    if np.broadcast_to(check, ids.shape)[i])

    def problems(self, m) -> list[str]:
        """The violations found, then any disagreement with metrics ``m``."""
        problems = list(self.found)
        sends, receives, drops = (self.lines[kind] for kind in ("send", "receive", "drop"))
        if sends != m.messages_total:
            problems.append(f"trace sends {sends} != messages_total {m.messages_total}")
        if receives != m.delivered or drops != m.dropped_to_crashed + m.dropped_to_halted:
            problems.append("trace routing counts disagree with metrics ledger")
        if not m.conservation_ok():
            problems.append("metrics conservation ledger unbalanced")
        return problems


def criterion_7() -> CriterionResult:
    """Protocol invariants and replay determinism on randomized configs."""
    rng = np.random.default_rng(707)
    problems = []
    runs = 200
    completions = {"all_halted": 0, "round_cap_hit": 0}
    for trial in range(runs):
        n = int(rng.integers(2, 65))
        model_pick = trial % 3
        if model_pick == 0:
            model = LinearFraction(float(rng.uniform(0.1, 0.6)))
        elif model_pick == 1:
            model = FractionalPolynomial(float(rng.uniform(0.3, 0.8)), 1.0)
        else:
            model = PolyLog(float(rng.uniform(1.0, 2.0)), 1.0)
        pattern_pick = trial % 4
        if pattern_pick == 0:
            pattern = NoCrashes()
        elif pattern_pick == 3:
            pattern = SpreadCrashes(int(rng.integers(1, 16)))
        else:
            pattern = UpfrontCrashes()
        config = RunConfig(
            n=n,
            params=EstimationParams(float(rng.uniform(0.3, 0.9)),
                                    float(rng.uniform(0.05, 0.5))),
            model=model,
            crash_pattern=pattern,
            reliability=UniformReliability(0.2, 1.0),
            seed=int(rng.integers(0, 2**32)),
        )
        # Each run's batches go to a digest as they stream, the first run's
        # to the checker too.
        checker, first, again = TraceChecker(n), hashlib.sha256(), hashlib.sha256()
        result = engine.run(config, check_invariants=True,
                            trace_sink=lambda batch: (checker(batch), fold_batch(first, batch)))
        completions[result.completion] += 1
        problems.extend(f"trial {trial}: {p}" for p in checker.problems(result.metrics))
        engine.run(config, trace_sink=lambda batch: fold_batch(again, batch))
        if first.digest() != again.digest():
            problems.append(f"trial {trial}: replay trace mismatch")
        if len(problems) > 5:
            break
    passed = not problems
    ended = (f"{completions['all_halted']} all_halted, "
             f"{completions['round_cap_hit']} round_cap_hit "
             f"of {sum(completions.values())} runs")
    return CriterionResult(
        7, "protocol invariant suite (200 randomized configs)", passed,
        f"no violations; {ended}" if passed else "; ".join(problems[:5] + [ended]))


def criterion_8() -> CriterionResult:
    """Degenerate cases: single processor, and perfect workers."""
    problems = []
    params = EstimationParams(0.5, 0.1)
    g1 = gamma1(params)
    quantized = g1 / math.floor(g1)
    eps_hat = quantized - 1.0
    lo, hi = 1.0 / (1.0 + eps_hat), 1.0 + eps_hat

    single = engine.run(RunConfig(n=1, params=params, seed=7))
    if single.completion != "all_halted":
        problems.append("n=1 run did not halt")
    else:
        est = single.estimates[0][0]
        if not (lo <= est <= hi):
            problems.append(f"n=1 estimate {est} outside [{lo}, {hi}]")

    # Seed picked so the request cap never binds; with every worker perfect
    # and no crashes, every estimate is exactly the quantized value.
    perfect = engine.run(RunConfig(n=64, params=params, seed=812))
    if perfect.metrics.false_crash_detections:
        problems.append("request cap bound in the perfect-worker run")
    for pid, est in perfect.estimates.items():
        values = np.unique(est)
        if not (values.size == 1 and values[0] == quantized):
            problems.append(f"processor {pid} estimates deviate: {values[:4]}")
            break
    if not all(lo <= v <= hi for est in perfect.estimates.values() for v in est):
        problems.append("perfect-worker estimate outside quantization band")
    passed = not problems
    return CriterionResult(
        8, "degenerate cases (n=1 and all-perfect workers)", passed,
        "exact quantization bounds hold" if passed else "; ".join(problems))


CRITERIA: dict[int, Callable[[], CriterionResult]] = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def run_criteria(only: Optional[list[int]] = None) -> list[CriterionResult]:
    numbers = sorted(set(only)) if only else sorted(CRITERIA)
    results = []
    for k in numbers:
        start = time.perf_counter()
        results.append(replace(CRITERIA[k](), seconds=time.perf_counter() - start))
    return results
