import math

import numpy as np
import pytest

from relsim.adversary import (
    CrashSchedule,
    LinearFraction,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import RunConfig, run
from relsim.estimator import EstimationParams
from relsim.metrics import (
    MetricsDomainError,
    RunMetrics,
    accuracy,
    scaling_fit,
)

PARAMS = EstimationParams(0.5, 0.1)


class TestAccountStep:
    # One call accounts one step of the whole population.
    def test_multicast_counts_point_to_point(self):
        m = RunMetrics()
        m.account_step(1, messages=5)
        assert m.messages_total == 5 and m.work_steps == 1

    def test_compute_step_without_sends(self):
        m = RunMetrics()
        m.account_step(3)
        assert m.messages_total == 0 and m.work_steps == 3

    def test_tasks_accumulate(self):
        m = RunMetrics()
        m.account_step(2, tasks=3)
        m.account_step(2, tasks=2)
        assert m.tasks_executed == 5 and m.work_steps == 4


class TestAccuracy:
    def _run(self, **kw):
        config = RunConfig(n=16, params=PARAMS, seed=kw.pop("seed", 1), **kw)
        result = run(config)
        return config, result

    def test_band_membership_arithmetic(self):
        # p=0.8 with eps=0.2 gives the band [0.64, 0.96].
        from relsim.adversary import ReliabilityAssignment

        config, result = self._run()
        truth = ReliabilityAssignment(np.full(16, 0.8))
        result.estimates = {0: np.full(16, 0.78)}
        report = accuracy(result, truth, result.schedule,
                          EstimationParams(0.2, 0.1))
        assert report.fraction_within_band == 1.0
        assert report.n_numeric_live == 16

    def test_live_marked_crashed_is_false_positive(self):
        config, result = self._run()
        est = np.full(16, 1.0)
        est[3] = -1.0
        result.estimates = {0: est}
        report = accuracy(result, result.truth, result.schedule, PARAMS)
        assert report.crash_false_positives == 1
        assert report.crash_true_positives == 0

    def test_upfront_crash_marks_are_true_positives(self):
        config = RunConfig(n=16, params=PARAMS, model=LinearFraction(0.25),
                           crash_pattern=UpfrontCrashes(), seed=3)
        result = run(config)
        report = accuracy(result, result.truth, result.schedule, PARAMS)
        crashed = len(result.schedule.crash_round)
        halted = len(result.estimates)
        assert report.crash_true_positives == crashed * halted

    def test_undetermined_counted_not_banded(self):
        config, result = self._run()
        est = np.full(16, 1.0)
        est[5] = np.nan
        result.estimates = {0: est}
        report = accuracy(result, result.truth, result.schedule, PARAMS)
        assert report.undetermined == 1
        assert report.n_numeric_live == 15


class TestScalingFit:
    def test_exact_log_model_is_flat(self):
        series = [(n, 3.0 * math.log2(n)) for n in (256, 1024, 4096)]
        report = scaling_fit(series, "log2")
        assert all(abs(r - 1.0) < 1e-12 for r in report.ratios)
        assert report.max_rel_deviation < 1e-12
        assert abs(report.loglog_slope - 1.0) < 1e-9

    def test_quadratic_against_nlogn_flagged_superlinear(self):
        series = [(n, float(n) ** 2) for n in (128, 256, 512, 1024)]
        report = scaling_fit(series, "nlog2")
        assert report.loglog_slope > 1.25
        assert not report.is_flat(0.5)

    def test_requires_three_points(self):
        with pytest.raises(MetricsDomainError):
            scaling_fit([(128, 1.0), (256, 2.0)], "log2")

    def test_callable_model(self):
        series = [(n, 5.0 * n) for n in (10, 100, 1000)]
        report = scaling_fit(series, lambda n: float(n))
        assert report.max_rel_deviation < 1e-12


class TestLedger:
    def test_conservation_and_work_bound_on_real_run(self):
        config = RunConfig(n=20, params=PARAMS, model=LinearFraction(0.3),
                           crash_pattern=UpfrontCrashes(), seed=8,
                           reliability=UniformReliability(0.5, 1.0))
        result = run(config)
        m = result.metrics
        assert m.conservation_ok()
        assert m.messages_total == sum(m.messages_by_type.values())
        assert m.work_steps <= 9 * 20 * m.rounds_to_all_halt
