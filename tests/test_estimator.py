import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.estimator import (
    CRASHED,
    LAMBDA,
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

# Frozen against a high-precision (mpmath, 30 digits) evaluation of the
# defining formula 4 * (e - 2) * ln(2/delta) / eps^2; see test_gamma_oracle.
GAMMA_05_01 = 34.42848088035412
GAMMA1_05_01 = 52.64272132053118
GAMMA_02_005 = 264.96550792659616
GAMMA1_02_005 = 318.95860951191537


def records_all_ones(count):
    return [ResultRecord(1, 0, r) for r in range(count)]


class TestParams:
    def test_lambda_constant(self):
        assert LAMBDA == math.e - 2.0

    def test_epsilon_must_be_below_one(self):
        with pytest.raises(ParameterDomainError):
            EstimationParams(1.0, 2.0)

    # From the sixth: delta inf or nan, a gamma1 that overflows to inf
    # (through delta or epsilon), an epsilon**2 that underflows to 0, and
    # a delta of 2 or more, which leaves gamma1 at or below 1.
    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-0.1, 0.1), (0.5, 0.0),
                                           (0.5, -1.0), (1.5, 0.1),
                                           (0.5, math.inf), (0.5, math.nan),
                                           (0.5, 1e-320), (1e-160, 0.1),
                                           (1e-200, 0.1), (0.5, 2.0), (0.5, 3.0)])
    def test_rejects_out_of_domain(self, eps, delta):
        with pytest.raises(ParameterDomainError):
            EstimationParams(eps, delta)

    def test_extreme_finite_threshold_accepted(self):
        assert math.isfinite(gamma1(EstimationParams(1e-150, 1e-300)))


class TestGamma:
    def test_gamma_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for eps, delta, frozen in [(0.5, 0.1, GAMMA_05_01),
                                   (0.2, 0.05, GAMMA_02_005)]:
            oracle = 4 * (mp.e - 2) * mp.log(2 / mp.mpf(str(delta))) / mp.mpf(str(eps)) ** 2
            assert abs(gamma(EstimationParams(eps, delta)) - float(oracle)) < 1e-9
            assert gamma(EstimationParams(eps, delta)) == frozen

    def test_gamma1_oracle(self):
        assert abs(gamma1(EstimationParams(0.5, 0.1)) - GAMMA1_05_01) < 1e-9
        assert abs(gamma1(EstimationParams(0.2, 0.05)) - GAMMA1_02_005) < 1e-9

    def test_gamma1_is_affine_in_gamma(self):
        params = EstimationParams(0.5, 0.1)
        assert gamma1(params) == 1.0 + 1.5 * gamma(params)

    @given(
        e1=st.floats(0.05, 0.95), e2=st.floats(0.05, 0.95),
        d1=st.floats(0.01, 0.9), d2=st.floats(0.01, 0.9),
    )
    def test_strictly_decreasing(self, e1, e2, d1, d2):
        lo_e, hi_e = sorted((e1, e2))
        lo_d, hi_d = sorted((d1, d2))
        # Strict only for inputs further apart than rounding: adjacent
        # doubles can give the same threshold (see the test below).
        if hi_e > lo_e * (1 + 1e-9):
            assert gamma(EstimationParams(hi_e, lo_d)) < gamma(EstimationParams(lo_e, lo_d))
            assert gamma1(EstimationParams(hi_e, lo_d)) < gamma1(EstimationParams(lo_e, lo_d))
        if hi_d > lo_d * (1 + 1e-9):
            assert gamma(EstimationParams(lo_e, hi_d)) < gamma(EstimationParams(lo_e, lo_d))
            assert gamma1(EstimationParams(lo_e, hi_d)) < gamma1(EstimationParams(lo_e, lo_d))

    @pytest.mark.parametrize("lo, hi", [(0.8999999999999999, 0.9),
                                        (0.01, 0.010000000000000002)])
    def test_non_increasing_at_adjacent_doubles(self, lo, hi):
        # Deltas one ulp apart: the thresholds round to the same double.
        assert gamma(EstimationParams(0.5, hi)) <= gamma(EstimationParams(0.5, lo))
        assert gamma1(EstimationParams(0.5, hi)) <= gamma1(EstimationParams(0.5, lo))


class TestSraRun:
    def test_constant_ones(self):
        params = EstimationParams(0.5, 0.1)
        est, count = sra_run(itertools.repeat(1.0), params)
        assert count == 53
        assert est == GAMMA1_05_01 / 53

    def test_constant_zeros_exhausts(self):
        params = EstimationParams(0.5, 0.1)
        with pytest.raises(InsufficientSamplesError) as exc:
            sra_run([0.0] * 100, params)
        assert exc.value.trials == 100
        assert exc.value.partial_sum == 0.0

    def test_trial_count_at_least_threshold(self):
        params = EstimationParams(0.5, 0.1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            _, count = sra_run(iter(rng.random(10000)), params)
            assert count >= math.ceil(gamma1(params))

    def test_bernoulli_monte_carlo(self):
        # 10,000 repetitions at p=0.5: the mean estimate is close to p and
        # nearly all estimates respect the relative-error band.
        params = EstimationParams(0.2, 0.05)
        p = 0.5
        rng = np.random.default_rng(42)
        estimates = []
        in_band = 0
        for _ in range(10_000):
            block = (rng.random(2000) < p).astype(float)
            est, _ = sra_run(iter(block), params)
            estimates.append(est)
            if p * 0.8 <= est <= p * 1.2:
                in_band += 1
        mean = sum(estimates) / len(estimates)
        assert 0.45 <= mean <= 0.55
        assert in_band / 10_000 >= 0.95


class TestEstimateOne:
    def test_crash_record_dominates(self):
        params = EstimationParams(0.5, 0.1)
        records = records_all_ones(100) + [ResultRecord(-1, 4, 7)]
        assert estimate_one(records, params) == CRASHED

    def test_hundred_correct_records(self):
        params = EstimationParams(0.5, 0.1)
        est = estimate_one(records_all_ones(100), params)
        assert est == GAMMA1_05_01 / 52

    def test_insufficient_mass_is_undetermined(self):
        params = EstimationParams(0.5, 0.1)
        assert estimate_one(records_all_ones(10), params) is UNDETERMINED

    def test_degenerate_threshold_rejected(self):
        with pytest.raises(ParameterDomainError):
            estimate_one(records_all_ones(5), EstimationParams(0.5, 2.0))

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=400),
           st.randoms(use_true_random=False))
    def test_order_invariance(self, bits, pyrandom):
        params = EstimationParams(0.3, 0.2)
        records = [ResultRecord(v, i % 7, i // 3) for i, v in enumerate(bits)]
        shuffled = list(records)
        pyrandom.shuffle(shuffled)
        assert estimate_one(records, params) == estimate_one(shuffled, params)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=500),
           st.floats(0.1, 0.9), st.floats(0.05, 0.5))
    def test_replay_offset_against_stream_variant(self, bits, eps, delta):
        # The replay variant divides by one less than the stream variant's
        # trial count on the same 0/1 sequence.
        params = EstimationParams(eps, delta)
        records = [ResultRecord(v, 0, r) for r, v in enumerate(bits)]
        replay = estimate_one(records, params)
        try:
            _, count = sra_run(iter(float(b) for b in bits), params)
        except InsufficientSamplesError:
            assert replay is UNDETERMINED
        else:
            assert replay == gamma1(params) / (count - 1)


class TestEstimation:
    def test_single_crash(self):
        params = EstimationParams(0.5, 0.1)
        assert estimation([{ResultRecord(-1, 1, 0)}], params) == [CRASHED]

    def test_two_sufficient_workers(self):
        params = EstimationParams(0.5, 0.1)
        knowledge = [records_all_ones(60), records_all_ones(80)]
        out = estimation(knowledge, params)
        assert out == [GAMMA1_05_01 / 52] * 2
        assert all(abs(v - 1.0) < 0.02 for v in out)

    def test_mixed_crash_and_correct(self):
        params = EstimationParams(0.5, 0.1)
        knowledge = [{ResultRecord(-1, 0, 3)}, records_all_ones(70)]
        assert estimation(knowledge, params) == [CRASHED, GAMMA1_05_01 / 52]
