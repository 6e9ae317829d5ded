import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relsim.adversary import (
    AdversaryDomainError,
    ConstantReliability,
    CrashSchedule,
    ExplicitReliability,
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
    assign_probabilities,
    generate_crash_schedule,
    max_crashes,
    validate_schedule,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestAssignProbabilities:
    def test_constant(self):
        out = assign_probabilities(4, ConstantReliability(1.0), rng())
        assert out.p.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_explicit(self):
        out = assign_probabilities(2, ExplicitReliability((0.3, 0.9)), rng())
        assert out.p.tolist() == [0.3, 0.9]

    def test_uniform_mean(self):
        out = assign_probabilities(10_000, UniformReliability(0.5, 1.0), rng(7))
        assert 0.74 <= out.p.mean() <= 0.76

    def test_deterministic_under_seed(self):
        a = assign_probabilities(50, UniformReliability(0.2, 0.8), rng(3))
        b = assign_probabilities(50, UniformReliability(0.2, 0.8), rng(3))
        assert np.array_equal(a.p, b.p)

    @pytest.mark.parametrize("spec", [
        ConstantReliability(0.0),
        ConstantReliability(1.5),
        UniformReliability(0.0, 0.5),
        UniformReliability(0.9, 0.5),
        ExplicitReliability((0.5, -0.1)),
    ])
    def test_domain_errors(self, spec):
        with pytest.raises(AdversaryDomainError):
            assign_probabilities(2, spec, rng())

    def test_explicit_length_mismatch(self):
        with pytest.raises(AdversaryDomainError):
            assign_probabilities(3, ExplicitReliability((0.5, 0.5)), rng())


class TestCrashSchedule:
    def test_linear_fraction_upfront_counts(self):
        schedule = generate_crash_schedule(
            256, LinearFraction(0.25), UpfrontCrashes(), rng()
        )
        assert len(schedule.crash_round) == 64
        assert schedule.survivors(256) == 192
        assert all(r == 0 for r in schedule.crash_round.values())

    def test_none_pattern_is_empty(self):
        schedule = generate_crash_schedule(
            256, LinearFraction(0.5), NoCrashes(), rng()
        )
        assert schedule.crash_round == {}

    def test_fractional_polynomial_floor(self):
        schedule = generate_crash_schedule(
            1024, FractionalPolynomial(0.5, 1.0), UpfrontCrashes(), rng()
        )
        assert schedule.survivors(1024) >= 32

    def test_spread_rounds_in_window(self):
        schedule = generate_crash_schedule(
            64, LinearFraction(0.5), SpreadCrashes(10), rng(2)
        )
        assert all(0 <= r < 10 for r in schedule.crash_round.values())

    def test_infeasible_model(self):
        with pytest.raises(AdversaryDomainError):
            max_crashes(4, FractionalPolynomial(0.9, 10.0))

    def test_float_dirt_does_not_overcount_survivors(self):
        # (1 - 0.1) * 30 = 27.000000000000004 in binary floats; the bound
        # must still allow exactly 3 crashes.
        assert max_crashes(30, LinearFraction(0.1)) == 3


class TestValidate:
    def test_exact_boundary_ok(self):
        schedule = generate_crash_schedule(
            256, LinearFraction(0.25), UpfrontCrashes(), rng()
        )
        report = validate_schedule(schedule, LinearFraction(0.25), 256)
        assert report.ok and report.survivors == 192 and report.margin == 0

    def test_violation_reports_deficit(self):
        schedule = CrashSchedule({i: 0 for i in range(156)})
        report = validate_schedule(schedule, LinearFraction(0.25), 256)
        assert not report.ok
        assert report.survivors == 100
        assert report.margin == -92

    def test_empty_schedule_ok_everywhere(self):
        empty = CrashSchedule({})
        for model in (LinearFraction(0.9), FractionalPolynomial(0.5), PolyLog(2.0)):
            assert validate_schedule(empty, model, 128).ok


class TestIsLive:
    def test_boundary_round(self):
        schedule = CrashSchedule({3: 5})
        assert not schedule.is_live(3, 5)
        assert schedule.is_live(3, 4)

    def test_absent_always_live(self):
        schedule = CrashSchedule({})
        assert schedule.is_live(0, 10**6)


@given(
    n=st.integers(2, 512),
    seed=st.integers(0, 2**31),
    pick=st.integers(0, 2),
    f=st.floats(0.05, 0.95),
    a=st.floats(0.1, 0.9),
    c=st.floats(1.0, 2.5),
)
def test_generated_schedules_always_self_validate(n, seed, pick, f, a, c):
    model = [LinearFraction(f), FractionalPolynomial(a, 1.0), PolyLog(c, 1.0)][pick]
    try:
        schedule = generate_crash_schedule(n, model, UpfrontCrashes(),
                                           np.random.default_rng(seed))
    except AdversaryDomainError:
        return
    assert validate_schedule(schedule, model, n).ok


def test_obliviousness_pure_function_of_inputs():
    model = LinearFraction(0.3)
    a = generate_crash_schedule(100, model, SpreadCrashes(20), rng(9))
    b = generate_crash_schedule(100, model, SpreadCrashes(20), rng(9))
    assert a.crash_round == b.crash_round
