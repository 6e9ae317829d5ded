import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relsim.adversary import (
    AdversaryDomainError,
    ConstantReliability,
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

    # A spec, given as its class and arguments, rejects its own values when
    # it is constructed.
    @pytest.mark.parametrize("spec", [
        (ConstantReliability, 0.0),
        (ConstantReliability, 1.5),
        (UniformReliability, 0.0, 0.5),
        (UniformReliability, 0.9, 0.5),
        (ExplicitReliability, (0.5, -0.1)),
    ])
    def test_domain_errors(self, spec):
        cls, *args = spec
        with pytest.raises(AdversaryDomainError):
            cls(*args)

    def test_explicit_length_mismatch(self):
        with pytest.raises(AdversaryDomainError):
            assign_probabilities(3, ExplicitReliability((0.5, 0.5)), rng())


class TestCrashSchedule:
    def test_linear_fraction_upfront_counts(self):
        schedule = generate_crash_schedule(
            256, LinearFraction(0.25), UpfrontCrashes(), rng()
        )
        assert len(schedule.crash_round) == 64
        assert 256 - len(schedule.crash_round) == 192
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
        assert 1024 - len(schedule.crash_round) >= 32

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
    assert n - len(schedule.crash_round) >= model.survivor_floor(n) - 1e-9


def test_obliviousness_pure_function_of_inputs():
    model = LinearFraction(0.3)
    a = generate_crash_schedule(100, model, SpreadCrashes(20), rng(9))
    b = generate_crash_schedule(100, model, SpreadCrashes(20), rng(9))
    assert a.crash_round == b.crash_round
