"""Engine vs straight-line re-implementation on small populations.

The production engine compresses knowledge into per-creator round prefixes
and batches estimation; the reference keeps literal record sets and scans
them quadratically.  Both consume the same keyed random streams, so every
run must agree exactly: completion, halt rounds, estimates, message counts,
and the final per-target record sets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsim.adversary import (
    ConstantReliability,
    FractionalPolynomial,
    LinearFraction,
    NoCrashes,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import RunConfig, run
from relsim.estimator import UNDETERMINED, EstimationParams
from relsim.protocol import Population

from pool_records import all_records_for
from straightline import run_reference


def assert_equivalent(config):
    production = run(config)
    reference = run_reference(config)
    assert production.completion == reference.completion
    assert production.metrics.per_processor_halt_round == reference.halt_rounds
    assert production.metrics.messages_total == reference.messages_total
    assert dict(production.metrics.messages_by_type) == reference.messages_by_type
    for name, value in reference.counters.items():
        assert getattr(production.metrics, name) == value, name
    assert set(production.estimates) == set(reference.estimates)
    for pid, expected in reference.estimates.items():
        got = production.estimates[pid]
        for j, want in enumerate(expected):
            if want is UNDETERMINED:
                assert math.isnan(got[j]), (pid, j)
            else:
                assert got[j] == want, (pid, j)


CASES = [
    RunConfig(n=1, params=EstimationParams(0.5, 0.1), seed=0),
    RunConfig(n=2, params=EstimationParams(0.6, 0.2), seed=1,
              reliability=ConstantReliability(0.7)),
    RunConfig(n=5, params=EstimationParams(0.7, 0.3), seed=2,
              reliability=UniformReliability(0.4, 1.0)),
    RunConfig(n=8, params=EstimationParams(0.5, 0.1), seed=3,
              model=LinearFraction(0.25), crash_pattern=UpfrontCrashes(),
              reliability=ConstantReliability(0.8)),
    RunConfig(n=8, params=EstimationParams(0.6, 0.2), seed=4,
              model=FractionalPolynomial(0.5), crash_pattern=SpreadCrashes(12),
              reliability=UniformReliability(0.5, 0.9)),
    RunConfig(n=6, params=EstimationParams(0.8, 0.4), seed=5,
              model=PolyLog(1.0), crash_pattern=UpfrontCrashes()),
    RunConfig(n=7, params=EstimationParams(0.8, 0.4), seed=6,
              literal_ell_reset=True,
              reliability=UniformReliability(0.3, 1.0)),
    RunConfig(n=4, params=EstimationParams(0.9, 0.45), seed=7,
              model=LinearFraction(0.5), crash_pattern=SpreadCrashes(6)),
    # Seeds above 2**63 once keyed two stream constructions differently.
    RunConfig(n=6, params=EstimationParams(0.8, 0.4), seed=2**63 + 1,
              model=LinearFraction(0.3), crash_pattern=UpfrontCrashes()),
    RunConfig(n=5, params=EstimationParams(0.8, 0.4), seed=2**64 - 1,
              reliability=UniformReliability(0.5, 1.0)),
]


@pytest.mark.parametrize("config", CASES, ids=lambda c: f"n{c.n}-seed{c.seed}")
def test_engine_matches_straightline(config):
    assert_equivalent(config)


Q = EstimationParams(0.8, 0.4)
# Runs at the edges of a block: until the pool settles globally the engine
# steps a block of rounds at once, which ends at its draw window's end, at
# the round cap or at the first round with no live worker, and before the
# round whose records settle the pool.
BLOCK_EDGES = {
    # Crashes in rounds 0, 2, 6, 12 and 13 of a block that round 35 cuts.
    "spread-crashes": RunConfig(n=12, params=Q, model=LinearFraction(0.5),
                                crash_pattern=SpreadCrashes(20), seed=3),
    # The cap ends the first block, with crashes in it, before settlement.
    "round-cap": RunConfig(n=10, params=Q, model=FractionalPolynomial(0.5),
                           crash_pattern=SpreadCrashes(40), seed=8, max_rounds=30),
    # Nobody survives: the last crash, in round 14, ends the first block.
    "all-crash": RunConfig(n=6, params=Q, model=FractionalPolynomial(0.5, 1e-12),
                           crash_pattern=SpreadCrashes(15), seed=2),
    # The first window spans rounds 0-80 and round 81, the first of the
    # next, settles the pool.
    "settles-first": RunConfig(n=25, params=EstimationParams(0.5, 0.1), seed=8,
                               max_rounds=200),
    "n1": RunConfig(n=1, params=EstimationParams(0.5, 0.1), seed=9),
    "n1-crash": RunConfig(n=1, params=Q, model=PolyLog(1.0),
                          crash_pattern=SpreadCrashes(6), seed=4),
    # A cap above 32767 keeps the knowledge matrix int32.
    "int32-known": RunConfig(n=5, params=Q, seed=1, max_rounds=40000),
}


@pytest.mark.parametrize("name", sorted(BLOCK_EDGES))
def test_block_edges_match_straightline(name):
    assert_equivalent(BLOCK_EDGES[name])
    run(BLOCK_EDGES[name], check_invariants=True)


def test_block_edge_cases_reach_their_edges():
    result = run(BLOCK_EDGES["round-cap"], keep_states=True)
    assert result.completion == "round_cap_hit"
    assert not result.pool.globally_estimable()
    assert set(result.schedule.crash_round.values()) & set(range(30))
    result = run(BLOCK_EDGES["all-crash"])
    assert len(result.schedule.crash_round) == 6
    assert result.metrics.rounds_to_all_halt == max(result.schedule.crash_round.values())


@pytest.mark.parametrize("name", sorted(BLOCK_EDGES) + ["fp-upfront"])
def test_tracing_and_invariant_checks_change_no_result(name):
    # Traced and checked runs step their blocks the same way as plain ones.
    config = BLOCK_EDGES.get(name) or RunConfig(
        n=64, params=EstimationParams(0.5, 0.1), model=FractionalPolynomial(0.5),
        crash_pattern=UpfrontCrashes(), seed=1)
    plain = run(config, keep_states=True)
    for other in (run(config, collect_trace=True, keep_states=True),
                  run(config, check_invariants=True, keep_states=True)):
        assert other.completion == plain.completion
        # Every counter, the halt rounds among them.
        assert other.metrics == plain.metrics
        assert other.estimates.keys() == plain.estimates.keys()
        for pid, estimates in plain.estimates.items():
            assert np.array_equal(other.estimates[pid], estimates, equal_nan=True)
        assert np.array_equal(other.known, plain.known)


def test_knowledge_matrix_width_follows_round_cap():
    # Rounds below the cap are stored, so a cap of 32768 still fits int16.
    assert run(BLOCK_EDGES["int32-known"], keep_states=True).known.dtype == np.int32
    assert run(BLOCK_EDGES["n1"], keep_states=True).known.dtype == np.int16
    assert Population.start(2, {}, 32768).known.dtype == np.int16
    assert Population.start(2, {}, 32769).known.dtype == np.int32
    assert Population.start(2, {}).known.dtype == np.int32


@pytest.mark.parametrize("seed", range(8))
def test_perfect_workers_match(seed):
    # All workers perfect and no crashes: both implementations must agree
    # and every live processor's knowledge must grow monotonically (the
    # engine asserts this itself with invariant checking on).
    config = RunConfig(n=8, params=EstimationParams(0.5, 0.1), seed=100 + seed)
    assert_equivalent(config)
    run(config, check_invariants=True)


def test_final_knowledge_sets_match():
    config = RunConfig(n=6, params=EstimationParams(0.6, 0.25), seed=42,
                       model=LinearFraction(0.3), crash_pattern=UpfrontCrashes(),
                       reliability=UniformReliability(0.5, 1.0))
    reference = run_reference(config)
    production = run(config, keep_states=True)
    for pid in range(config.n):
        expected = reference.knowledge[pid]
        reconstructed = all_records_for(production.pool, production.known[pid])
        for j in range(config.n):
            assert reconstructed[j] == expected[j], (pid, j)


MODELS = st.one_of(
    st.builds(LinearFraction, st.floats(0.0, 0.7)),
    st.builds(FractionalPolynomial, st.floats(0.2, 0.9)),
    st.builds(PolyLog, st.floats(1.0, 1.5)),
)
PATTERNS = st.one_of(
    st.just(NoCrashes()),
    st.just(UpfrontCrashes()),
    st.builds(SpreadCrashes, st.integers(1, 20)),
)
RELIABILITIES = st.one_of(
    st.builds(ConstantReliability, st.floats(0.2, 1.0)),
    st.builds(lambda lo, width: UniformReliability(lo, min(1.0, lo + width)),
              st.floats(0.2, 1.0), st.floats(0.0, 0.8)),
)
SEEDS = st.one_of(st.integers(0, 2**32), st.integers(0, 2**64 - 1),
                  st.sampled_from([0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]))


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 48))
    # Caps keep the quadratic reference fast at large n; loose parameters
    # (a low stopping threshold) let many runs complete within them.
    cap = 200 if n <= 8 else 100 if n <= 24 else 60
    loose = draw(st.booleans())
    return RunConfig(
        n=n,
        params=EstimationParams(
            draw(st.floats(0.7, 0.95) if loose else st.floats(0.3, 0.95)),
            draw(st.floats(0.3, 0.5) if loose else st.floats(0.05, 0.5))),
        model=draw(MODELS),
        crash_pattern=draw(PATTERNS),
        reliability=draw(RELIABILITIES),
        seed=draw(SEEDS),
        max_rounds=draw(st.integers(1, cap)),
        literal_ell_reset=draw(st.booleans()),
    )


@settings(max_examples=150)
@given(small_configs())
def test_engine_matches_straightline_on_random_configs(config):
    assert_equivalent(config)
