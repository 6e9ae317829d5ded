"""Pinned sha256 digests of complete rendered traces.

Each digest covers the trace header and every event of one run, so any change
to a random draw, the step order, message routing, the record pool or the
trace format changes it.  The cases span n=1, every crash model and pattern,
heterogeneous reliabilities, the request-cap overflow path (n=3, cap 2) and a
trace kind filter.  A refactor of the engine must leave all of them unchanged.
"""

import hashlib

import pytest

from relsim.adversary import (
    ConstantReliability,
    FractionalPolynomial,
    LinearFraction,
    PolyLog,
    SpreadCrashes,
    UniformReliability,
    UpfrontCrashes,
)
from relsim.engine import RunConfig, run
from relsim.estimator import EstimationParams
from relsim.harness import render_trace

P = EstimationParams(0.5, 0.1)
Q = EstimationParams(0.8, 0.4)

CASES = {
    "n1": (RunConfig(n=1, params=P, seed=7), None),
    "lf-upfront": (
        RunConfig(n=16, params=P, model=LinearFraction(0.25),
                  crash_pattern=UpfrontCrashes(), seed=3),
        None,
    ),
    "lf-spread": (
        RunConfig(n=12, params=Q, model=LinearFraction(0.5),
                  crash_pattern=SpreadCrashes(10),
                  reliability=UniformReliability(0.5, 1.0), seed=11),
        None,
    ),
    "fp-upfront": (
        RunConfig(n=16, params=Q, model=FractionalPolynomial(0.5),
                  crash_pattern=UpfrontCrashes(), seed=5),
        None,
    ),
    "pl-spread": (
        RunConfig(n=10, params=Q, model=PolyLog(1.0),
                  crash_pattern=SpreadCrashes(8), seed=9),
        None,
    ),
    "uniform-p": (
        RunConfig(n=8, params=EstimationParams(0.6, 0.2),
                  reliability=UniformReliability(0.3, 1.0), seed=21),
        None,
    ),
    "cap-overflow": (
        RunConfig(n=3, params=Q, reliability=ConstantReliability(0.8), seed=4),
        None,
    ),
    "kinds-filter": (
        RunConfig(n=12, params=Q, model=LinearFraction(0.25),
                  crash_pattern=UpfrontCrashes(), seed=8),
        ["crash", "enlighten", "ell_reset", "halt", "drop"],
    ),
}

DIGESTS = {
    "n1": "a37f628d9f08814d60dfbeb0dc2dca3dbac80ef9dcadefef5f5bea85bfba5791",
    "lf-upfront": "3bef3fca07b48ee298479e7cbcec11a467b20361f05f59cf8187385b2de392e8",
    "lf-spread": "a1be276aa4b97fc0164fa562f7a5757e1626530dad600a246debb2188f6a05b1",
    "fp-upfront": "5ba3df5d1b78226df2912f4ed6dc89d4f59c8fd02fc650a2519b51cd4b020b7d",
    "pl-spread": "3e62f13ec05fb939e0c0a9b55eb18c295287d208fb3044e3159bfa8f6c93749c",
    "uniform-p": "8fb21abd611da1049baa01b9be8c9197477cdcd16ab4b4163e3068c02e41178b",
    "cap-overflow": "35d06d6b65e69cdd8ddbf69d84f5a716e0cad92a8b2b8232a0e16ad45a4a7130",
    "kinds-filter": "2cb4e467ea6dd71c548311cfe9b5f4ebcfbbdaeef0e82e272f96b3a1a5dc28a9",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_pinned(name):
    config, kinds = CASES[name]
    result = run(config, collect_trace=True, trace_kinds=kinds)
    assert result.completion == "all_halted"
    text = render_trace(result)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_cap_overflow_case_reaches_the_overflow_path():
    config, _ = CASES["cap-overflow"]
    assert run(config).metrics.dropped_requests > 0


# An fp run whose round cap falls before the pool settles globally, while
# spread crashes are still thinning the live set: it stops at the cap with
# nobody enlightened.
CAP_CASE = RunConfig(n=16, params=Q, model=FractionalPolynomial(0.5),
                     crash_pattern=SpreadCrashes(10), seed=5, max_rounds=40)
CAP_DIGEST = "91856a3d60ec6fe35eba3172a8f15b469e4382d6ea87a46940af79adb5034d1c"


def test_trace_digest_pinned_at_round_cap_before_settlement():
    result = run(CAP_CASE, collect_trace=True, keep_states=True)
    assert result.completion == "round_cap_hit"
    assert result.metrics.rounds_to_all_halt == 40
    assert not result.pool.globally_estimable()
    text = render_trace(result)
    assert hashlib.sha256(text.encode()).hexdigest() == CAP_DIGEST
