"""The benchmark's workloads reproduce the outputs recorded for them.

``benchmark/expected.json`` holds, per workload and seed, T, W, M, the
within-band counts and a digest of every estimate, and ``execute`` lists any
difference from them as a failure.  Checking two recorded seeds here makes a
change to any of these outputs fail the tests, not only a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("seed", [0, 500])
@pytest.mark.parametrize("name", ["lf-dense", "fp-sparse", "small-many", "traced-replay"])
def test_workload_reproduces_its_recorded_outputs(workloads, name, seed, tmp_path):
    workload = workloads.build(name, seed)
    assert workload.expected is not None
    assert workloads.execute(workload, tmp_path).failures == []
