"""The benchmark's per-layer spans wrap names looked up in ``relsim``.

``benchmark/spans.py`` installs a wrapper at every ``(owner, attribute)`` of
its ``TARGETS`` and raises ``KeyError`` on one that is gone, so a name it
wraps must stay bound where the caller looks it up.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def test_every_span_target_is_bound():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [name for name, owner, attr, _count in spans.TARGETS
               if not callable(vars(owner).get(attr))]
    assert not missing, f"span targets no longer bound: {missing}"
