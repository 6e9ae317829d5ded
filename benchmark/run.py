"""relsim benchmark: time one workload, check every output, print the metrics.

    python3 benchmark/run.py --workload lf-dense --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25

``--trace 0`` times operations with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` spends half the time on untraced
operations and half on operations with span wrappers installed (see
``spans.py``) and reports the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are an environment block and
a readable table.  ``--workload all`` runs every workload untraced and
traced, each in a fresh process, and prints one table.

Runs from the root of a source checkout: the program under test is imported
from ``src/`` next to this directory, and trace files go to a temporary
directory in the checkout that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("lf-dense", "fp-sparse", "small-many", "traced-replay")

# name -> (unit, better).  Operation times are in reference units (see
# reference.py): host seconds divided by the reference loop's seconds.
END_TO_END = {
    "wall_ref": ("ref", "lower"),
    "sim_steps_per_ref": ("1/ref", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "T_rounds": ("count", "lower"),
    "W_steps": ("count", "lower"),
    "M_messages": ("count", "lower"),
    "fraction_within_band": ("ratio", "higher"),
}

SETUP_PROBES = 11
# Times, in a fresh interpreter, the import of relsim and the building of the
# workload's configs, then the import of stdlib modules that neither relsim
# nor numpy imports.  Interpreter start-up and the import of numpy, which
# relsim cannot change and whose time varies twofold on a shared host, come
# before the clock starts.
SETUP_PROBE = """
import sys, time
import numpy
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import relsim.harness, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
mid = time.perf_counter()
import email.mime.multipart, http.client, logging.handlers, pydoc, sqlite3
import tarfile, unittest, xml.etree.ElementTree
print(mid - start, time.perf_counter() - mid)
"""
# Seconds the stdlib imports of SETUP_PROBE take on the baseline host (their
# median was 0.042-0.047 s).  setup_s is a probe's relsim time over its stdlib
# time, times this: the relsim set-up in seconds at baseline host speed.
SETUP_REFERENCE_S = 0.045
CHILD_TIMEOUT_S = 170


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    from spans import SPAN_NAMES

    units = {}
    for span in SPAN_NAMES:
        units[f"{span}.calls"] = ("count", "lower")
        units[f"{span}.self_s"] = ("s", "lower")
        units[f"{span}.share"] = ("ratio", "lower")
    units.update({
        "knowledge.satisfies.hit_ratio": ("ratio", "higher"),
        "engine.active_ratio": ("ratio", "higher"),
        "engine.processor_rounds": ("count", "lower"),
        "engine.deliver.drop_ratio": ("ratio", "lower"),
        "engine.deliver.messages": ("count", "lower"),
        "protocol.query_compute.served_ratio": ("ratio", "higher"),
        "protocol.query_compute.requests": ("count", "lower"),
        "trace.bytes": ("B", "lower"),
        "tracing_overhead": ("ratio", "lower"),
        "untraced_wall_s": ("s", "lower"),
        "traced_wall_s": ("s", "lower"),
        "reference_s": ("s", "lower"),
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def environment(workload) -> dict:
    import numpy as np

    lines = sum(len(p.read_text().splitlines())
                for p in sorted((SRC / "relsim").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "workload": workload.name,
        "workload_seed": workload.seed,
        "sim_seeds": [c.seed for c in workload.configs],
        "src_relsim_lines": lines,
    }


def _setup_probe(name: str, seed: int) -> tuple[float, float]:
    """(relsim seconds, stdlib seconds) of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), name, str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    relsim_s, stdlib_s = map(float, done.stdout.split())
    return relsim_s, stdlib_s


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, at baseline host speed.

    One untimed probe first brings the sources into the file cache.  Each
    probe's relsim time is divided by its stdlib time, measured in the same
    interpreter a moment later: on a shared 2-vCPU VM the two are strongly
    correlated (0.74 in log time), and the ratio's 10-s medians spread 2.3%
    where the relsim seconds spread 17%.
    """
    _setup_probe(name, seed)
    ratios = [relsim_s / stdlib_s
              for relsim_s, stdlib_s in (_setup_probe(name, seed) for _ in range(SETUP_PROBES))]
    return statistics.median(ratios) * SETUP_REFERENCE_S


def _op_loop(workload, budget_s: float, min_ops: int, scratch: Path, after_op=None) -> list:
    """Run operations until ``budget_s`` has passed and ``min_ops`` are done.

    The reference loop is timed before the first operation and after each
    one; an operation's reference time is the mean of the two timings beside
    it, which follows the host's speed during the operation more closely than
    either alone.  An operation that raises is recorded as ``None`` and its
    traceback printed.
    """
    from reference import time_reference
    from workloads import execute

    ops, refs = [], [time_reference()]
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < budget_s:
        try:
            ops.append(execute(workload, scratch))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops.append(None)
        if after_op is not None:
            after_op()
        refs.append(time_reference())
    for op, before, after in zip(ops, refs, refs[1:]):
        if op is not None:
            op.ref_s = (before + after) / 2
    return ops


def _good_ops(ops: list, reference: str | None) -> list:
    """Operations whose checks passed and whose digest matches ``reference``."""
    good = []
    for op in ops:
        if op is None:
            continue
        for failure in op.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        if op.digest != reference:
            print(f"check failed: digest {op.digest[:16]} != {reference[:16]}",
                  file=sys.stderr)
        elif not op.failures:
            good.append(op)
    return good


def _reference_digest(ops: list) -> str | None:
    return next((op.digest for op in ops if op is not None), None)


def _median_ref(ops: list) -> float:
    """Median operation time in reference units."""
    return statistics.median(op.wall_s / op.ref_s for op in ops)


def end_to_end(workload, seconds: float, scratch: Path) -> tuple[dict, int, int]:
    """End-to-end metrics from untraced operations: (metrics, attempted, failed)."""
    from workloads import warm_up

    setup = measure_setup(workload.name, workload.seed)
    warm_up(scratch)
    ops = _op_loop(workload, seconds, 3, scratch)
    good = _good_ops(ops, _reference_digest(ops))
    if not good:
        return {}, len(ops), len(ops)
    wall = _median_ref(good)
    print(f"host seconds: operation median {statistics.median(op.wall_s for op in good):.4f}, "
          f"reference loop median {statistics.median(op.ref_s for op in good):.4f}")
    op = good[0]
    values = {
        "wall_ref": wall,
        "sim_steps_per_ref": op.work / wall,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "T_rounds": op.rounds,
        "W_steps": op.work,
        "M_messages": op.messages,
        "fraction_within_band": _ratio(op.n_within, op.n_numeric_live),
    }
    return values, len(ops), len(ops) - len(good)


def per_layer(workload, seconds: float, scratch: Path) -> tuple[dict, int, int]:
    """Per-layer metrics from a span-traced run: (metrics, attempted, failed).

    Untraced operations come first; traced ones must reproduce their digest,
    and every wrapped function must be back in place afterwards.
    """
    from spans import SPAN_NAMES, SpanRecorder, originals
    from workloads import warm_up

    warm_up(scratch)
    untraced = _op_loop(workload, seconds / 2, 1, scratch)
    recorder = SpanRecorder()
    before = originals()
    with recorder.installed():
        traced = _op_loop(workload, seconds / 2, 1, scratch, after_op=recorder.drain)
    ops = untraced + traced
    reference = _reference_digest(ops)
    good_untraced = _good_ops(untraced, reference)
    good_traced = _good_ops(traced, reference)
    failed = len(ops) - len(good_untraced) - len(good_traced)
    if not all(a is b for a, b in zip(before, originals())):
        print("check failed: span wrappers were not removed", file=sys.stderr)
        failed = len(ops)
    if not good_untraced or not good_traced or failed == len(ops):
        return {}, len(ops), failed

    k = len(traced)
    traced_total = sum(op.wall_s for op in traced if op is not None)
    untraced_wall = statistics.median(op.wall_s for op in good_untraced)
    traced_wall = statistics.median(op.wall_s for op in good_traced)
    calls, self_s, counts = recorder.calls, recorder.self_s, recorder.counts
    values = {}
    for span in SPAN_NAMES:
        values[f"{span}.calls"] = calls[span] / k
        values[f"{span}.self_s"] = self_s[span] / k
        values[f"{span}.share"] = _ratio(self_s[span], traced_total)
    op = good_traced[0]
    values.update({
        "knowledge.satisfies.hit_ratio": _ratio(
            counts["knowledge.satisfies.true"], calls["knowledge.RecordPool.satisfies"]),
        "engine.active_ratio": _ratio(op.work / 9, op.processor_rounds),
        "engine.processor_rounds": op.processor_rounds,
        "engine.deliver.drop_ratio": _ratio(
            counts["engine.deliver.dropped"], counts["engine.deliver.messages"]),
        "engine.deliver.messages": counts["engine.deliver.messages"] / k,
        "protocol.query_compute.served_ratio": _ratio(
            counts["protocol.query_compute.tasks"],
            counts["protocol.query_compute.requests"]),
        "protocol.query_compute.requests": counts["protocol.query_compute.requests"] / k,
        "trace.bytes": op.trace_bytes,
        "tracing_overhead": _median_ref(good_traced) / _median_ref(good_untraced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "reference_s": statistics.median(op.ref_s for op in good_untraced + good_traced),
    })
    return values, len(ops), failed


def measure(workload, seconds: float, trace: bool, scratch: Path) -> dict:
    """The result object printed as the last line of output."""
    if trace:
        values, attempted, failed = per_layer(workload, seconds, scratch)
        units = per_layer_units()
    else:
        values, attempted, failed = end_to_end(workload, seconds, scratch)
        units = END_TO_END
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name][0]}
                    for name in units if name in values},
    }


def _print_table(result: dict, trace: bool) -> None:
    metrics = result["metrics"]
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_share {_ratio(result['failed'], result['attempted']):.4f}")
    if not trace:
        for name, (unit, better) in END_TO_END.items():
            if name in metrics:
                print(f"  {name:<22} {metrics[name]['value']:>14.6g} {unit:<6} "
                      f"({better} is better)")
        return
    from spans import SPAN_NAMES

    print(f"  {'span':<36} {'calls/op':>12} {'self_s/op':>11} {'share':>7}")
    ranked = sorted(SPAN_NAMES, key=lambda s: -metrics.get(f"{s}.share", {"value": 0})["value"])
    for span in ranked:
        if f"{span}.calls" in metrics:
            print(f"  {span:<36} {metrics[f'{span}.calls']['value']:>12.0f} "
                  f"{metrics[f'{span}.self_s']['value']:>11.4f} "
                  f"{metrics[f'{span}.share']['value']:>7.3f}")
    for name in per_layer_units():
        if name in metrics and not name.endswith((".calls", ".self_s", ".share")):
            print(f"  {name:<36} {metrics[name]['value']:>12.6g} {metrics[name]['unit']}")


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh interpreter and return its result object."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + seconds,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no output (exit code {done.returncode})")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float) -> int:
    results = {w: (run_child(w, seed, seconds, 0), run_child(w, seed, seconds, 1))
               for w in WORKLOAD_NAMES}
    print(f"{'metric':<22}" + "".join(f"{w:>15}" for w in WORKLOAD_NAMES))
    for name, (unit, better) in END_TO_END.items():
        row = "".join(
            f"{results[w][0]['metrics'].get(name, {'value': float('nan')})['value']:>15.6g}"
            for w in WORKLOAD_NAMES)
        print(f"{name:<22}{row}  {unit} ({better} is better)")
    row = "".join(f"{_ratio(r[0]['failed'], r[0]['attempted']):>15.4f}"
                  for r in results.values())
    print(f"{'failed_share':<22}{row}  ratio (lower is better)")
    for w in WORKLOAD_NAMES:
        print(f"\nper-layer, {w}:")
        _print_table(results[w][1], trace=True)
    ok = all(r["correct"] for pair in results.values() for r in pair)
    print(json.dumps({"correct": ok, "workloads": {
        w: {"end_to_end": results[w][0], "per_layer": results[w][1]}
        for w in WORKLOAD_NAMES}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "relsim" / "__init__.py").is_file():
        print(f"error: no relsim sources at {SRC / 'relsim'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    # Turn a termination request into SystemExit so temporary files are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    from workloads import build

    workload = build(args.workload, args.seed)
    print("env " + json.dumps(environment(workload)))
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as scratch:
        result = measure(workload, args.seconds, bool(args.trace), Path(scratch))
    _print_table(result, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
