"""Command-line front end and experiment runner.

Subcommands:

* ``run``    -- one simulation; prints a summary JSON document and can write
  a line-delimited trace.
* ``sweep``  -- grid of (n, trial) runs; writes a CSV of per-run rows plus
  one aggregate row per n (means and standard deviations).
* ``verify`` -- executes the built-in acceptance suite headlessly and prints
  one pass/fail line per criterion.
* ``replay`` -- re-executes the run recorded in a trace file and checks the
  regenerated trace is byte-identical.

Flags override config-file values; the merged effective config is embedded
in every artifact so any run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import engine
from .adversary import (
    AdversaryDomainError,
    ConstantReliability,
    ExplicitReliability,
    UniformReliability,
)
from .engine import MODEL_KEYS, ConfigError, RunConfig, RunResult, reliability_to_dict
from .estimator import ParameterDomainError
from .metrics import accuracy
from .trace import EVENT_KINDS, SCHEMA_VERSION

SWEEP_COLUMNS = [
    "row_type", "n", "trial", "seed", "completion", "T", "W", "M",
    "fraction_within_band", "false_positives", "undetermined",
    "std_T", "std_W", "std_M", "std_fraction_within_band",
]


class UsageError(ValueError):
    pass


def parse_p_spec(text: str):
    """Parse 'constant:P', 'uniform:LO,HI' or 'explicit:P1,P2,...'."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "constant":
            return ConstantReliability(float(rest))
        if kind == "uniform":
            lo, hi = (float(x) for x in rest.split(","))
            return UniformReliability(lo, hi)
        if kind == "explicit":
            return ExplicitReliability(tuple(float(x) for x in rest.split(",")))
    except (ValueError, AdversaryDomainError) as exc:
        raise UsageError(f"bad --p-spec {text!r}: {exc}") from exc
    raise UsageError(f"unknown p-spec kind {kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relsim",
        description="Simulator for decentralized worker-reliability estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", type=Path, help="JSON config file (flags override)")
        p.add_argument("--n", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--delta", type=float)
        p.add_argument("--model", choices=["lf", "fp", "pl"])
        p.add_argument("--f", type=float, help="crash fraction for --model lf")
        p.add_argument("--a", type=float, help="exponent for --model fp")
        p.add_argument("--c", type=float, help="log exponent for --model pl")
        p.add_argument("--coeff", type=float, help="survivor-bound coefficient")
        p.add_argument("--p-spec", type=str,
                       help="constant:P | uniform:LO,HI | explicit:P1,...")
        p.add_argument("--crash-pattern", choices=["none", "upfront", "spread"])
        p.add_argument("--spread-rounds", type=int, default=32,
                       help="window for --crash-pattern spread")
        p.add_argument("--seed", type=int)
        p.add_argument("--max-rounds", type=int)
        p.add_argument("--literal-ell-reset", action="store_true", default=None)

    run_p = sub.add_parser("run", help="execute one simulation")
    add_config_flags(run_p)
    run_p.add_argument("--trace", type=Path, help="write a trace file here")
    run_p.add_argument("--trace-kinds", type=str,
                       help="comma-separated event kinds to keep")
    run_p.add_argument("--out", type=Path, help="directory for the summary file")
    run_p.add_argument("--dump-estimates", action="store_true")

    sweep_p = sub.add_parser("sweep", help="run a grid of simulations")
    add_config_flags(sweep_p)
    sweep_p.add_argument("--grid", type=str, required=True,
                         help="comma-separated strictly increasing n values")
    sweep_p.add_argument("--trials", type=int, default=1)
    sweep_p.add_argument("--jobs", type=int, default=1)
    sweep_p.add_argument("--out", type=Path, required=True)

    verify_p = sub.add_parser("verify", help="run the acceptance suite")
    verify_p.add_argument("--only", type=str,
                          help="comma-separated criterion numbers to run")

    replay_p = sub.add_parser("replay", help="re-execute a traced run")
    replay_p.add_argument("--trace", type=Path, required=True)
    return parser


def config_from_args(args) -> RunConfig:
    """Merge config file and flags into an effective RunConfig."""
    base: dict = {}
    if getattr(args, "config", None):
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(base, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
    merged = dict(base)
    if args.n is not None:
        merged["n"] = args.n
    if args.epsilon is not None:
        merged["epsilon"] = args.epsilon
    if args.delta is not None:
        merged["delta"] = args.delta
    if args.model is not None:
        # The model's own defaults fill the fields not given.
        merged["model"] = {"kind": args.model, **{
            key: getattr(args, key) for key in MODEL_KEYS[args.model]
            if getattr(args, key) is not None}}
    if args.p_spec is not None:
        merged["reliability"] = reliability_to_dict(parse_p_spec(args.p_spec))
    if args.crash_pattern is not None:
        if args.crash_pattern == "spread":
            merged["crash_pattern"] = {"kind": "spread", "rounds": args.spread_rounds}
        else:
            merged["crash_pattern"] = {"kind": args.crash_pattern}
    if args.seed is not None:
        merged["seed"] = args.seed
    if args.max_rounds is not None:
        merged["max_rounds"] = args.max_rounds
    if args.literal_ell_reset is not None:
        merged["literal_ell_reset"] = args.literal_ell_reset
    merged.setdefault("epsilon", 0.5)
    merged.setdefault("delta", 0.1)
    if "n" not in merged:
        raise UsageError("--n (or a config file with n) is required")
    return _config_from_dict(merged)


def _config_from_dict(data) -> RunConfig:
    try:
        config = RunConfig.from_dict(data)
        config.validate()
    except (ConfigError, ParameterDomainError, AdversaryDomainError) as exc:
        raise UsageError(str(exc)) from exc
    return config


def _trace_kinds(kinds) -> Optional[list[str]]:
    if kinds is not None and (not isinstance(kinds, list)
                              or set(kinds) - set(EVENT_KINDS)):
        raise UsageError(f"bad trace kinds {kinds!r}; choose from {list(EVENT_KINDS)}")
    return kinds


def summarize(result: RunResult, dump_estimates: bool = False) -> dict:
    """Summary document embedding the effective config."""
    report = accuracy(result, result.truth, result.schedule,
                      result.config.params)
    metrics = result.metrics
    summary = {
        "config": result.config.to_dict(),
        "completion": result.completion,
        "rounds": metrics.rounds_to_all_halt,
        "work_steps": metrics.work_steps,
        "messages_total": metrics.messages_total,
        "messages_by_type": dict(metrics.messages_by_type),
        "tasks_executed": metrics.tasks_executed,
        "false_crash_detections": metrics.false_crash_detections,
        "dropped_requests": metrics.dropped_requests,
        "delivered": metrics.delivered,
        "dropped_to_crashed": metrics.dropped_to_crashed,
        "dropped_to_halted": metrics.dropped_to_halted,
        "halted": sum(1 for r in metrics.per_processor_halt_round if r is not None),
        "crashed": len(result.schedule.crash_round),
        "accuracy": {
            "fraction_within_band": report.fraction_within_band,
            "n_within": report.n_within,
            "n_numeric_live": report.n_numeric_live,
            "crash_true_positives": report.crash_true_positives,
            "crash_false_positives": report.crash_false_positives,
            "undetermined": report.undetermined,
        },
    }
    if dump_estimates:
        summary["estimates"] = {
            str(pid): [None if math.isnan(v) else v for v in est.tolist()]
            for pid, est in result.estimates.items()
        }
    return summary


def _trace_header(result: RunResult) -> str:
    kinds = result.trace.kinds
    return json.dumps({
        "kind": "header",
        "v": SCHEMA_VERSION,
        "config": result.config.to_dict(),
        "trace_kinds": sorted(kinds) if kinds is not None else None,
    }, separators=(",", ":"))


def write_trace(result: RunResult, path: Path) -> None:
    """Write the header (config + filters) and one line per event."""
    Path(path).write_text(render_trace(result))


def render_trace(result: RunResult) -> str:
    return "\n".join([_trace_header(result), *result.trace.lines]) + "\n"


# --- sweep ---------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Grid of population sizes crossed with trial seeds."""

    grid: tuple[int, ...]
    trials: int
    base: RunConfig
    jobs: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise UsageError(f"trials must be >= 1, got {self.trials}")
        if not self.grid or any(
            b <= a for a, b in zip(self.grid, self.grid[1:])
        ):
            raise UsageError("grid must be nonempty and strictly increasing")


def _sweep_point(payload: tuple[dict, int, int]) -> dict:
    base_dict, n, trial = payload
    config = RunConfig.from_dict({**base_dict, "n": n,
                                  "seed": base_dict["seed"] + trial,
                                  "max_rounds": base_dict.get("max_rounds")})
    result = engine.run(config)
    report = accuracy(result, result.truth, result.schedule, config.params)
    return {
        "row_type": "trial",
        "n": n,
        "trial": trial,
        "seed": config.seed,
        "completion": result.completion,
        "T": result.metrics.rounds_to_all_halt,
        "W": result.metrics.work_steps,
        "M": result.metrics.messages_total,
        "fraction_within_band": round(report.fraction_within_band, 6),
        "false_positives": report.crash_false_positives,
        "undetermined": report.undetermined,
        "std_T": "", "std_W": "", "std_M": "", "std_fraction_within_band": "",
    }


def sweep(spec: ExperimentSpec) -> list[dict]:
    """Run the grid and return per-trial rows plus per-n aggregates."""
    base_dict = spec.base.to_dict()
    points = [(base_dict, n, t) for n in spec.grid for t in range(spec.trials)]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(pt) for pt in points]
    out: list[dict] = []
    for n in spec.grid:
        group = [r for r in rows if r["n"] == n]
        out.extend(group)
        def col(name):
            return [float(r[name]) for r in group]
        def std(values):
            return statistics.pstdev(values) if len(values) > 1 else 0.0
        out.append({
            "row_type": "aggregate",
            "n": n,
            "trial": "",
            "seed": "",
            "completion": "",
            "T": round(statistics.mean(col("T")), 3),
            "W": round(statistics.mean(col("W")), 3),
            "M": round(statistics.mean(col("M")), 3),
            "fraction_within_band": round(
                statistics.mean(col("fraction_within_band")), 6),
            "false_positives": round(statistics.mean(col("false_positives")), 3),
            "undetermined": round(statistics.mean(col("undetermined")), 3),
            "std_T": round(std(col("T")), 3),
            "std_W": round(std(col("W")), 3),
            "std_M": round(std(col("M")), 3),
            "std_fraction_within_band": round(
                std(col("fraction_within_band")), 6),
        })
    return out


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="") as sink:
        writer = csv.DictWriter(sink, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


# --- subcommand entry points -----------------------------------------------------


def _cmd_run(args) -> int:
    config = config_from_args(args)
    trace_kinds = _trace_kinds(
        args.trace_kinds.split(",") if args.trace_kinds else None
    )
    result = engine.run(config, collect_trace=args.trace is not None,
                        trace_kinds=trace_kinds)
    summary = summarize(result, dump_estimates=args.dump_estimates)
    text = json.dumps(summary, indent=2)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "run_summary.json").write_text(text + "\n")
    if args.trace:
        write_trace(result, args.trace)
    print(text)
    if result.completion == "round_cap_hit":
        rounds = result.metrics.rounds_to_all_halt
        active = [pid for pid, halt in enumerate(result.metrics.per_processor_halt_round)
                  if halt is None and result.schedule.crash_round.get(pid, rounds) >= rounds]
        listed = ", ".join(map(str, active[:10])) + (", ..." if len(active) > 10 else "")
        print(f"note: the run stopped at its round cap of {rounds} rounds with "
              f"{len(active)} workers still active: {listed}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    try:
        grid = tuple(int(x) for x in args.grid.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --grid {args.grid!r}") from exc
    if args.n is None:
        args.n = grid[0]
    base = config_from_args(args)
    spec = ExperimentSpec(grid=grid, trials=args.trials, base=base, jobs=args.jobs)
    rows = sweep(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "sweep.csv"
    write_sweep_csv(rows, path)
    print(str(path))
    return 0


def _cmd_verify(args) -> int:
    from .acceptance import CRITERIA, run_criteria

    only = None
    if args.only:
        try:
            only = [int(x) for x in args.only.split(",")]
        except ValueError:
            only = []
        if not only or set(only) - set(CRITERIA):
            raise UsageError(f"bad --only {args.only!r}; criteria are numbered "
                             f"{min(CRITERIA)}-{max(CRITERIA)}")
    results = run_criteria(only)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  criterion {res.number}: {res.name} -- {res.detail}")
        failed += 0 if res.passed else 1
    return 1 if failed else 0


def _cmd_replay(args) -> int:
    try:
        original = Path(args.trace).read_text()
        header = json.loads(original.partition("\n")[0])
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{args.trace} does not start with a trace header: {exc}") from exc
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise UsageError(f"{args.trace} does not start with a trace header")
    if header.get("v") != SCHEMA_VERSION:
        raise UsageError(f"{args.trace} has trace schema version {header.get('v')!r}; "
                         f"this relsim reads version {SCHEMA_VERSION}")
    config = _config_from_dict(header.get("config"))
    kinds = _trace_kinds(header.get("trace_kinds"))
    result = engine.run(config, collect_trace=True, trace_kinds=kinds)
    regenerated = render_trace(result)
    if regenerated == original:
        print("replay OK: trace is byte-identical")
        return 0
    print("replay MISMATCH: regenerated trace differs")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "replay":
            return _cmd_replay(args)
    except (UsageError, ConfigError, ParameterDomainError,
            AdversaryDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
