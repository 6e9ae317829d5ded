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
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from . import engine
from .adversary import AdversaryDomainError
from .engine import SPECS, ConfigError, RunConfig, RunResult, spec_from_dict, spec_to_dict
from .estimator import ParameterDomainError
from .metrics import accuracy
from .trace import EVENT_KINDS, SCHEMA_VERSION, Batch

SWEEP_COLUMNS = [
    "row_type", "n", "trial", "seed", "completion", "T", "W", "M",
    "fraction_within_band", "false_positives", "undetermined",
    "std_T", "std_W", "std_M", "std_fraction_within_band",
]
# Averaged in each aggregate row, with a population standard deviation
# where a std_ column exists.
AGGREGATED_COLUMNS = ("T", "W", "M", "fraction_within_band", "false_positives",
                      "undetermined")


# Flags that set the config key of the same name.
_SCALAR_FLAGS = ("n", "epsilon", "delta", "seed", "max_rounds")
# Flags that set one field of a spec section: dest -> (section, field, help).
_FIELD_FLAGS = {
    "f": ("model", "f", "crash fraction"),
    "a": ("model", "a", "survivor exponent"),
    "c": ("model", "c", "log exponent"),
    "coeff": ("model", "coeff", "survivor-bound coefficient"),
    "spread_rounds": ("crash_pattern", "rounds", "crash window in rounds"),
}


class UsageError(ValueError):
    pass


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _owners(section: str, name: str) -> dict:
    """The kinds of a spec section that have field ``name``, with its type."""
    return {kind: hints[name] for kind, cls in SPECS[section].items()
            if name in (hints := get_type_hints(cls))}


def _needs(section: str, name: str) -> str:
    return f"needs {_flag(section)} {' or '.join(_owners(section, name))}"


def parse_p_spec(text: str):
    """Parse 'constant:P', 'uniform:LO,HI' or 'explicit:P1,P2,...'."""
    kind, _, rest = text.partition(":")
    if kind not in SPECS["reliability"]:
        raise UsageError(f"unknown p-spec kind {kind!r}")
    hints = get_type_hints(SPECS["reliability"][kind])
    try:
        values = [float(x) for x in rest.split(",")]
        if tuple[float, ...] in hints.values():
            values = [values]
        if len(values) != len(hints):
            raise ValueError(f"{kind} takes {len(hints)} values")
        return spec_from_dict({"kind": kind, **dict(zip(hints, values))}, "reliability")
    except ValueError as exc:
        raise UsageError(f"bad --p-spec {text!r}: {exc}") from exc


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
        p.add_argument("--model", choices=list(SPECS["model"]))
        p.add_argument("--p-spec", type=str,
                       help="constant:P | uniform:LO,HI | explicit:P1,...")
        p.add_argument("--crash-pattern", choices=list(SPECS["crash_pattern"]))
        for dest, (section, name, text) in _FIELD_FLAGS.items():
            p.add_argument(_flag(dest), type=next(iter(_owners(section, name).values())),
                           help=f"{text}; {_needs(section, name)}")
        p.add_argument("--seed", type=int)
        p.add_argument("--max-rounds", type=int)

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
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes; at most the number of runs and of CPUs")
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
    for key in _SCALAR_FLAGS:
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    if args.p_spec is not None:
        merged["reliability"] = spec_to_dict(parse_p_spec(args.p_spec))
    for section in ("model", "crash_pattern"):
        kind, given = getattr(args, section), merged.get(section)
        # A kind the file names keeps the file's fields; another kind starts
        # from its spec's defaults.
        if kind is not None and not (isinstance(given, dict) and given.get("kind") == kind):
            merged[section] = {"kind": kind}
    for dest, (section, name, _) in _FIELD_FLAGS.items():
        if getattr(args, dest) is not None:
            if getattr(args, section) not in _owners(section, name):
                raise UsageError(f"{_flag(dest)} {_needs(section, name)}")
            merged[section][name] = getattr(args, dest)
    merged.setdefault("epsilon", 0.5)
    merged.setdefault("delta", 0.1)
    if "n" not in merged:
        raise UsageError("--n (or a config file with n) is required")
    return RunConfig.from_dict(merged)


def _output(path: Path, make_parent: bool = False):
    """``path`` opened for writing; one that cannot be written is a usage error."""
    try:
        if make_parent:
            path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


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
        # Crashes scheduled at or after the last round never happened.
        "crashed": sum(1 for r in result.schedule.crash_round.values()
                       if r < metrics.rounds_to_all_halt),
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


def _trace_header(config: RunConfig, kinds) -> str:
    """The header line (config + filters) that starts a trace file."""
    return json.dumps({
        "kind": "header",
        "v": SCHEMA_VERSION,
        "config": config.to_dict(),
        "trace_kinds": sorted(kinds) if kinds is not None else None,
    }, separators=(",", ":")) + "\n"


def write_trace(result: RunResult, path: Path) -> None:
    """Write the header and the held trace, rendering one batch at a time."""
    with open(path, "w", encoding="utf-8", newline="") as sink:
        sink.write(_trace_header(result.config, result.trace.kinds))
        sink.writelines(map(Batch.render, result.trace.batches))


def render_trace(result: RunResult) -> str:
    """The text that :func:`write_trace` writes."""
    return "".join([_trace_header(result.config, result.trace.kinds),
                    *map(Batch.render, result.trace.batches)])


class _SameAs:
    """A trace sink that compares each batch's text with the next bytes of a
    file, and describes the first difference."""

    def __init__(self, source):
        self.source = source
        self.difference = None
        # Line number of the next regenerated line; the header is line 1.
        self.line = 2

    def __call__(self, batch: Batch) -> None:
        if self.difference:
            return
        data = batch.render().encode()
        read = self.source.read(len(data))
        if read != data:
            at = next((i for i, (a, b) in enumerate(zip(read, data)) if a != b), len(read))
            line = batch.seq + 2 + data.count(b"\n", 0, at)
            self.difference = (
                f"line {line} (round {batch.round}) differs from the regenerated trace"
                if at < len(read) else
                f"the file ends before line {line} (round {batch.round}) is complete")
        self.line = batch.seq + 2 + len(batch.ids)


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
        if self.jobs < 1:
            raise UsageError(f"jobs must be >= 1, got {self.jobs}")
        if not self.grid or any(
            b <= a for a, b in zip(self.grid, self.grid[1:])
        ):
            raise UsageError("grid must be nonempty and strictly increasing")
        self.points()  # every point's config checks itself

    def points(self) -> list[tuple[int, RunConfig]]:
        """(trial, config) of every run, by n then trial; trial t runs at
        the base seed plus t."""
        return [(trial, replace(self.base, n=n, seed=self.base.seed + trial))
                for n in self.grid for trial in range(self.trials)]


def _sweep_point(point: tuple[int, RunConfig]) -> dict:
    trial, config = point
    result = engine.run(config)
    report = accuracy(result, result.truth, result.schedule, config.params)
    return {
        "row_type": "trial",
        "n": config.n,
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
        # Left out of sweep.csv; the acceptance suite and scripts read them.
        "halted": len(result.estimates),
        "n_within": report.n_within,
        "n_numeric_live": report.n_numeric_live,
    }


def sweep(spec: ExperimentSpec) -> list[dict]:
    """Run the grid and return per-trial rows plus per-n aggregates.

    The runs go to at most ``spec.jobs`` worker processes, and to no more
    than there are runs or CPUs.  An aggregate's completion cell counts its
    trials that stopped at the round cap, as ``round_cap_hit k/trials``.
    """
    import statistics

    points = spec.points()
    workers = min(spec.jobs, len(points), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, points))
    else:
        rows = [_sweep_point(point) for point in points]
    out: list[dict] = []
    for n in spec.grid:
        group = [r for r in rows if r["n"] == n]
        out.extend(group)
        capped = sum(r["completion"] == "round_cap_hit" for r in group)
        aggregate = dict.fromkeys(SWEEP_COLUMNS, "") | {
            "row_type": "aggregate", "n": n,
            "completion": f"round_cap_hit {capped}/{len(group)}"}
        for name in AGGREGATED_COLUMNS:
            values = [float(r[name]) for r in group]
            digits = 6 if name == "fraction_within_band" else 3
            aggregate[name] = round(statistics.mean(values), digits)
            if f"std_{name}" in SWEEP_COLUMNS:
                aggregate[f"std_{name}"] = round(statistics.pstdev(values), digits)
        out.append(aggregate)
    return out


def write_sweep_csv(rows: list[dict], path: Path) -> None:
    with open(path, "w", newline="") as sink:
        writer = csv.DictWriter(sink, fieldnames=SWEEP_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


# --- subcommand entry points -----------------------------------------------------


def _cmd_run(args) -> int:
    config = config_from_args(args)
    trace_kinds = _trace_kinds(
        args.trace_kinds.split(",") if args.trace_kinds else None
    )
    # Every output is created before the run, so a bad path fails at once.
    if args.out:
        _output(args.out / "run_summary.json", make_parent=True).close()
    if args.trace:
        with _output(args.trace) as sink:
            sink.write(_trace_header(config, trace_kinds))
            result = engine.run(config, trace_kinds=trace_kinds,
                                trace_sink=lambda batch: sink.write(batch.render()))
    else:
        result = engine.run(config)
    summary = summarize(result, dump_estimates=args.dump_estimates)
    text = json.dumps(summary, indent=2)
    if args.out:
        (args.out / "run_summary.json").write_text(text + "\n")
    print(text)
    if result.completion == "round_cap_hit":
        rounds = result.metrics.rounds_to_all_halt
        active = [pid for pid, halt in enumerate(result.metrics.per_processor_halt_round)
                  if halt is None and result.schedule.crash_round.get(pid, rounds) >= rounds]
        listed = ", ".join(map(str, active[:10])) + (", ..." if len(active) > 10 else "")
        print(f"note: the run stopped at its round cap of {rounds} rounds with "
              f"{len(active)} workers still active: {listed}", file=sys.stderr)
    return 0


def parse_grid(text: str) -> tuple[int, ...]:
    """The n values of a comma-separated ``--grid``."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --grid {text!r}") from exc


def _cmd_sweep(args) -> int:
    grid = parse_grid(args.grid)
    if args.n is not None:
        raise UsageError("sweep takes n from --grid; drop --n")
    args.n = grid[0]
    base = config_from_args(args)
    spec = ExperimentSpec(grid=grid, trials=args.trials, base=base, jobs=args.jobs)
    path = args.out / "sweep.csv"
    _output(path, make_parent=True).close()
    write_sweep_csv(sweep(spec), path)
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
        print(f"{status}  criterion {res.number}: {res.name} -- {res.detail} "
              f"({res.seconds:.1f} s)")
        failed += 0 if res.passed else 1
    return 1 if failed else 0


def _cmd_replay(args) -> int:
    try:
        source = open(args.trace, "rb")
    except OSError as exc:
        raise UsageError(f"cannot read trace file {args.trace}: {exc}") from exc
    with source:
        first = source.readline()
        try:
            header = json.loads(first)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise UsageError(f"{args.trace} does not start with a trace header: {exc}") from exc
        if not isinstance(header, dict) or header.get("kind") != "header":
            raise UsageError(f"{args.trace} does not start with a trace header")
        if header.get("v") != SCHEMA_VERSION:
            raise UsageError(f"{args.trace} has trace schema version {header.get('v')!r}; "
                             f"this relsim reads version {SCHEMA_VERSION}")
        config = RunConfig.from_dict(header.get("config"))
        kinds = _trace_kinds(header.get("trace_kinds"))
        rest = _SameAs(source)
        engine.run(config, trace_kinds=kinds, trace_sink=rest)
        if first != _trace_header(config, kinds).encode():
            difference = "line 1, the header, differs from the regenerated one"
        elif rest.difference:
            difference = rest.difference
        elif source.read(1):
            difference = f"the file goes on at line {rest.line}, after the regenerated trace ends"
        else:
            print("replay OK: trace is byte-identical")
            return 0
    print(f"replay MISMATCH: {difference}")
    return 1


def exit_status(command, *args) -> int:
    """``command(*args)``, or 2 after printing ``error: ...`` if it raises
    one of the errors of bad input, or 141, the status of a process killed
    by SIGPIPE, if the reader of its output goes away."""
    try:
        status = command(*args)
        sys.stdout.flush()
        return status
    except (UsageError, ConfigError, ParameterDomainError, AdversaryDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Send what is left to /dev/null, so the flush at exit does not fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return exit_status({"run": _cmd_run, "sweep": _cmd_sweep, "verify": _cmd_verify,
                        "replay": _cmd_replay}[args.command], args)


if __name__ == "__main__":
    raise SystemExit(main())
