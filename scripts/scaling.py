#!/usr/bin/env python3
"""Growth of completion time, work and messages with n, under lf or fp.

lf (linear fraction, upfront crashes): prints the means of T, W and M per n
next to each one's expected growth (time ~ log2 n, work ~ n log2 n,
messages ~ n log2^2 n), then how flat each ratio is across the grid.

fp (fractional polynomial, upfront crashes): survivors are bounded below by
n**a, so the few live workers throttle estimability and completion time
grows like n**(1-a) times log factors rather than log n.  Prints the mean T
per n and its ratio to the previous n.

Every row ends with the aggregate's completion cell, ``round_cap_hit
k/trials``: a mean over runs stopped at the round cap is the cap, not a
completion time.  Defaults: lf grid 128,256,512,1024,2048, 10 trials,
f 0.25, seed 500; fp grid 256,1024,4096, 3 trials, a 0.5, seed 600.
--out writes the per-run rows as CSV.
"""

import argparse
import math
from pathlib import Path

from relsim.adversary import FractionalPolynomial, LinearFraction, UpfrontCrashes
from relsim.engine import RunConfig
from relsim.estimator import EstimationParams
from relsim.harness import ExperimentSpec, exit_status, sweep, write_sweep_csv
from relsim.metrics import scaling_fit

# Per model, the defaults of the flags left unset; --f and --a each belong
# to one model.
DEFAULTS = {
    "lf": {"grid": "128,256,512,1024,2048", "trials": 10, "seed": 500, "f": 0.25},
    "fp": {"grid": "256,1024,4096", "trials": 3, "seed": 600, "a": 0.5},
}


def print_lf(grid, aggregates) -> None:
    print(f"{'n':>6} {'T':>8} {'T/log2n':>9} {'W/(nlog2n)':>11} {'M/(nlog2^2n)':>13}"
          "  completion")
    for n in grid:
        agg = aggregates[n]
        log2n = math.log2(n)
        print(f"{n:>6} {agg['T']:>8.1f} {agg['T'] / log2n:>9.2f} "
              f"{agg['W'] / (n * log2n):>11.2f} "
              f"{agg['M'] / (n * log2n ** 2):>13.2f}  {agg['completion']}")
    for name, key, shape in (("time", "T", "log2"), ("work", "W", "nlog2"),
                             ("messages", "M", "nlog2sq")):
        fit = scaling_fit([(n, aggregates[n][key]) for n in grid], shape)
        print(f"{name}: normalized spread +/-{fit.max_rel_deviation:.0%}, "
              f"log-log slope {fit.loglog_slope:.2f}")


def print_fp(grid, aggregates, model) -> None:
    print(f"{'n':>6} {'survivors>=':>11} {'mean T':>9} {'T ratio':>8}  completion")
    prev = None
    for n in grid:
        agg = aggregates[n]
        ratio = "" if prev is None else f"{agg['T'] / prev:8.2f}"
        print(f"{n:>6} {model.survivor_floor(n):>11.0f} {agg['T']:>9.1f} {ratio:>8}"
              f"  {agg['completion']}")
        prev = agg["T"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--model", choices=DEFAULTS, required=True)
    parser.add_argument("--grid", help="comma-separated strictly increasing n values")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--f", type=float, help="lf crash fraction")
    parser.add_argument("--a", type=float, help="fp survivor exponent")
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    own = DEFAULTS[args.model]
    for key, value in own.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    for model, defaults in DEFAULTS.items():
        for key in defaults.keys() - own.keys():
            if getattr(args, key) is not None:
                parser.error(f"--{key} needs --model {model}")

    grid = tuple(int(x) for x in args.grid.split(","))
    model = (LinearFraction(args.f) if args.model == "lf"
             else FractionalPolynomial(args.a, 1.0))
    base = RunConfig(
        n=grid[0],
        params=EstimationParams(args.epsilon, args.delta),
        model=model,
        crash_pattern=UpfrontCrashes(),
        seed=args.seed,
    )
    rows = sweep(ExperimentSpec(grid=grid, trials=args.trials, base=base,
                                jobs=args.jobs))
    aggregates = {r["n"]: r for r in rows if r["row_type"] == "aggregate"}
    if args.model == "lf":
        print_lf(grid, aggregates)
    else:
        print_fp(grid, aggregates, model)

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.model}_scaling.csv"
        write_sweep_csv(rows, path)
        print(f"rows written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
