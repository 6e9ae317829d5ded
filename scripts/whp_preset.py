#!/usr/bin/env python3
"""Runs where the failure probability shrinks with the population.

Preset tying delta to 1/n**alpha, the regime in which the estimation error
probability vanishes as populations grow.  Reports the pooled in-band
fraction per size; it should rise toward 1 with n.
"""

import argparse

from relsim.adversary import LinearFraction, NoCrashes, UniformReliability
from relsim.engine import RunConfig
from relsim.estimator import EstimationParams
from relsim.harness import ExperimentSpec, exit_status, sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="64,128,256")
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=900)
    args = parser.parse_args()

    print(f"{'n':>6} {'delta=1/n^a':>12} {'in-band':>8} {'undetermined':>13}")
    for n in (int(x) for x in args.grid.split(",")):
        # delta depends on n, so each n is a sweep of its own.
        delta = 1.0 / n**args.alpha
        base = RunConfig(
            n=n,
            params=EstimationParams(args.epsilon, delta),
            model=LinearFraction(0.0),
            crash_pattern=NoCrashes(),
            reliability=UniformReliability(0.3, 1.0),
            seed=args.seed,
        )
        rows = [r for r in sweep(ExperimentSpec(grid=(n,), trials=args.trials, base=base))
                if r["row_type"] == "trial"]
        within = sum(r["n_within"] for r in rows)
        numeric = sum(r["n_numeric_live"] for r in rows)
        undetermined = sum(r["undetermined"] for r in rows)
        print(f"{n:>6} {delta:>12.5f} {within / numeric:>8.4f} {undetermined:>13}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_status(main))
