"""Held-out seed check: do the dominant layer shares rank the same on another seed?

    python3 benchmark/rankcheck.py --seeds 1 500

Runs every workload span-traced at each seed, each run in a fresh process,
and prints per workload the spans with the largest self-time shares and
whether their order agrees across the seeds.  A claim about a layer should
hold on a seed that was not used while the change was written.
"""

from __future__ import annotations

import argparse
import sys

from run import SRC, WORKLOAD_NAMES, run_child

TOP = 3


def top_spans(result: dict) -> list[str]:
    shares = {name[: -len(".share")]: value["value"]
              for name, value in result["metrics"].items() if name.endswith(".share")}
    return sorted(shares, key=lambda span: -shares[span])[:TOP]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, required=True,
                        metavar=("DEV", "HELD_OUT"))
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if not (SRC / "relsim" / "__init__.py").is_file():
        print(f"error: no relsim sources at {SRC / 'relsim'}", file=sys.stderr)
        return 2
    same_everywhere = True
    for workload in WORKLOAD_NAMES:
        ranks = [top_spans(run_child(workload, seed, args.seconds, 1))
                 for seed in args.seeds]
        same = ranks[0] == ranks[1]
        same_everywhere &= same
        print(f"{workload:<14} {'same' if same else 'DIFFERS':<8} "
              + " | ".join(f"seed {s}: {' > '.join(r)}" for s, r in zip(args.seeds, ranks)))
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    raise SystemExit(main())
