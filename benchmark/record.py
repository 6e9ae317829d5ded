"""Record the outputs each workload must reproduce at the given seeds.

    python3 benchmark/record.py 0-50 500

Runs one operation of every workload at each seed and writes
``expected.json`` beside this file: per workload and seed, T, W, M, the
within-band counts and the output digest (see ``workloads.outputs``).  The
benchmark then fails any operation at a recorded seed whose outputs differ.
Record again only when a change is meant to alter what the simulation
computes, and say why in that change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, WORKLOAD_NAMES


def seeds(spec: list[str]) -> list[int]:
    """``["0-3", "500"]`` -> ``[0, 1, 2, 3, 500]``."""
    out = []
    for item in spec:
        low, _, high = item.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", help="seeds or inclusive ranges such as 0-50")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import EXPECTED_FILE, batch, execute, outputs

    table = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp-") as scratch:
        for name in WORKLOAD_NAMES:
            table[name] = {}
            for seed in seeds(args.seeds):
                op = execute(batch(name, seed), Path(scratch))
                if op.failures:
                    print("\n".join(op.failures), file=sys.stderr)
                    return 1
                table[name][str(seed)] = outputs(op)
                print(name, seed, table[name][str(seed)], flush=True)
    EXPECTED_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
