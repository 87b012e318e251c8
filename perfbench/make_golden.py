"""Regenerate ``golden_figures.json``: the ``figures`` workload's series digests.

Usage (from the repository root)::

    python3 perfbench/make_golden.py 0-20 2002

Each argument is a seed or an inclusive range ``a-b``.  For every seed the
four paper-scale sweeps run once and their series digests are stored;
``run.py --workload figures`` then requires the same digests for that
seed.  Regenerate only when a change is meant to alter the figure series.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workload_figures as wf  # noqa: E402
from common import HostSpeed  # noqa: E402


def parse_seeds(args: list[str]) -> list[int]:
    seeds: list[int] = []
    for arg in args:
        low, _, high = arg.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv: list[str]) -> int:
    seeds = parse_seeds(argv) or [2002]
    digests = {}
    for seed in seeds:
        _, results = wf.run_set(seed, HostSpeed())
        digests[str(seed)] = wf.set_digests(results)
        print(f"seed {seed}: done", flush=True)
    golden = {
        "config": [wf.unit_config(0, faults).describe().replace(", seed 0", "")
                   for faults in wf.FAULT_COUNTS],
        "digests": digests,
    }
    with open(wf.GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
