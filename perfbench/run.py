"""The repository benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Workloads: ``figures`` (paper-scale Figure 9-12 sweeps), ``serve_read``
(read-mostly serving with path witnesses), ``serve_churn`` (write-heavy
serving under fault churn) and ``protocols`` (message-passing simulator
under chaos).  ``--trace 0`` prints the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` also runs the workload with timing
wrappers around each layer's public functions and prints the per-layer
metrics instead, writing the spans to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it
the command exits with status 2 before measuring anything.  The last
line of standard output is the JSON result; the lines above it repeat
the workload's figures under their everyday names (``trials_per_s``,
``goodput_qps``, ``converge_s``, ``query_p99_ms``, ``error_rate`` ...).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from common import emit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {
    "figures": "workload_figures",
    "serve_read": "workload_serve",
    "serve_churn": "workload_serve",
    "protocols": "workload_protocols",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[kind]}

    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        wall, rest = outcome.layers["trace.wall_s"], outcome.layers["trace.unattributed_s"]
        if rest > 0.1 * wall:
            print(f"warning: layer self times leave {rest:.3f} s of {wall:.3f} s unattributed")
        # Every layer is reported; layers the workload bypasses read 0.
        values = {name: outcome.layers.get(name, 0.0) for name in units}
    else:
        missing = sorted(set(units) - set(outcome.end_to_end))
        if missing:
            print(f"error: workload did not measure {missing}", file=sys.stderr)
            return 1
        values = outcome.end_to_end
    emit(outcome, {name: (values[name], unit) for name, unit in units.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
