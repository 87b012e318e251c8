"""Gate: every perfbench workload stays correct and within 2x of its reference.

Runs ``perfbench/run.py --workload W --seed 11 --seconds 3 --trace 0``
for each workload named in ``BENCHMARK.json`` and reads the JSON result
on the last line of its output.  A workload fails the gate when the run
exits non-zero, reports ``correct: false`` (a golden figure digest, a
served snapshot or a convergence report disagreed with its from-scratch
check), reports ``failed > 0``, or is more than :data:`FACTOR` worse
than :data:`REFERENCE` on any end-to-end metric.  "Worse" follows the
metric's ``better`` field in ``BENCHMARK.json``: above ``FACTOR x
reference`` for ``lower``, below ``reference / FACTOR`` for ``higher``.

:data:`REFERENCE` is the median of 5 such runs on a 2-vCPU Intel Xeon
VM.  perfbench scales every time to its reference host speed, so the
figures carry across machines of different speed; peak RSS is not
scaled.  3 s runs are noisier than perfbench's 20 s ones (IQR over
median <= 0.094 there): in 5 gate runs of unchanged code the worst
metric read 1.42x its reference (``serve_churn``'s tail), so 2x leaves
room for noise, while a 10x slowdown of the condition kernels, the
simulator's message delivery or ``RoutingService.answer`` each fails.
That margin was measured on that one VM only, not yet on a CI runner;
once CI runs are recorded, :data:`FACTOR` should be set from them.

Usage (from anywhere; the program is imported from ``src/``)::

    python benchmarks/check_perfbench.py

Takes about a minute.  Exit codes: 0 all workloads pass, 1 any fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
FACTOR = 2.0
SEED = 11
SECONDS = 3

#: Median of 5 runs per workload (see the module docstring), by metric.
REFERENCE: dict[str, dict[str, float]] = {
    "figures": {
        "setup_s": 0.01688, "peak_rss_mb": 51.18, "throughput_per_s": 49750.0,
        "latency_p50_ms": 83.62, "latency_tail_ms": 166.0,
    },
    "serve_read": {
        "setup_s": 2.985, "peak_rss_mb": 48.94, "throughput_per_s": 200.0,
        "latency_p50_ms": 0.974, "latency_tail_ms": 23.68,
    },
    "serve_churn": {
        "setup_s": 0.0319, "peak_rss_mb": 58.5, "throughput_per_s": 399.3,
        "latency_p50_ms": 1.223, "latency_tail_ms": 7.675,
    },
    "protocols": {
        "setup_s": 0.07431, "peak_rss_mb": 71.51, "throughput_per_s": 44860.0,
        "latency_p50_ms": 1271.0, "latency_tail_ms": 1371.0,
    },
}


def check(workload: str, better: dict[str, str]) -> bool:
    """Run one workload; print its metrics against the reference."""
    start = time.perf_counter()
    process = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    elapsed = time.perf_counter() - start
    if process.returncode != 0:
        print(f"{workload}: FAIL, exit {process.returncode}\n{process.stderr}")
        return False
    result = json.loads(process.stdout.splitlines()[-1])
    ok = result["correct"] and result["failed"] == 0
    print(
        f"{workload}: {'correct' if result['correct'] else 'INCORRECT'}, "
        f"{result['failed']}/{result['attempted']} failed, {elapsed:.1f} s"
    )
    for name, direction in better.items():
        value = result["metrics"][name]["value"]
        reference = REFERENCE[workload][name]
        worse = value / reference if direction == "lower" else reference / value
        verdict = "ok" if worse <= FACTOR else f"WORSE than {FACTOR:g}x"
        ok = ok and worse <= FACTOR
        print(f"  {name:<18} {value:>12.5g}  reference {reference:>10.5g}  "
              f"x{worse:.2f}  {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    failed = [
        workload["name"] for workload in spec["workloads"]
        if not check(workload["name"], better)
    ]
    if failed:
        print(f"FAIL: {', '.join(failed)}")
        return 1
    print("OK: every workload correct and within its reference bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
