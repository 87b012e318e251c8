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
VM.  The ``protocols`` row was re-taken the same way once the
simulator's per-hop cost had halved, so its bound tracks the current
simulator rather than one twice as slow, and the ``serve_read`` row
once path witnesses shared one boundary map per served generation
(set-up 2.985 -> 0.103 s, tail 23.68 -> 1.95 ms), so a return to a
fresh map per witness fails the gate.  The ``figures`` row was re-taken
once the sweeps read bit-packed existence maps, shared each shard's
extension masks across figures and read only the pivot sides Extension
3's destinations use (49,750 -> 111,800 trials/s, p50 83.6 -> 28.4 ms),
so undoing all three fails the gate.  perfbench scales every time to its
reference host speed, so the figures carry across machines of different
speed; peak RSS is not scaled.  3 s runs are noisier than
perfbench's 20 s ones (IQR over median <= 0.094 there): in 5 gate runs of unchanged code the worst
metric read 1.42x its reference (``serve_churn``'s tail), so 2x leaves
room for noise, while a 10x slowdown of the condition kernels, the
simulator's message delivery or ``RoutingService.answer`` each fails.
That margin was measured on that one VM only, not yet on a CI runner;
once CI runs are recorded, :data:`FACTOR` should be set from them.  To
record them, each workload's metric table is also appended as Markdown
to the file named by ``$GITHUB_STEP_SUMMARY`` when that variable is set.

Usage (from anywhere; the program is imported from ``src/``)::

    python benchmarks/check_perfbench.py

Takes about a minute.  Exit codes: 0 all workloads pass, 1 any fails.
"""

from __future__ import annotations

import argparse
import json
import os
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
        "setup_s": 0.00692, "peak_rss_mb": 50.1, "throughput_per_s": 111800.0,
        "latency_p50_ms": 28.39, "latency_tail_ms": 101.0,
    },
    "serve_read": {
        "setup_s": 0.1026, "peak_rss_mb": 50.8, "throughput_per_s": 200.1,
        "latency_p50_ms": 0.9068, "latency_tail_ms": 1.953,
    },
    "serve_churn": {
        "setup_s": 0.0319, "peak_rss_mb": 58.5, "throughput_per_s": 399.3,
        "latency_p50_ms": 1.223, "latency_tail_ms": 7.675,
    },
    "protocols": {
        "setup_s": 0.03087, "peak_rss_mb": 69.75, "throughput_per_s": 91260.0,
        "latency_p50_ms": 636.7, "latency_tail_ms": 663.1,
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
        _summarise(f"{workload}: FAIL, exit {process.returncode}", [])
        return False
    result = json.loads(process.stdout.splitlines()[-1])
    ok = result["correct"] and result["failed"] == 0
    header = (
        f"{workload}: {'correct' if result['correct'] else 'INCORRECT'}, "
        f"{result['failed']}/{result['attempted']} failed, {elapsed:.1f} s"
    )
    print(header)
    rows = []
    for name, direction in better.items():
        value = result["metrics"][name]["value"]
        reference = REFERENCE[workload][name]
        worse = value / reference if direction == "lower" else reference / value
        verdict = "ok" if worse <= FACTOR else f"WORSE than {FACTOR:g}x"
        ok = ok and worse <= FACTOR
        print(f"  {name:<18} {value:>12.5g}  reference {reference:>10.5g}  "
              f"x{worse:.2f}  {verdict}")
        rows.append(f"| {name} | {value:.5g} | {reference:.5g} | x{worse:.2f} | {verdict} |")
    _summarise(header, rows)
    return ok


def _summarise(header: str, rows: list[str]) -> None:
    """Append one workload's table to ``$GITHUB_STEP_SUMMARY``, if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    lines = [f"### {header}", ""]
    if rows:
        lines += ["| metric | value | reference | ratio | verdict |",
                  "| --- | ---: | ---: | ---: | --- |", *rows]
    with open(path, "a", encoding="utf-8") as summary:
        summary.write("\n".join(lines) + "\n\n")


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
