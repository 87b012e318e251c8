"""Gate: the routing service must hold its latency SLO under fault churn.

Runs the closed-loop load generator
(:func:`repro.serve.loadgen.run_qps_sweep`) at quick scale and fails
when the *first* ramp stage -- the one whose offered QPS the pipeline is
sized to absorb without shedding -- misses its p99 budget or sheds more
than the allowed fraction, or when *any* stage reports internal errors.  Later stages
deliberately overdrive the service; there the gate only requires that
overload shows up as honest admission-control outcomes (shed / degraded
/ stale), never as errors.

Wall-clock latencies vary with runner load, so the default p99 budget is
generous (150 ms against a 50 ms per-query deadline: even a fully
degraded, retried answer fits several times over).  The gate catches
collapses -- lost wakeups, refresh stalls, unbounded retry loops -- not
single-millisecond drift.

Usage::

    PYTHONPATH=src python benchmarks/check_serve_slo.py [--quick]
        [--p99-budget-ms 150] [--max-shed 0.02] [--seed N]
        [--out serve_slo.json]

``--out`` writes the full sweep report plus the verdict as JSON (the CI
job uploads it as an artifact when the gate fails).

Exit codes: 0 gate met, 1 SLO breach, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.serve.loadgen import DEFAULT_STAGES, QUICK_STAGES, run_qps_sweep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke scale (smaller mesh, shorter stages)")
    parser.add_argument("--p99-budget-ms", type=float, default=150.0,
                        help="first-stage p99 latency budget (default 150)")
    parser.add_argument("--max-shed", type=float, default=0.02,
                        help="first-stage shed-fraction ceiling (default 0.02)")
    parser.add_argument("--seed", type=int, default=2002,
                        help="workload seed (default 2002)")
    parser.add_argument("--out", default=None,
                        help="write sweep report + verdict JSON here")
    args = parser.parse_args(argv)
    if args.p99_budget_ms <= 0:
        parser.error("--p99-budget-ms must be > 0")
    if not 0 <= args.max_shed <= 1:
        parser.error("--max-shed must be in [0, 1]")

    if args.quick:
        report = run_qps_sweep(
            side=16, faults=10, seed=args.seed,
            stages=QUICK_STAGES, chaos_events=8,
        )
    else:
        report = run_qps_sweep(
            side=24, faults=16, seed=args.seed,
            stages=DEFAULT_STAGES, chaos_events=12,
        )

    failures: list[str] = []
    first = report["stages"][0]
    if first["p99_ms"] is None:
        failures.append("first stage produced no successful answers at all")
    elif first["p99_ms"] > args.p99_budget_ms:
        failures.append(
            f"first-stage p99 {first['p99_ms']:.1f}ms over the "
            f"{args.p99_budget_ms:g}ms budget"
        )
    if first["shed_fraction"] > args.max_shed:
        failures.append(
            f"first-stage shed fraction {first['shed_fraction']:.3f} over "
            f"the {args.max_shed:g} ceiling"
        )
    for stage in report["stages"]:
        if stage["errors"]:
            failures.append(
                f"stage qps={stage['qps']:g} reported {stage['errors']} "
                "internal error(s) -- overload must shed, not crash"
            )

    if args.out:
        payload = {
            "quick": args.quick,
            "p99_budget_ms": args.p99_budget_ms,
            "max_shed": args.max_shed,
            "ok": not failures,
            "failures": failures,
            "report": report,
        }
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {path}")

    for stage in report["stages"]:
        p99 = stage["p99_ms"]
        print(
            f"qps={stage['qps']:g}: {stage['ok']}/{stage['queries']} ok, "
            f"shed={stage['shed_fraction']:.3f} "
            f"degraded={stage['degraded_fraction']:.3f} "
            f"stale={stage['stale']} retries={stage['retries']} "
            f"p99={'n/a' if p99 is None else f'{p99:.1f}ms'}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"OK: first-stage p99 {first['p99_ms']:.1f}ms within "
        f"{args.p99_budget_ms:g}ms, shed {first['shed_fraction']:.3f} <= "
        f"{args.max_shed:g}, zero errors across the ramp"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
