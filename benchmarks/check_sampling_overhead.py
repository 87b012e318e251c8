"""Gate: per-tick observatory sampling must cost <= 5% wall-time.

Times distributed block formation + ESL propagation on the simulator
(a 96x96 mesh with side^2/40 uniform faults, seed 2002; ``--quick``:
40x40) with and without an ambient
:class:`~repro.obs.timeseries.Observatory` sampling every simulated
tick, and fails when the sampled best-of exceeds the plain best-of by
more than the tolerance.

Two choices keep the gate honest on a noisy CI runner.  The variants run
*interleaved* on one shared setup (plain, sampled, plain, sampled, ...)
so slow machine-load drift hits both sides equally, and each side is
scored by its *minimum* -- both variants do identical deterministic
work, scheduler noise is strictly additive, so min-of-N estimates the
true cost where a median of a few repeats still swings several percent.
:func:`interleaved_best` is that estimator; ``check_incremental.py``
uses it too.

Usage::

    PYTHONPATH=src python benchmarks/check_sampling_overhead.py [--quick]
        [--tolerance 0.05] [--repeats N]

Exit codes: 0 within budget, 1 over budget, 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

import numpy as np

from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.obs import Observatory, use_observatory
from repro.simulator.protocols import run_block_formation, run_safety_propagation

SEED = 2002


def interleaved_best(
    first: Callable[[], object], second: Callable[[], object], repeats: int
) -> tuple[float, float]:
    """Best-of-``repeats`` wall times of ``first`` and ``second``, run
    alternately after one untimed warm-up of each."""
    first()
    second()
    times: tuple[list[float], list[float]] = ([], [])
    for _ in range(repeats):
        for run, samples in zip((first, second), times):
            t0 = time.perf_counter()
            run()
            samples.append(time.perf_counter() - t0)
    return min(times[0]), min(times[1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke scale (smaller mesh, fewer repeats)")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="max allowed relative overhead of the sampled "
                             "best-of over the plain best-of (default 0.05)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed pairs per variant (default 7, quick 5)")
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    repeats = args.repeats or (5 if args.quick else 7)

    side = 40 if args.quick else 96
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(SEED)
    faults = uniform_faults(mesh, side * side // 40, rng, forbidden={mesh.center})
    unusable = build_faulty_blocks(mesh, faults).unusable

    def run_plain():
        run_block_formation(mesh, faults)
        return run_safety_propagation(mesh, unusable)

    def run_sampled():
        with use_observatory(Observatory(rules=())):
            return run_plain()

    # The warm-up inside interleaved_best does the real convergence.
    best_plain, best_sampled = interleaved_best(run_plain, run_sampled, repeats)
    overhead = best_sampled / best_plain - 1.0
    print(
        f"formation {side}x{side} plain vs sampled: {repeats} interleaved pairs, "
        f"best {best_plain * 1e3:.2f}ms -> {best_sampled * 1e3:.2f}ms "
        f"({overhead:+.1%}, budget {args.tolerance:.0%})"
    )
    if overhead > args.tolerance:
        print("FAIL: per-tick sampling is over budget")
        return 1
    print("OK: sampling overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
