"""Gate: per-event delta maintenance must beat rebuilding from scratch.

Replays one mixed inject/revive fault stream -- a 64x64 mesh, 40 fault
arrivals, a quarter of them followed by a revival, seed 2002
(``--quick``: 32x32, 14 arrivals) -- two ways: through
:class:`~repro.faults.incremental.IncrementalFaultEngine`, and by
rebuilding the faulty blocks and ESLs from scratch after every event.
Both consume the identical stream, so the ratio of their times is the
per-event maintenance speedup (about 6x at full scale on a quiet
machine).  The two run interleaved and each is scored by its best time,
the estimator of ``check_sampling_overhead.py``.

The gate fails if the delta-maintained replay is not faster than the
rebuilds, or if the engine fell back to a defensive full rebuild on any
event (``full_rebuilds > 0``), which would make the delta path a rebuild
in disguise.

Usage::

    PYTHONPATH=src python benchmarks/check_incremental.py [--quick]

Exit codes: 0 delta maintenance wins, 1 it does not, 2 bad usage.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from check_sampling_overhead import interleaved_best
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.incremental import IncrementalFaultEngine
from repro.faults.injection import injection_events
from repro.mesh.topology import Mesh2D

SEED = 2002


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-smoke scale (smaller mesh, fewer events)")
    args = parser.parse_args(argv)
    repeats = 5 if args.quick else 10

    side, arrivals = (32, 14) if args.quick else (64, 40)
    mesh = Mesh2D(side, side)
    events = injection_events(
        mesh, arrivals, np.random.default_rng(SEED), revive_fraction=0.25
    )
    fallbacks = []

    def run_incremental():
        engine = IncrementalFaultEngine(mesh)
        for action, coord in events:
            engine.apply(action, coord)
        fallbacks.append(engine.full_rebuilds)

    def run_rebuild():
        alive: set = set()
        for action, coord in events:
            if action == "inject":
                alive.add(coord)
            else:
                alive.discard(coord)
            blocks = build_faulty_blocks(mesh, sorted(alive))
            compute_safety_levels(mesh, blocks.unusable)

    best_incremental, best_rebuild = interleaved_best(
        run_incremental, run_rebuild, repeats
    )
    print(
        f"{side}x{side}, {len(events)} fault events: {repeats} interleaved pairs, "
        f"best delta maintenance {best_incremental * 1e3:.2f}ms vs "
        f"full rebuild {best_rebuild * 1e3:.2f}ms "
        f"({best_rebuild / best_incremental:.2f}x)"
    )
    if max(fallbacks):
        print(f"FAIL: the engine fell back to a full rebuild {max(fallbacks)}x")
        return 1
    if best_incremental >= best_rebuild:
        print("FAIL: delta maintenance lost to full rebuild")
        return 1
    print("OK: delta maintenance beats full rebuild")
    return 0


if __name__ == "__main__":
    sys.exit(main())
