"""Incremental fault maintenance: pay O(affected), not O(mesh), per event.

The paper's information model is incremental -- "when a disturbance occurs,
only those affected nodes update their information".  The
:class:`IncrementalFaultEngine` applies the same idea to the centralized
state: every fault arrival or revival updates the faulty blocks, extended
safety levels, and MCCs by deltas, and each event reports exactly how much
of the mesh it touched.  This example runs a long mixed inject/revive
schedule and shows:

- the affected window of every event (cells changed, fraction of the mesh);
- that the delta-maintained state stays bit-identical to a from-scratch
  rebuild (checked against the batch builders at every step);
- the wall-clock win over rebuilding everything per event;
- generation-tagged route caching: a fault on the far side of the mesh no
  longer evicts cached routes it cannot touch.

Run:  python examples/incremental_updates.py [seed]
"""

import sys
import time

import numpy as np

from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.incremental import IncrementalFaultEngine
from repro.faults.injection import injection_events
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer, use_tracer


def main(seed: int = 13) -> None:
    mesh = Mesh2D(48, 48)
    rng = np.random.default_rng(seed)
    events = injection_events(mesh, 30, rng, revive_fraction=0.3)

    print(f"{mesh}: replaying {len(events)} fault events incrementally\n")
    print(f"{'#':>3} {'event':>7} {'coord':>10} {'cells':>6} {'window':>14} "
          f"{'of mesh':>8}")

    engine = IncrementalFaultEngine(mesh)
    tracer = Tracer()  # no sinks: only the hot counters are wanted
    with use_tracer(tracer):
        for i, (action, coord) in enumerate(events, 1):
            report = engine.apply(action, coord)

            rect = report.affected_rect
            window = f"{rect.xmax - rect.xmin + 1}x{rect.ymax - rect.ymin + 1}"
            print(f"{i:>3} {report.event:>7} {str(coord):>10} "
                  f"{report.affected_cells:>6} {window:>14} "
                  f"{report.affected_fraction:>7.2%}")

            # The engine claims bit-identical equivalence with the batch
            # builders after every event -- hold it to that.
            reference = build_faulty_blocks(mesh, engine.faults)
            assert np.array_equal(engine.unusable, reference.unusable)
            assert engine.block_set().blocks == reference.blocks

    # Price both maintenance strategies on a clean replay (no tracer,
    # no printing): delta maintenance vs full rebuild after every event.
    timed_engine = IncrementalFaultEngine(mesh)
    start = time.perf_counter()
    for action, coord in events:
        timed_engine.apply(action, coord)
    incremental_time = time.perf_counter() - start

    alive: set = set()
    rebuild_time = 0.0
    for action, coord in events:
        alive.add(coord) if action == "inject" else alive.discard(coord)
        faults = sorted(alive)
        start = time.perf_counter()
        built = build_faulty_blocks(mesh, faults)
        compute_safety_levels(mesh, built.unusable)
        rebuild_time += time.perf_counter() - start

    touched = tracer.hot["incr.affected_cells"]
    print(f"\naffected cells across all events: {touched} "
          f"(vs {len(events) * mesh.size} cells a per-event rebuild rescans)")
    print(f"incremental maintenance: {incremental_time * 1e3:7.1f} ms")
    print(f"full rebuild per event:  {rebuild_time * 1e3:7.1f} ms "
          f"({rebuild_time / incremental_time:.1f}x slower)")
    print(f"defensive full rebuilds taken by the engine: "
          f"{engine.full_rebuilds}")

    # Generation-tagged caching: routes untouched by an event survive it.
    from repro.routing.detour import DetourRouter
    from repro.simulator.traffic import PathPolicy

    demo = Mesh2D(16, 16)
    demo_engine = IncrementalFaultEngine(demo)
    computed = []

    def route(source, dest):
        computed.append((source, dest))
        return DetourRouter(demo, demo_engine.block_set()).route(source, dest)

    policy = PathPolicy(route)
    near = policy.path_for((0, 4), (8, 4))
    policy.path_for((15, 0), (15, 15))  # hugs the far column

    victim = near.nodes[len(near.nodes) // 2]
    report = demo_engine.inject(victim)
    policy.note_fault_event(report.affected_rect, report.generation)

    policy.path_for((15, 0), (15, 15))  # revalidated, not recomputed
    fresh = policy.path_for((0, 4), (8, 4))  # through the window: rebuilt
    assert victim not in fresh.nodes

    print("\ngeneration-tagged route cache (16x16 demo mesh):")
    print(f"  fault at {victim} affected window "
          f"{report.affected_rect.xmin},{report.affected_rect.ymin}..."
          f"{report.affected_rect.xmax},{report.affected_rect.ymax}")
    print(f"  route computations: {len(computed)} "
          f"(2 initial + 1 rebuild; the distant route survived)")
    print(f"  cache revalidations: {policy._cache.revalidated}, "
          f"stale rebuilds: {policy._cache.stale}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 13)
