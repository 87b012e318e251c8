"""Incremental fault maintenance vs the from-scratch builders.

The delta-maintenance engine (:mod:`repro.faults.incremental`) claims
bit-identical equivalence with :func:`build_faulty_blocks`,
:func:`compute_safety_levels`, and :func:`build_mccs` after every fault
arrival/revival.  This suite proves it:

- exhaustively on small meshes (every single fault, every ordered
  two-fault arrival, plus revivals in both orders);
- on long seeded random inject/revive schedules across random mesh
  sizes, with the final state additionally cross-checked through the
  scalar ``is_safe`` and the ``batch_minimal_path_exists`` oracles;
- and on the wiring: generation counters, affected-window accounting,
  and the event-stream generator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.conditions import is_safe
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import batch_minimal_path_exists
from repro.faults.incremental import IncrementalFaultEngine
from repro.faults.injection import injection_events
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.topology import Mesh2D

MCC_TYPES = (MCCType.TYPE_ONE, MCCType.TYPE_TWO)


def assert_matches_full(engine: IncrementalFaultEngine, mcc_types=()) -> None:
    """Engine state must be bit-identical to a from-scratch rebuild."""
    mesh = engine.mesh
    faults = engine.faults
    reference = build_faulty_blocks(mesh, faults)
    snapshot = engine.block_set()
    assert np.array_equal(snapshot.faulty, reference.faulty)
    assert np.array_equal(snapshot.unusable, reference.unusable)
    assert np.array_equal(snapshot.block_id, reference.block_id)
    assert snapshot.blocks == reference.blocks

    want_levels = compute_safety_levels(mesh, reference.unusable)
    got_levels = engine.safety_levels()
    for grid in ("east", "south", "west", "north"):
        assert np.array_equal(getattr(got_levels, grid), getattr(want_levels, grid))

    for mcc_type in mcc_types:
        want_mccs = build_mccs(mesh, faults, mcc_type)
        got_mccs = engine.mcc_set(mcc_type)
        assert np.array_equal(got_mccs.faulty, want_mccs.faulty)
        assert np.array_equal(got_mccs.status, want_mccs.status)
        assert np.array_equal(got_mccs.blocked, want_mccs.blocked)
        assert np.array_equal(got_mccs.component_id, want_mccs.component_id)
        assert got_mccs.components == want_mccs.components


# ----------------------------------------------------------------------
# Exhaustive small-mesh equivalence
# ----------------------------------------------------------------------
class TestExhaustiveSmallMesh:
    def test_every_single_fault_and_revival_6x6(self):
        mesh = Mesh2D(6, 6)
        for coord in mesh.nodes():
            engine = IncrementalFaultEngine(mesh, mcc_types=MCC_TYPES)
            engine.inject(coord)
            assert_matches_full(engine, MCC_TYPES)
            engine.revive(coord)
            assert_matches_full(engine, MCC_TYPES)
            assert not engine.faults
        assert engine.full_rebuilds == 0

    def test_every_two_fault_arrival_order_with_revivals_4x4(self):
        """All 240 ordered pairs on a 4x4 mesh, checked after each of the
        two arrivals and after reviving in arrival order -- covers every
        merge/adjacency geometry two faults can produce."""
        mesh = Mesh2D(4, 4)
        nodes = list(mesh.nodes())
        rebuilds = 0
        for first in nodes:
            for second in nodes:
                if first == second:
                    continue
                engine = IncrementalFaultEngine(mesh, mcc_types=MCC_TYPES)
                engine.inject(first)
                assert_matches_full(engine, MCC_TYPES)
                engine.inject(second)
                assert_matches_full(engine, MCC_TYPES)
                engine.revive(first)
                assert_matches_full(engine, MCC_TYPES)
                engine.revive(second)
                assert_matches_full(engine, MCC_TYPES)
                rebuilds += engine.full_rebuilds
        assert rebuilds == 0

    def test_figure1_block_reached_incrementally(self, figure1_blocks):
        """The paper's Figure 1 pattern formed one arrival at a time ends
        bit-identical to the block built from the full fault set."""
        mesh = figure1_blocks.mesh
        engine = IncrementalFaultEngine(mesh)
        for coord in figure1_blocks.blocks[0].faulty:
            engine.inject(coord)
        snapshot = engine.block_set()
        assert snapshot.blocks == figure1_blocks.blocks
        assert np.array_equal(snapshot.unusable, figure1_blocks.unusable)

    def test_inject_validates(self):
        engine = IncrementalFaultEngine(Mesh2D(4, 4))
        engine.inject((1, 1))
        with pytest.raises(ValueError, match="already faulty"):
            engine.inject((1, 1))
        with pytest.raises(ValueError, match="not faulty"):
            engine.revive((2, 2))
        with pytest.raises(ValueError):
            engine.inject((9, 9))


# ----------------------------------------------------------------------
# Seeded property test: long random schedules
# ----------------------------------------------------------------------
class TestRandomSchedules:
    def test_200_event_schedules_random_meshes(self, rng):
        """200-event random inject/revive schedules on random mesh sizes:
        the engine stays bit-identical to full rebuilds at checkpoints and
        the final state agrees with the batch oracles."""
        for _ in range(4):
            n = int(rng.integers(5, 17))
            m = int(rng.integers(5, 17))
            mesh = Mesh2D(n, m)
            engine = IncrementalFaultEngine(mesh)
            alive: list = []
            events = 0
            while events < 200:
                # Keep the live-fault density below a third of the mesh so
                # the final state always leaves free nodes for the oracles.
                revive = bool(alive) and (
                    rng.random() < 0.45 or len(alive) >= mesh.size // 3
                )
                if revive:
                    coord = alive.pop(int(rng.integers(len(alive))))
                    report = engine.revive(coord)
                    assert report.event == "revive"
                else:
                    while True:
                        coord = (int(rng.integers(n)), int(rng.integers(m)))
                        if coord not in alive:
                            break
                    report = engine.inject(coord)
                    assert report.event == "inject"
                    alive.append(coord)
                events += 1
                assert report.generation == events
                assert report.affected_cells >= 1
                assert 0.0 < report.affected_fraction <= 1.0
                if events % 40 == 0:
                    assert_matches_full(engine)
            assert engine.full_rebuilds == 0
            assert sorted(alive) == engine.faults

            # Final-state oracle cross-check (Definition 3 / Theorem 1).
            reference = build_faulty_blocks(mesh, sorted(alive))
            levels = engine.safety_levels()
            free = np.argwhere(~reference.unusable)
            assert len(free) >= 2
            full_levels = compute_safety_levels(mesh, reference.unusable)
            for _ in range(8):
                row = int(rng.integers(len(free)))
                source = (int(free[row, 0]), int(free[row, 1]))
                dests = free[rng.integers(len(free), size=16)]
                dest_list = [(int(x), int(y)) for x, y in dests]
                got = np.array([is_safe(levels, source, d) for d in dest_list])
                want = [is_safe(full_levels, source, d) for d in dest_list]
                assert got.tolist() == want
                reachable = batch_minimal_path_exists(
                    reference.unusable, source, dests
                )
                # Theorem 1: a safe verdict guarantees a minimal path.
                assert not np.any(got & ~reachable)

    def test_injection_events_stream_is_replayable(self, rng):
        mesh = Mesh2D(12, 12)
        events = injection_events(mesh, 30, rng, revive_fraction=0.3)
        injects = [c for action, c in events if action == "inject"]
        assert len(injects) == len(set(injects)) == 30
        engine = IncrementalFaultEngine(mesh)
        alive = set()
        for action, coord in events:
            engine.apply(action, coord)
            if action == "inject":
                alive.add(coord)
            else:
                assert coord in alive  # revives only target live faults
                alive.discard(coord)
        assert engine.faults == sorted(alive)
        assert_matches_full(engine)

    def test_rejects_unknown_event_and_bad_fraction(self, rng):
        engine = IncrementalFaultEngine(Mesh2D(4, 4))
        with pytest.raises(ValueError, match="unknown fault event"):
            engine.apply("explode", (1, 1))
        with pytest.raises(ValueError, match="revive_fraction"):
            injection_events(Mesh2D(4, 4), 2, rng, revive_fraction=1.5)


# ----------------------------------------------------------------------
# Affected-window accounting
# ----------------------------------------------------------------------
class TestAffectedAccounting:
    def test_isolated_fault_touches_one_cell(self):
        mesh = Mesh2D(32, 32)
        engine = IncrementalFaultEngine(mesh)
        report = engine.inject((5, 5))
        assert report.affected_cells == 1
        assert report.affected_rect.area == 1
        assert report.affected_fraction == 1 / mesh.size
        assert not report.full_rebuild

    def test_merge_window_covers_merged_block(self):
        mesh = Mesh2D(10, 10)
        engine = IncrementalFaultEngine(mesh)
        engine.inject((2, 2))
        engine.inject((2, 4))
        assert len(engine.block_set().blocks) == 2
        # (2, 3) bridges the two 1x1 blocks into one 1x3 block.
        report = engine.inject((2, 3))
        [block] = engine.block_set().blocks
        assert report.affected_rect == block.rect
        assert block.rect.area == 3
        assert report.affected_cells == 1  # only (2, 3) changed status
        assert report.generation == 3
        assert_matches_full(engine)

    def test_fault_on_disabled_cell_is_one_cell_event(self):
        mesh = Mesh2D(8, 8)
        engine = IncrementalFaultEngine(mesh)
        for coord in ((2, 2), (2, 4), (1, 3), (3, 3)):
            engine.inject(coord)
        assert engine.unusable[2, 3] and not engine.faulty[2, 3]
        report = engine.inject((2, 3))
        assert report.affected_cells == 1
        assert report.affected_rect.area == 1
        assert_matches_full(engine)

    def test_hot_counters_flow_through_profiler(self):
        from repro.obs.prof import Profiler, use_profiler

        mesh = Mesh2D(8, 8)
        engine = IncrementalFaultEngine(mesh)
        with use_profiler(Profiler()) as profiler:
            engine.inject((1, 1))
            engine.inject((6, 6))
            engine.revive((1, 1))
        assert profiler.hot["incr.events"] == 3
        assert profiler.hot["incr.affected_cells"] >= 3
        assert profiler.hot["incr.full_rebuilds"] == 0
