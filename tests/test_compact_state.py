"""Compact live state: int16 ESL grids and the serve snapshot's lazy block set.

Every ESL grid is stored as int16 with the in-grid sentinel ``ESL_CLEAR``
for "clear to the edge"; every value leaving the API decodes back to
``UNBOUNDED``.  A serve snapshot captures the engine's blocks unordered
and sorts and labels them only when a path witness first reads
``block_set``.
"""

import numpy as np
import pytest

from repro.core.batched_patterns import build_axis_sample_table
from repro.core.safety import (
    ESL_CLEAR,
    UNBOUNDED,
    MeshTooLargeError,
    compute_safety_levels,
    encode_levels,
)
from repro.faults.blocks import build_faulty_blocks
from repro.faults.incremental import IncrementalFaultEngine
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType
from repro.mesh.geometry import ESL_ORDER, Direction
from repro.mesh.topology import Mesh2D
from repro.serve import RoutingService


def _churn(service_or_engine, rng, events):
    """Apply ``events`` seeded crash/revive events to a service or engine."""
    engine = getattr(service_or_engine, "engine", service_or_engine)
    apply = getattr(service_or_engine, "apply_fault", engine.apply)
    mesh = engine.mesh
    for _ in range(events):
        faults = engine.faults
        if faults and rng.random() < 0.4:
            apply("revive", faults[int(rng.integers(len(faults)))])
            continue
        while True:
            coord = (int(rng.integers(mesh.n)), int(rng.integers(mesh.m)))
            if not engine.faulty[coord]:
                break
        apply("crash", coord)


class TestESLEncoding:
    def test_clear_direction_decodes_to_unbounded(self):
        mesh = Mesh2D(8, 8)
        blocked = np.zeros((8, 8), dtype=bool)
        blocked[5, 3] = True
        levels = compute_safety_levels(mesh, blocked)
        assert levels.grids.east[0, 3] == 4
        assert levels.grids.north[0, 3] == ESL_CLEAR
        assert levels.esl((0, 3)) == (4, UNBOUNDED, UNBOUNDED, UNBOUNDED)
        assert levels.level((0, 3), Direction.EAST) == 4
        for direction in ESL_ORDER[1:]:
            assert levels.level((0, 3), direction) == UNBOUNDED
        assert levels.north[0, 3] == UNBOUNDED
        assert levels.east[0, 3] == 4

    def test_compute_safety_levels_grids_are_int16(self):
        mesh = Mesh2D(16, 12)
        blocks = build_faulty_blocks(mesh, [(3, 4), (9, 9)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        assert [grid.dtype for grid in levels.grids] == [np.int16] * 4

    def test_engine_and_snapshot_grids_are_int16(self):
        mesh = Mesh2D(20, 20)
        rng = np.random.default_rng(3)
        service = RoutingService(mesh, uniform_faults(mesh, 20, rng))
        _churn(service.engine, rng, 12)
        snapshot = service.refresh()
        engine = service.engine
        mcc_levels = engine.track_mcc(MCCType.TYPE_ONE).levels
        for levels in (engine.levels, mcc_levels, snapshot.levels, snapshot.mcc_levels):
            assert [grid.dtype for grid in levels.grids] == [np.int16] * 4

    def test_side_above_the_sentinel_raises_a_typed_error(self):
        assert issubclass(MeshTooLargeError, ValueError)
        with pytest.raises(MeshTooLargeError):
            compute_safety_levels(Mesh2D(40000, 1), np.zeros((40000, 1), dtype=bool))
        side = ESL_CLEAR + 1
        with pytest.raises(MeshTooLargeError):
            compute_safety_levels(Mesh2D(1, side), np.zeros((1, side), dtype=bool))

    def test_longest_allowed_side_keeps_finite_levels_below_the_sentinel(self):
        blocked = np.zeros((ESL_CLEAR, 1), dtype=bool)
        blocked[-1, 0] = True
        levels = compute_safety_levels(Mesh2D(ESL_CLEAR, 1), blocked)
        assert levels.esl((0, 0)) == (ESL_CLEAR - 2, UNBOUNDED, UNBOUNDED, UNBOUNDED)
        assert levels.esl((ESL_CLEAR - 2, 0))[0] == 0

    @pytest.mark.parametrize("segment_size", [1, 2, 3, 5, None])
    @pytest.mark.parametrize("edge", [10, 11])
    def test_int16_line_gives_the_int64_sample_table(self, segment_size, edge):
        """An int16 grid slice holding ESL_CLEAR picks the same segment
        representatives (offsets, validity) as the int64 line holding
        UNBOUNDED: the table builder widens before scoring (in int16,
        ``ESL_CLEAR * (edge + 2)`` wraps negative for an even scale)."""
        rng = np.random.default_rng(segment_size or 0)
        line64 = rng.integers(0, edge, size=(6, edge)).astype(np.int64)
        line64[rng.random((6, edge)) < 0.4] = UNBOUNDED
        line16 = encode_levels(line64)
        assert line16.dtype == np.int16
        clear = np.array([0, 3, 7, edge, UNBOUNDED, 4])
        wide = build_axis_sample_table(line64, clear, edge, segment_size)
        narrow = build_axis_sample_table(line16, clear, edge, segment_size)
        np.testing.assert_array_equal(narrow.offsets, wide.offsets)
        np.testing.assert_array_equal(narrow.valid, wide.valid)
        np.testing.assert_array_equal(
            encode_levels(narrow.perp_levels), encode_levels(wide.perp_levels)
        )


def _assert_block_sets_equal(got, want):
    assert got.blocks == want.blocks
    np.testing.assert_array_equal(got.block_id, want.block_id)
    np.testing.assert_array_equal(got.faulty, want.faulty)
    np.testing.assert_array_equal(got.unusable, want.unusable)


class TestLazySnapshotBlockSet:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_old_snapshot_builds_its_own_generation(self, seed):
        mesh = Mesh2D(24, 24)
        rng = np.random.default_rng(seed)
        service = RoutingService(mesh, uniform_faults(mesh, 30, rng))
        _churn(service.engine, rng, 10)
        snapshot = service.refresh()
        faults_then = service.engine.faults
        _churn(service.engine, rng, 15)
        assert service.generation > snapshot.generation
        assert "block_set" not in vars(snapshot)
        _assert_block_sets_equal(snapshot.block_set, build_faulty_blocks(mesh, faults_then))
        _assert_block_sets_equal(
            service.engine.block_set(), build_faulty_blocks(mesh, service.engine.faults)
        )

    def test_verdicts_never_build_the_block_set(self):
        mesh = Mesh2D(24, 24)
        rng = np.random.default_rng(5)
        service = RoutingService(mesh, uniform_faults(mesh, 30, rng))
        _churn(service, rng, 5)
        snapshot = service.snapshot()
        for _ in range(40):
            source = (int(rng.integers(24)), int(rng.integers(24)))
            dest = (int(rng.integers(24)), int(rng.integers(24)))
            for model in ("block", "mcc"):
                service.answer(source, dest, model=model, want_path=False)
        assert "block_set" not in vars(snapshot)
        assert "boundaries" not in vars(snapshot)

    def test_engine_block_set_matches_the_builder_after_churn(self):
        mesh = Mesh2D(20, 20)
        rng = np.random.default_rng(9)
        engine = IncrementalFaultEngine(mesh, uniform_faults(mesh, 25, rng))
        for _ in range(6):
            _churn(engine, rng, 5)
            _assert_block_sets_equal(engine.block_set(), build_faulty_blocks(mesh, engine.faults))
