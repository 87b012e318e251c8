"""Distributed protocols versus their centralized counterparts.

These are the key simulator integration tests: every information protocol of
the paper, run as message passing, must converge to exactly the state the
centralized computation produces.
"""

import numpy as np
import pytest

from repro.core.boundaries import CanonicalBoundaryMap
from repro.core.safety import UNBOUNDED, compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.topology import Mesh2D
from repro.simulator.protocols import (
    run_block_formation,
    run_boundary_distribution,
    run_mcc_formation,
    run_pivot_broadcast,
    run_region_exchange,
    run_safety_propagation,
)

from tests.conftest import FIGURE1_FAULTS


class TestBlockFormationProtocol:
    def test_figure1_example(self):
        mesh = Mesh2D(10, 10)
        result = run_block_formation(mesh, FIGURE1_FAULTS)
        expected = build_faulty_blocks(mesh, FIGURE1_FAULTS).unusable
        assert np.array_equal(result.unusable, expected)

    @pytest.mark.parametrize("num_faults", [5, 25, 60])
    def test_matches_fixpoint_on_random_patterns(self, rng, num_faults):
        mesh = Mesh2D(25, 25)
        for _ in range(4):
            faults = uniform_faults(mesh, num_faults, rng)
            result = run_block_formation(mesh, faults)
            expected = build_faulty_blocks(mesh, faults).unusable
            assert np.array_equal(result.unusable, expected)

    def test_no_faults_no_messages(self):
        result = run_block_formation(Mesh2D(10, 10), [])
        assert result.stats.messages == 0
        assert not result.unusable.any()

    def test_message_cost_scales_with_disabled(self):
        """Announcements come only from nodes that change state."""
        mesh = Mesh2D(12, 12)
        result = run_block_formation(mesh, [(3, 3), (4, 4), (5, 5)])
        disabled = int(result.unusable.sum()) - 3
        assert disabled > 0
        # Each disabled node broadcasts once to at most 4 neighbours.
        assert result.stats.messages <= 4 * disabled


class TestMCCFormationProtocol:
    @pytest.mark.parametrize("mcc_type", [MCCType.TYPE_ONE, MCCType.TYPE_TWO])
    def test_figure1_example(self, mcc_type):
        mesh = Mesh2D(10, 10)
        result = run_mcc_formation(mesh, FIGURE1_FAULTS, mcc_type)
        expected = build_mccs(mesh, FIGURE1_FAULTS, mcc_type).status
        assert np.array_equal(result.status, expected)

    @pytest.mark.parametrize("num_faults", [10, 40])
    def test_matches_labeling_on_random_patterns(self, rng, num_faults):
        mesh = Mesh2D(25, 25)
        for _ in range(4):
            faults = uniform_faults(mesh, num_faults, rng)
            for mcc_type in MCCType:
                result = run_mcc_formation(mesh, faults, mcc_type)
                expected = build_mccs(mesh, faults, mcc_type).status
                assert np.array_equal(result.status, expected), mcc_type


class TestSafetyPropagationProtocol:
    @pytest.mark.parametrize("num_faults", [5, 30])
    def test_matches_centralized_esl(self, rng, num_faults):
        mesh = Mesh2D(25, 25)
        for _ in range(4):
            faults = uniform_faults(mesh, num_faults, rng)
            blocks = build_faulty_blocks(mesh, faults)
            result = run_safety_propagation(mesh, blocks.unusable)
            expected = compute_safety_levels(mesh, blocks.unusable)
            for coord in mesh.nodes():
                if blocks.unusable[coord]:
                    continue
                assert result.levels.esl(coord) == expected.esl(coord), coord

    def test_clear_mesh_exchanges_nothing(self):
        """Default is unbounded: no blocks, no information distribution."""
        mesh = Mesh2D(15, 15)
        result = run_safety_propagation(mesh, np.zeros((15, 15), dtype=bool))
        assert result.stats.messages == 0
        assert result.levels.esl((7, 7)) == (UNBOUNDED,) * 4

    def test_messages_confined_to_affected_rows_and_columns(self):
        mesh = Mesh2D(20, 20)
        blocks = build_faulty_blocks(mesh, [(10, 10)])
        result = run_safety_propagation(mesh, blocks.unusable)
        # One block at (10, 10) in a 20x20 mesh.  Four chains run outward
        # from the block's neighbours: West side has 10 free nodes (seed at
        # x=9 plus 9 recipients), East side 9 (seed at x=11 plus 8), and the
        # two vertical chains mirror them: 9 + 8 + 9 + 8 = 34 messages, all
        # confined to the affected row and column.
        assert result.stats.messages == 34
        assert result.levels.esl((0, 10))[0] == 9  # E of (0,10): block at 10


class TestBoundaryDistributionProtocol:
    @pytest.mark.parametrize("num_faults", [5, 25, 60])
    def test_matches_centralized_annotations(self, rng, num_faults):
        mesh = Mesh2D(25, 25)
        for _ in range(4):
            faults = uniform_faults(mesh, num_faults, rng)
            blocks = build_faulty_blocks(mesh, faults)
            rects = blocks.rects()
            result = run_boundary_distribution(mesh, rects, blocks.unusable)
            expected = CanonicalBoundaryMap.build(mesh, rects, blocks.unusable)
            expected_map = {
                coord: {(t.block_index, t.line): t.toward for t in tags}
                for coord, tags in expected.annotations.items()
            }
            actual_map = {
                coord: {(t.block_index, t.line): t.toward for t in tags}
                for coord, tags in result.annotations.items()
            }
            assert actual_map == expected_map

    def test_line_message_cost(self):
        """One message per polyline hop beyond the seeds."""
        mesh = Mesh2D(20, 20)
        blocks = build_faulty_blocks(mesh, [(10, 10)])
        result = run_boundary_distribution(mesh, blocks.rects(), blocks.unusable)
        # L1 covers x 0..11 at y=9 (12 nodes, 3 seeded), L3 covers y 0..11 at
        # x=9 (12 nodes, 3 seeded).  Seeds all forward; receivers forward
        # until the mesh edge swallows the last sends.
        assert result.stats.messages == 2 * 12 - 2  # every node forwards once


class TestRegionExchangeProtocol:
    def test_row_knowledge_covers_region(self, rng):
        mesh = Mesh2D(20, 20)
        blocks = build_faulty_blocks(mesh, [(7, 5), (14, 5)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        result = run_region_exchange(mesh, blocks.unusable, levels)
        # Node (10, 5) sits between the two blocks: its region is x in 8..13.
        knowledge = result.row_knowledge[(10, 5)]
        assert set(knowledge) == set(range(8, 14))
        for x, level in knowledge.items():
            assert level == int(levels.north[x, 5])

    def test_unblocked_row_region_spans_mesh(self, rng):
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(5, 3)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        result = run_region_exchange(mesh, blocks.unusable, levels)
        assert set(result.row_knowledge[(4, 8)]) == set(range(12))
        assert set(result.column_knowledge[(4, 8)]) == set(range(12))

    def test_matches_extension2_segments(self, rng):
        """The distributed knowledge reproduces build_axis_segments(size=1)."""
        from repro.core.segments import build_axis_segments
        from repro.mesh.frames import Frame
        from repro.mesh.geometry import Direction

        mesh = Mesh2D(20, 20)
        faults = uniform_faults(mesh, 25, rng)
        blocks = build_faulty_blocks(mesh, faults)
        levels = compute_safety_levels(mesh, blocks.unusable)
        result = run_region_exchange(mesh, blocks.unusable, levels)
        for _ in range(20):
            source = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            if blocks.is_unusable(source):
                continue
            frame = Frame.for_pair(source, (19, 19))
            segments = build_axis_segments(mesh, levels, frame, Direction.EAST, 1)
            knowledge = result.row_knowledge[source]
            for sample in segments.samples:
                assert knowledge[sample.node[0]] == sample.level

    def test_two_messages_per_link(self):
        mesh = Mesh2D(10, 1)
        blocks = build_faulty_blocks(mesh, [])
        levels = compute_safety_levels(mesh, blocks.unusable)
        result = run_region_exchange(mesh, blocks.unusable, levels)
        # A 10-node line: the row sweep sends 9 East-bound + 9 West-bound.
        assert result.stats.messages == 18


class TestPivotBroadcastProtocol:
    def test_tables_complete(self, rng):
        mesh = Mesh2D(15, 15)
        blocks = build_faulty_blocks(mesh, [(7, 7)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        pivots = [(3, 3), (11, 11)]
        result = run_pivot_broadcast(mesh, blocks.unusable, levels, pivots)
        for coord, table in result.tables.items():
            assert set(table) == set(pivots), coord
            for pivot in pivots:
                assert table[pivot] == levels.esl(pivot)

    def test_blocked_pivot_not_broadcast(self):
        mesh = Mesh2D(15, 15)
        blocks = build_faulty_blocks(mesh, [(7, 7)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        result = run_pivot_broadcast(mesh, blocks.unusable, levels, [(7, 7), (3, 3)])
        assert set(result.tables[(0, 0)]) == {(3, 3)}

    def test_flood_cost_is_linear_per_pivot(self):
        mesh = Mesh2D(12, 12)
        unusable = np.zeros((12, 12), dtype=bool)
        levels = compute_safety_levels(mesh, unusable)
        one = run_pivot_broadcast(mesh, unusable, levels, [(6, 6)])
        two = run_pivot_broadcast(mesh, unusable, levels, [(6, 6), (2, 2)])
        assert one.stats.messages > 0
        assert two.stats.messages == pytest.approx(2 * one.stats.messages, rel=0.05)
