"""Unit tests for the existence oracle (DP) and Wang's condition."""

import numpy as np
import pytest

from repro.core.batched_patterns import batch_pattern_path_exists
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import (
    batch_minimal_path_exists,
    covering_sequence_on_x,
    covering_sequence_on_y,
    minimal_path_exists,
    minimal_path_exists_wang,
    monotone_reachability,
)
from repro.faults.injection import uniform_faults
from repro.mesh.geometry import Rect
from repro.mesh.topology import Mesh2D

from tests.conftest import random_block_set


def _grid(n, m, blocked_cells=()):
    grid = np.zeros((n, m), dtype=bool)
    for cell in blocked_cells:
        grid[cell] = True
    return grid


class TestMonotoneDP:
    def test_empty_mesh_always_reachable(self):
        blocked = _grid(10, 10)
        assert minimal_path_exists(blocked, (0, 0), (9, 9))
        assert minimal_path_exists(blocked, (9, 9), (0, 0))
        assert minimal_path_exists(blocked, (0, 9), (9, 0))

    def test_source_equals_dest(self):
        blocked = _grid(5, 5)
        assert minimal_path_exists(blocked, (2, 2), (2, 2))
        blocked[2, 2] = True
        assert not minimal_path_exists(blocked, (2, 2), (2, 2))

    def test_blocked_endpoint(self):
        blocked = _grid(5, 5, [(0, 0)])
        assert not minimal_path_exists(blocked, (0, 0), (4, 4))
        blocked = _grid(5, 5, [(4, 4)])
        assert not minimal_path_exists(blocked, (0, 0), (4, 4))

    def test_full_row_barrier_blocks(self):
        # Row y=2 fully blocked across the rectangle between the endpoints.
        blocked = _grid(5, 5, [(x, 2) for x in range(5)])
        assert not minimal_path_exists(blocked, (0, 0), (4, 4))
        # But a same-row pair below the wall is fine.
        assert minimal_path_exists(blocked, (0, 0), (4, 0))

    def test_gap_in_barrier_allows(self):
        blocked = _grid(5, 5, [(x, 2) for x in range(5) if x != 3])
        assert minimal_path_exists(blocked, (0, 0), (4, 4))

    def test_straight_line_cases(self):
        blocked = _grid(6, 6, [(3, 0)])
        assert not minimal_path_exists(blocked, (0, 0), (5, 0))  # East blocked
        assert minimal_path_exists(blocked, (0, 1), (5, 1))

    def test_all_quadrants(self):
        # A block SW of the centre only blocks quadrant-III routes.
        blocked = _grid(9, 9, [(x, y) for x in (2, 3) for y in (2, 3)])
        center = (4, 4)
        assert minimal_path_exists(blocked, center, (8, 8))  # NE fine
        assert minimal_path_exists(blocked, center, (0, 8))  # NW fine
        assert minimal_path_exists(blocked, center, (8, 0))  # SE fine
        assert minimal_path_exists(blocked, center, (0, 0))  # around the corner
        # Fully wall off the SW corner instead.
        blocked = _grid(9, 9, [(x, 4 - x) for x in range(5)])
        assert not minimal_path_exists(blocked, (4, 4), (0, 0))

    def test_staircase_obstacle(self):
        """Non-rectangular (MCC-like) obstacles are handled exactly."""
        stairs = [(2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4)]
        blocked = _grid(8, 8, stairs)
        assert minimal_path_exists(blocked, (0, 0), (7, 7))
        assert not minimal_path_exists(blocked, (2, 0), (3, 6))

    def test_reachability_grid_orientation(self):
        blocked = _grid(6, 6)
        reach = monotone_reachability(blocked, (4, 4), (1, 1))  # quadrant III
        assert reach.shape == (4, 4)
        assert reach[0, 0] and reach[-1, -1]

    def test_reachability_respects_blocks(self):
        blocked = _grid(6, 6, [(1, 0), (0, 1)])
        reach = monotone_reachability(blocked, (0, 0), (5, 5))
        assert reach[0, 0]
        assert not reach.any(axis=None) or not reach[-1, -1]  # walled in


class TestWangCondition:
    def test_no_blocks(self):
        assert minimal_path_exists_wang([], (0, 0), (5, 5))

    def test_single_spanning_block(self):
        # Block spans the full x range of the rectangle, above the source.
        blocks = [Rect(0, 5, 2, 3)]
        assert not minimal_path_exists_wang(blocks, (0, 0), (5, 5))
        # Destination below the block: unaffected.
        assert minimal_path_exists_wang(blocks, (0, 0), (5, 1))

    def test_endpoint_inside_block(self):
        blocks = [Rect(2, 4, 2, 4)]
        assert not minimal_path_exists_wang(blocks, (3, 3), (9, 9))
        assert not minimal_path_exists_wang(blocks, (0, 0), (3, 3))

    def test_two_block_chain_on_y(self):
        """The derived covers-on-y relation: tight diagonal chains block."""
        blocks = [Rect(0, 2, 1, 3), Rect(3, 5, 5, 7)]
        # x(2)min = 3 == x(1)max + 1 -> no free column between them.
        assert covering_sequence_on_y(blocks, (4, 9)) is not None
        assert not minimal_path_exists_wang(blocks, (0, 0), (4, 9))

    def test_two_block_gap_on_y(self):
        """One free column between the blocks lets the path slip through."""
        blocks = [Rect(0, 2, 1, 3), Rect(4, 6, 5, 7)]
        assert covering_sequence_on_y(blocks, (5, 9)) is None

    def test_chain_on_x_symmetric(self):
        blocks = [Rect(1, 3, 0, 2), Rect(5, 7, 3, 5)]
        assert covering_sequence_on_x(blocks, (9, 4)) is not None
        assert not minimal_path_exists_wang(blocks, (0, 0), (9, 4))

    def test_quadrant_reflection(self):
        """Wang's condition works for non-quadrant-I pairs via the frame."""
        blocks = [Rect(2, 7, 4, 5)]
        assert not minimal_path_exists_wang(blocks, (7, 7), (2, 2))
        assert minimal_path_exists_wang(blocks, (7, 7), (2, 6))


class TestWangAgreesWithDP:
    """Wang's condition and the DP decide the same predicate on random
    block sets (the paper's necessary-and-sufficient claim)."""

    @pytest.mark.parametrize("num_faults", [10, 30, 60])
    def test_random_agreement(self, rng, num_faults):
        mesh = Mesh2D(30, 30)
        for _ in range(8):
            faults = uniform_faults(mesh, num_faults, rng)
            blocks = build_faulty_blocks(mesh, faults)
            rects = blocks.rects()
            for _ in range(30):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dp = minimal_path_exists(blocks.unusable, source, dest)
                wang = minimal_path_exists_wang(rects, source, dest)
                assert dp == wang, (
                    f"disagreement for {source} -> {dest} with blocks "
                    f"{[str(r) for r in rects]}: dp={dp} wang={wang}"
                )


def _random_case(seed, side=14, faults=10, dests=40):
    """A random (blocked, source, dest array, dest list) tuple.

    Destinations are drawn over the whole mesh, so every quadrant relative
    to the source is exercised (including the degenerate on-axis cases).
    """
    rng = np.random.default_rng(seed)
    mesh = Mesh2D(side, side)
    blocked = random_block_set(mesh, faults, rng).unusable
    free = np.argwhere(~blocked)
    source = tuple(int(v) for v in free[rng.integers(len(free))])
    dest_rows = free[rng.integers(len(free), size=dests)]
    dest_list = [tuple(int(v) for v in row) for row in dest_rows]
    return blocked, source, dest_rows.astype(np.int64), dest_list


SEEDS = range(8)


class TestBatchMinimalPathExists:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_oracle(self, seed):
        blocked, source, dest_arr, dest_list = _random_case(seed)
        mask = batch_minimal_path_exists(blocked, source, dest_arr)
        expected = [minimal_path_exists(blocked, source, dest) for dest in dest_list]
        assert mask.tolist() == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_maps_are_reused_and_consistent(self, seed):
        """The wrapped kernel, ``batch_pattern_path_exists``, reuses the
        quadrant maps it is given and still agrees with the wrapper."""
        blocked, source, dest_arr, dest_list = _random_case(seed)
        maps = {}
        first = batch_pattern_path_exists(blocked[None], source, dest_arr[None], maps=maps)[0]
        assert maps  # at least one quadrant map was built
        built = {key: value.copy() for key, value in maps.items()}
        second = batch_pattern_path_exists(blocked[None], source, dest_arr[None], maps=maps)[0]
        assert first.tolist() == second.tolist()
        expected = [minimal_path_exists(blocked, source, dest) for dest in dest_list]
        assert second.tolist() == expected
        assert batch_minimal_path_exists(blocked, source, dest_arr).tolist() == expected
        for key, value in built.items():
            assert np.array_equal(maps[key], value)

    def test_includes_source_and_blocked_destinations(self):
        blocked, source, _, _ = _random_case(5)
        blocked_cells = np.argwhere(blocked)
        dests = np.vstack([[source], blocked_cells[:5]]).astype(np.int64)
        mask = batch_minimal_path_exists(blocked, source, dests)
        assert mask[0]  # source reaches itself
        assert not mask[1:].any()  # blocked destinations are unreachable

    def test_rejects_bad_shape(self):
        blocked, source, _, _ = _random_case(0)
        with pytest.raises(ValueError, match=r"\(k, 2\)"):
            batch_minimal_path_exists(blocked, source, np.zeros(4, dtype=np.int64))

    def test_rejects_off_mesh_destinations(self):
        blocked = _grid(8, 8)
        for dest in ([9, 3], [-3, 2], [2, 8]):
            with pytest.raises(ValueError, match="inside the mesh"):
                batch_minimal_path_exists(blocked, (2, 2), np.array([dest]))

    @pytest.mark.parametrize("source", [(-1, 2), (8, 2), (2, -1), (2, 8)])
    def test_rejects_off_mesh_source(self, source):
        """A negative source coordinate used to wrap to the far edge and one
        past the edge used to slice an empty quadrant: both answered
        ``[True, True]`` on an empty grid."""
        blocked = _grid(8, 8)
        dests = np.array([[3, 3], [1, 1]])
        with pytest.raises(ValueError, match="outside the 8x8 mesh"):
            batch_minimal_path_exists(blocked, source, dests)
        with pytest.raises(ValueError, match="outside the 8x8 mesh"):
            batch_pattern_path_exists(blocked[None], source, dests[None])


class TestMinimalPathExistsEndpoints:
    @pytest.mark.parametrize("outside", [(-1, 2), (8, 2), (2, -1), (2, 8)])
    def test_rejects_off_mesh_endpoints(self, outside):
        """Either endpoint outside the mesh raises ``ValueError``, not a bare
        ``IndexError`` or an answer read from a wrapped index."""
        blocked = _grid(8, 8)
        with pytest.raises(ValueError, match=r"source .* outside the 8x8 mesh"):
            minimal_path_exists(blocked, outside, (3, 3))
        with pytest.raises(ValueError, match=r"dest .* outside the 8x8 mesh"):
            minimal_path_exists(blocked, (3, 3), outside)
