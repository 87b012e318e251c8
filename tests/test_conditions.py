"""Unit tests for Definition 3's safe condition and decision records.

The key soundness property -- "safe implies a minimal path exists" (Theorem
1) -- is tested against the exact DP oracle on randomized fault patterns in
all four quadrants.
"""

import pytest

from repro.core.conditions import (
    Decision,
    DecisionKind,
    is_safe,
    safe_source_decision,
)
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D


def _setup(mesh, faults):
    blocks = build_faulty_blocks(mesh, faults)
    return compute_safety_levels(mesh, blocks.unusable), blocks


class TestDefinition3:
    def test_clear_axes_are_safe(self):
        mesh = Mesh2D(12, 12)
        levels, _ = _setup(mesh, [(5, 5)])
        # Block at (5,5); from (0,0) the axes are clear, so any quadrant-I
        # destination with clear axis sections is safe.
        assert is_safe(levels, (0, 0), (11, 11))

    def test_block_on_x_axis_bounds_safety(self):
        mesh = Mesh2D(12, 12)
        levels, _ = _setup(mesh, [(5, 0)])
        assert is_safe(levels, (0, 0), (4, 11))  # xd = 4 <= E = 4
        assert not is_safe(levels, (0, 0), (5, 11))
        assert not is_safe(levels, (0, 0), (6, 11))

    def test_block_on_y_axis_bounds_safety(self):
        mesh = Mesh2D(12, 12)
        levels, _ = _setup(mesh, [(0, 7)])
        assert is_safe(levels, (0, 0), (11, 6))
        assert not is_safe(levels, (0, 0), (11, 7))

    def test_safe_in_every_quadrant(self):
        mesh = Mesh2D(13, 13)
        levels, _ = _setup(mesh, [(6, 6)])
        center = (6, 0)
        # From (6,0): the block is straight North at distance 5.
        assert is_safe(levels, center, (12, 5))
        assert not is_safe(levels, center, (12, 6))
        # Westward destination uses the W level.
        assert is_safe(levels, center, (0, 5))

    def test_degenerate_destinations(self):
        mesh = Mesh2D(10, 10)
        levels, _ = _setup(mesh, [(5, 5)])
        assert is_safe(levels, (2, 2), (2, 2))  # self
        assert is_safe(levels, (0, 0), (9, 0))  # straight East, clear row
        levels2, _ = _setup(mesh, [(4, 0)])
        assert not is_safe(levels2, (0, 0), (9, 0))  # blocked row

    def test_decision_record(self):
        mesh = Mesh2D(10, 10)
        levels, _ = _setup(mesh, [(4, 0)])
        safe = safe_source_decision(levels, (0, 0), (3, 5))
        assert safe.kind is DecisionKind.SOURCE_SAFE
        assert safe.ensures_minimal and safe.ensures_sub_minimal
        assert safe.expected_length_overhead == 0
        unsafe = safe_source_decision(levels, (0, 0), (5, 5))
        assert unsafe.kind is DecisionKind.UNSAFE
        assert not unsafe.ensures_minimal and not unsafe.ensures_sub_minimal


class TestTheorem1Soundness:
    """Definition 3 safe => the DP oracle confirms a minimal path exists."""

    @pytest.mark.parametrize("num_faults", [8, 25, 60])
    def test_random_patterns_all_quadrants(self, rng, num_faults):
        mesh = Mesh2D(30, 30)
        for _ in range(6):
            faults = uniform_faults(mesh, num_faults, rng)
            levels, blocks = _setup(mesh, faults)
            checked = 0
            for _ in range(200):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                if is_safe(levels, source, dest):
                    checked += 1
                    assert minimal_path_exists(blocks.unusable, source, dest), (
                        f"safe pair {source} -> {dest} has no minimal path; "
                        f"faults={faults}"
                    )
            assert checked > 0  # the test exercised the property


class TestNeighborClassification:
    def test_interior(self):
        mesh = Mesh2D(10, 10)
        preferred = mesh.preferred_neighbors((4, 4), (8, 8))
        spare = mesh.spare_neighbors((4, 4), (8, 8))
        assert set(preferred) == {(5, 4), (4, 5)}
        assert set(spare) == {(3, 4), (4, 3)}

    def test_decision_fields(self):
        decision = Decision(DecisionKind.SPARE_NEIGHBOR_SAFE, (0, 0), (5, 5), via=(0, 1))
        assert not decision.ensures_minimal
        assert decision.ensures_sub_minimal
        assert decision.expected_length_overhead == 2
