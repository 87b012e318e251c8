"""Dynamic fault injection: incremental update equals from-scratch state."""

import numpy as np
import pytest

from repro.core.safety import UNBOUNDED, compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.simulator.protocols.dynamic_update import DynamicMesh


def _assert_consistent(dynamic: DynamicMesh) -> None:
    """The live state equals the centralized recomputation."""
    expected_blocks = build_faulty_blocks(dynamic.mesh, dynamic.faults)
    assert np.array_equal(dynamic.unusable_grid(), expected_blocks.unusable)
    expected_levels = compute_safety_levels(dynamic.mesh, expected_blocks.unusable)
    live = dynamic.safety_levels()
    for coord in dynamic.mesh.nodes():
        if expected_blocks.unusable[coord]:
            continue
        assert live.esl(coord) == expected_levels.esl(coord), coord


class TestSingleInjections:
    def test_initial_state_clear(self):
        dynamic = DynamicMesh(Mesh2D(8, 8))
        assert not dynamic.unusable_grid().any()
        assert dynamic.safety_levels().esl((3, 3)) == (UNBOUNDED,) * 4

    def test_one_fault_updates_row_and_column(self):
        dynamic = DynamicMesh(Mesh2D(10, 10))
        report = dynamic.inject_fault((5, 5))
        _assert_consistent(dynamic)
        assert report.newly_disabled == 0
        # The ripple stays on the affected row and column.
        assert report.messages <= 2 * 10

    def test_duplicate_injection_rejected(self):
        dynamic = DynamicMesh(Mesh2D(8, 8))
        dynamic.inject_fault((2, 2))
        with pytest.raises(ValueError):
            dynamic.inject_fault((2, 2))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            DynamicMesh(Mesh2D(8, 8)).inject_fault((8, 0))

    def test_reference_state_is_ground_truth(self):
        """The live state equals the batch builders for the current fault
        set, through an injection and a revival."""
        dynamic = DynamicMesh(Mesh2D(8, 8))
        for fault in ((3, 3), (4, 4)):
            dynamic.inject_fault(fault)
        dynamic.revive_node((3, 3))
        assert dynamic.faults == [(4, 4)]
        _assert_consistent(dynamic)


class TestDisablingCascades:
    def test_diagonal_pair_disables_corners(self):
        dynamic = DynamicMesh(Mesh2D(10, 10))
        dynamic.inject_fault((4, 4))
        report = dynamic.inject_fault((5, 5))
        _assert_consistent(dynamic)
        assert report.newly_disabled == 2  # (4,5) and (5,4)

    def test_staircase_cascade(self):
        dynamic = DynamicMesh(Mesh2D(12, 12))
        for fault in [(3, 3), (4, 4), (5, 5)]:
            dynamic.inject_fault(fault)
        _assert_consistent(dynamic)
        assert int(dynamic.unusable_grid().sum()) == 9  # full 3x3 square

    def test_injection_into_disabled_region(self):
        """A fault landing on an already-disabled node is a no-op for the
        block but must not corrupt the state."""
        dynamic = DynamicMesh(Mesh2D(10, 10))
        dynamic.inject_fault((4, 4))
        dynamic.inject_fault((5, 5))  # disables (4,5), (5,4)
        dynamic.inject_fault((4, 5))  # hits a disabled (still live) node
        _assert_consistent(dynamic)


class TestRandomSequences:
    @pytest.mark.parametrize("count", [10, 30])
    def test_matches_recompute_after_every_injection(self, rng, count):
        mesh = Mesh2D(16, 16)
        dynamic = DynamicMesh(mesh)
        faults = uniform_faults(mesh, count, rng)
        for fault in faults:
            if dynamic.unusable_grid()[fault] and fault not in dynamic.faults:
                # Landing on a disabled node: allowed, state must stay sane.
                pass
            dynamic.inject_fault(fault)
        _assert_consistent(dynamic)
        assert len(dynamic.reports) == count

    def test_update_locality(self, rng):
        """Incremental updates cost far less than re-forming from scratch.

        From-scratch ESL formation touches every affected row/column; an
        injection's ripple touches only the rows/columns of the new fault.
        """
        mesh = Mesh2D(24, 24)
        dynamic = DynamicMesh(mesh)
        faults = uniform_faults(mesh, 20, rng)
        for fault in faults:
            dynamic.inject_fault(fault)
        total_incremental = dynamic.total_messages
        per_injection = max(r.messages for r in dynamic.reports)
        # No single update floods the mesh.
        assert per_injection <= 4 * 24
        # And the running total stays in the same ballpark as one full
        # formation pass (each injection only redoes its own row/column).
        from repro.simulator.protocols import run_safety_propagation

        blocks = build_faulty_blocks(mesh, faults)
        from_scratch = run_safety_propagation(mesh, blocks.unusable).stats.messages
        assert total_incremental <= 4 * (from_scratch + 4 * 24)
