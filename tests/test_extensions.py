"""Unit and soundness tests for the three extended sufficient conditions.

The headline property for each extension: whenever it declares a minimal (or
sub-minimal) path ensured, the exact oracle agrees one exists (of length D,
or D+2 for sub-minimal via the safe spare neighbour).
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.conditions import DecisionKind, is_safe
from repro.core.extensions import (
    extension1_decision,
    extension2_decision,
    extension2_decision_from_segments,
    extension3_decision,
)
from repro.core.pivots import recursive_center_pivots
from repro.core.safety import compute_safety_levels
from repro.core.segments import build_axis_segments
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.frames import Frame
from repro.mesh.geometry import Direction, Rect
from repro.mesh.topology import Mesh2D
from tests.test_batched_patterns import exhaustive_4x4


def _setup(mesh, faults):
    blocks = build_faulty_blocks(mesh, faults)
    return compute_safety_levels(mesh, blocks.unusable), blocks


class TestExtension1:
    def test_safe_source_short_circuits(self):
        mesh = Mesh2D(12, 12)
        levels, blocks = _setup(mesh, [(6, 6)])
        decision = extension1_decision(mesh, levels, blocks.unusable, (0, 0), (5, 5))
        assert decision.kind is DecisionKind.SOURCE_SAFE
        assert decision.via is None

    def test_preferred_neighbor_rescues(self):
        """Source unsafe, but its North neighbour sees a clear column."""
        mesh = Mesh2D(12, 12)
        # Block at (4, 0) caps the source's E at 3; from (0, 1) the East row
        # is clear, so the preferred neighbour (0, 1) is safe for (6, 6).
        levels, blocks = _setup(mesh, [(4, 0)])
        source, dest = (0, 0), (6, 6)
        assert not is_safe(levels, source, dest)
        decision = extension1_decision(mesh, levels, blocks.unusable, source, dest)
        assert decision.kind is DecisionKind.PREFERRED_NEIGHBOR_SAFE
        assert decision.via == (0, 1)
        assert decision.ensures_minimal

    def test_spare_neighbor_gives_sub_minimal(self):
        """Only a spare neighbour is safe: sub-minimal ensured."""
        mesh = Mesh2D(12, 12)
        # Blocks cap both axes at the source and its preferred neighbours,
        # but the West spare neighbour has clear sections.
        levels, blocks = _setup(mesh, [(3, 1), (4, 0), (1, 5), (2, 6)])
        source, dest = (1, 0), (8, 4)
        decision = extension1_decision(mesh, levels, blocks.unusable, source, dest)
        if decision.kind is DecisionKind.SPARE_NEIGHBOR_SAFE:
            assert decision.via in [(0, 0)]
            assert not decision.ensures_minimal
            assert decision.ensures_sub_minimal

    def test_sub_minimal_can_be_disallowed(self):
        mesh = Mesh2D(12, 12)
        levels, blocks = _setup(mesh, [(3, 1), (4, 0), (1, 5), (2, 6)])
        decision = extension1_decision(
            mesh, levels, blocks.unusable, (1, 0), (8, 4), allow_sub_minimal=False
        )
        assert decision.kind in (
            DecisionKind.UNSAFE,
            DecisionKind.SOURCE_SAFE,
            DecisionKind.PREFERRED_NEIGHBOR_SAFE,
        )

    def test_blocked_neighbors_skipped(self):
        mesh = Mesh2D(12, 12)
        # The East neighbour of the source is inside a block; it must not be
        # used as a helper even though its stale ESL might look safe.
        levels, blocks = _setup(mesh, [(1, 0)])
        decision = extension1_decision(mesh, levels, blocks.unusable, (0, 0), (8, 0))
        assert decision.via is None or not blocks.is_unusable(decision.via)

    @pytest.mark.parametrize("num_faults", [10, 40])
    def test_soundness_minimal(self, rng, num_faults):
        mesh = Mesh2D(30, 30)
        for _ in range(5):
            faults = uniform_faults(mesh, num_faults, rng)
            levels, blocks = _setup(mesh, faults)
            for _ in range(80):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                decision = extension1_decision(mesh, levels, blocks.unusable, source, dest)
                if decision.ensures_minimal:
                    assert minimal_path_exists(blocks.unusable, source, dest)
                elif decision.kind is DecisionKind.SPARE_NEIGHBOR_SAFE:
                    # Sub-minimal: minimal from the spare neighbour exists.
                    assert minimal_path_exists(blocks.unusable, decision.via, dest)


class TestExtension2:
    def test_covers_clear_x_axis_case(self):
        """Paper Figure 5 (a): x axis clear, y axis blocked."""
        mesh = Mesh2D(20, 20)
        # Block on the y axis near the source makes Definition 3 fail for
        # tall destinations; a node further East sees a clear column.
        levels, blocks = _setup(mesh, [(0, 3), (1, 4)])
        source, dest = (0, 0), (10, 12)
        assert not is_safe(levels, source, dest)
        decision = extension2_decision(mesh, levels, source, dest, segment_size=1)
        assert decision.kind is DecisionKind.AXIS_NODE_SAFE
        helper = decision.via
        assert helper[1] == 0 and 1 <= helper[0] <= dest[0]
        assert is_safe(levels, helper, dest)

    def test_respects_k_le_xd(self):
        """A helper East of the destination column is useless."""
        mesh = Mesh2D(20, 20)
        levels, blocks = _setup(mesh, [(0, 3), (1, 4), (3, 8)])
        source, dest = (0, 0), (2, 12)
        decision = extension2_decision(mesh, levels, source, dest, segment_size=1)
        if decision.kind is DecisionKind.AXIS_NODE_SAFE:
            assert decision.via[0] <= dest[0]

    def test_larger_segments_never_help_more(self, rng):
        """Coarser sampling is monotonically weaker (paper Figure 10)."""
        mesh = Mesh2D(30, 30)
        for _ in range(4):
            faults = uniform_faults(mesh, 40, rng)
            levels, blocks = _setup(mesh, faults)
            for _ in range(60):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                fine = extension2_decision(mesh, levels, source, dest, 1)
                if fine.kind is DecisionKind.UNSAFE:
                    # With the finest sampling unsafe, coarser must be too.
                    coarse = extension2_decision(mesh, levels, source, dest, None)
                    assert coarse.kind is DecisionKind.UNSAFE

    @pytest.mark.parametrize("segment_size", [1, 5, None])
    def test_soundness(self, rng, segment_size):
        mesh = Mesh2D(30, 30)
        for _ in range(4):
            faults = uniform_faults(mesh, 30, rng)
            levels, blocks = _setup(mesh, faults)
            for _ in range(60):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                decision = extension2_decision(mesh, levels, source, dest, segment_size)
                if decision.kind is not DecisionKind.UNSAFE:
                    assert minimal_path_exists(blocks.unusable, source, dest)

    def test_subsumes_definition3(self, rng):
        mesh = Mesh2D(25, 25)
        faults = uniform_faults(mesh, 25, rng)
        levels, blocks = _setup(mesh, faults)
        for _ in range(100):
            source = (int(rng.integers(0, 25)), int(rng.integers(0, 25)))
            dest = (int(rng.integers(0, 25)), int(rng.integers(0, 25)))
            if blocks.is_unusable(source) or blocks.is_unusable(dest):
                continue
            if is_safe(levels, source, dest):
                decision = extension2_decision(mesh, levels, source, dest, None)
                assert decision.kind is DecisionKind.SOURCE_SAFE


def _theorem1b_inputs(levels, frame):
    """Everything Theorem 1b can read for ``frame``'s source: its local E
    and N, and the local perpendicular levels of every node beyond it on
    the two local axes.  Derived by reflecting whole grids into the frame,
    independently of the fast path's reversed slices."""
    e, _, _, n = frame.to_local_esl(levels.esl(frame.origin))
    xs = slice(None, None, -1 if frame.flip_x else 1)
    ys = slice(None, None, -1 if frame.flip_y else 1)
    north = (levels.south if frame.flip_y else levels.north)[xs, ys]
    east = (levels.west if frame.flip_x else levels.east)[xs, ys]
    lx, ly = frame.origin
    if frame.flip_x:
        lx = levels.mesh.n - 1 - lx
    if frame.flip_y:
        ly = levels.mesh.m - 1 - ly
    return frame, e, n, north[lx + 1 :, ly].tobytes(), east[lx, ly + 1 :].tobytes()


class TestExtension2FastPathMatchesReference:
    """``extension2_decision`` (axis slices reduced by the sweeps' table
    builder) equals the scalar reference ``build_axis_segments`` +
    ``extension2_decision_from_segments`` on ``kind`` and ``via``, in all
    four quadrants and for every segment size."""

    SIZES = (1, 2, 3, None)

    def _check(self, mesh, levels, source, dests, kinds):
        """Both paths for ``dests``, which all share one frame."""
        frame = Frame.for_pair(source, dests[0])
        for size in self.SIZES:
            east = build_axis_segments(mesh, levels, frame, Direction.EAST, size)
            north = build_axis_segments(mesh, levels, frame, Direction.NORTH, size)
            for dest in dests:
                got = extension2_decision(mesh, levels, source, dest, size)
                want = extension2_decision_from_segments(levels, source, dest, east, north)
                assert (got.kind, got.via) == (want.kind, want.via), (source, dest, size)
                kinds[got.kind, frame.flip_x, frame.flip_y] += 1

    def _check_grid(self, mesh, grid, pairs, kinds, seen=None):
        """Every ``(source, dests)`` of ``pairs`` on ``grid``.  With
        ``seen``, a ``(source, frame)`` whose Theorem 1b inputs an earlier
        grid already had is skipped: both paths read nothing else, so its
        verdicts are the same."""
        levels = compute_safety_levels(mesh, grid)
        for source, dests in pairs:
            by_frame = {}
            for dest in dests:
                by_frame.setdefault(Frame.for_pair(source, dest), []).append(dest)
            for frame, group in by_frame.items():
                if seen is not None:
                    key = _theorem1b_inputs(levels, frame)
                    if key in seen:
                        continue
                    seen.add(key)
                self._check(mesh, levels, source, group, kinds)

    @staticmethod
    def _assert_axis_rescues_in_every_quadrant(kinds):
        for flips in ((False, False), (True, False), (True, True), (False, True)):
            assert kinds[(DecisionKind.AXIS_NODE_SAFE, *flips)] > 0, flips

    def test_every_4x4_blocked_grid_and_pair(self):
        _, _, grids = exhaustive_4x4()
        mesh = Mesh2D(4, 4)
        nodes = [(x, y) for x in range(4) for y in range(4)]
        kinds, seen = Counter(), set()
        pairs = [(source, nodes) for source in nodes]
        for grid in grids:
            self._check_grid(mesh, grid, pairs, kinds, seen)
        self._assert_axis_rescues_in_every_quadrant(kinds)

    @pytest.mark.parametrize("model", ["blocks", "mcc"])
    def test_random_32x32_grids(self, model):
        rng = np.random.default_rng(2002)
        mesh = Mesh2D(32, 32)
        kinds = Counter()
        for trial in range(6):
            faults = uniform_faults(mesh, 30 + 20 * trial, rng)
            if model == "blocks":
                grid = build_faulty_blocks(mesh, faults).unusable
            else:
                grid = build_mccs(mesh, faults, MCCType.TYPE_ONE).blocked
            free = [tuple(map(int, node)) for node in np.argwhere(~grid)]
            picks = rng.choice(len(free), size=(16, 64))
            pairs = [(free[row[0]], [free[i] for i in row[1:]]) for row in picks]
            self._check_grid(mesh, grid, pairs, kinds)
        self._assert_axis_rescues_in_every_quadrant(kinds)


class TestExtension3:
    def test_pivot_chain(self):
        """Source safe w.r.t. a pivot and pivot safe w.r.t. the destination."""
        mesh = Mesh2D(20, 20)
        # Wall fragments block both axis approaches at longer range but
        # leave a dog-leg through the middle.
        levels, blocks = _setup(mesh, [(9, 0), (0, 9)])
        source, dest = (0, 0), (12, 12)
        assert not is_safe(levels, source, dest)
        pivots = [(5, 5)]
        decision = extension3_decision(mesh, levels, blocks.unusable, source, dest, pivots)
        assert decision.kind is DecisionKind.PIVOT_SAFE
        assert decision.via == (5, 5)

    def test_pivot_outside_rectangle_skipped(self):
        mesh = Mesh2D(20, 20)
        levels, blocks = _setup(mesh, [(9, 0), (0, 9)])
        source, dest = (0, 0), (12, 12)
        decision = extension3_decision(
            mesh, levels, blocks.unusable, source, dest, [(14, 14)]
        )
        assert decision.kind is DecisionKind.UNSAFE

    def test_blocked_pivot_skipped(self):
        mesh = Mesh2D(20, 20)
        levels, blocks = _setup(mesh, [(5, 5), (9, 0), (0, 9)])
        decision = extension3_decision(
            mesh, levels, blocks.unusable, (0, 0), (12, 12), [(5, 5)]
        )
        assert decision.kind is DecisionKind.UNSAFE

    def test_works_in_reflected_quadrants(self):
        mesh = Mesh2D(20, 20)
        # Mirror of test_pivot_chain into quadrant III.
        levels, blocks = _setup(mesh, [(10, 19), (19, 10)])
        source, dest = (19, 19), (7, 7)
        assert not is_safe(levels, source, dest)
        decision = extension3_decision(
            mesh, levels, blocks.unusable, source, dest, [(14, 14)]
        )
        assert decision.kind is DecisionKind.PIVOT_SAFE

    @pytest.mark.parametrize("levels_count", [1, 2, 3])
    def test_soundness(self, rng, levels_count):
        mesh = Mesh2D(30, 30)
        region = Rect(15, 29, 15, 29)
        pivots = recursive_center_pivots(region, levels_count)
        for _ in range(4):
            faults = uniform_faults(mesh, 35, rng)
            levels, blocks = _setup(mesh, faults)
            for _ in range(60):
                source = (int(rng.integers(0, 15)), int(rng.integers(0, 15)))
                dest = (int(rng.integers(15, 30)), int(rng.integers(15, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                decision = extension3_decision(
                    mesh, levels, blocks.unusable, source, dest, pivots
                )
                if decision.kind is not DecisionKind.UNSAFE:
                    assert minimal_path_exists(blocks.unusable, source, dest)

    def test_more_pivots_never_hurt(self, rng):
        mesh = Mesh2D(30, 30)
        region = Rect(15, 29, 15, 29)
        few = recursive_center_pivots(region, 1)
        many = recursive_center_pivots(region, 3)
        faults = uniform_faults(mesh, 40, rng)
        levels, blocks = _setup(mesh, faults)
        for _ in range(80):
            source = (int(rng.integers(0, 15)), int(rng.integers(0, 15)))
            dest = (int(rng.integers(15, 30)), int(rng.integers(15, 30)))
            if blocks.is_unusable(source) or blocks.is_unusable(dest):
                continue
            with_few = extension3_decision(mesh, levels, blocks.unusable, source, dest, few)
            if with_few.kind is not DecisionKind.UNSAFE:
                with_many = extension3_decision(
                    mesh, levels, blocks.unusable, source, dest, many
                )
                assert with_many.kind is not DecisionKind.UNSAFE
