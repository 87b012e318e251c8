"""Tests for the N-dimensional extension (the paper's future work)."""

import itertools

import numpy as np
import pytest

from repro.core.safety import UNBOUNDED, compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.ndmesh import (
    MeshND,
    axis_sections_clear,
    build_nd_blocks,
    compute_nd_safety_levels,
    nd_minimal_path_exists,
    nd_monotone_path,
    segment_chain_safe,
)
from repro.ndmesh.conditions import clear_segment


class TestMeshND:
    def test_basic_properties(self):
        mesh = MeshND((4, 5, 6))
        assert mesh.dimensions == 3
        assert mesh.size == 120
        assert mesh.center == (2, 2, 3)
        assert len(list(mesh.nodes())) == 120

    def test_neighbors_interior_and_corner(self):
        mesh = MeshND((4, 4, 4))
        assert len(mesh.neighbors((2, 2, 2))) == 6
        assert len(mesh.neighbors((0, 0, 0))) == 3

    def test_distance_and_directions(self):
        mesh = MeshND((8, 8, 8))
        assert mesh.distance((0, 0, 0), (3, 2, 5)) == 10

    def test_step(self):
        mesh = MeshND((4, 4))
        assert mesh.step((1, 1), 0, 1) == (2, 1)
        assert mesh.step((3, 1), 0, 1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshND(())
        with pytest.raises(ValueError):
            MeshND((3, 0))
        with pytest.raises(ValueError):
            MeshND((3, 3)).require_in_bounds((3, 0))


class TestNDBlocks:
    def test_matches_2d_model(self, rng):
        """In two dimensions the ND labelling equals the 2-D module."""
        mesh2d = Mesh2D(15, 15)
        meshnd = MeshND((15, 15))
        for _ in range(5):
            faults = uniform_faults(mesh2d, 20, rng)
            legacy = build_faulty_blocks(mesh2d, faults)
            nd = build_nd_blocks(meshnd, faults)
            assert np.array_equal(nd.unusable, legacy.unusable)
            assert nd.min_fill_ratio() == 1.0  # 2-D components are rectangles

    def test_3d_diagonal_pair_in_plane_fills(self):
        """Two faults diagonal within one plane pinch the two off-diagonal
        nodes of that plane, as in 2-D."""
        mesh = MeshND((5, 5, 5))
        blocks = build_nd_blocks(mesh, [(1, 1, 2), (2, 2, 2)])
        assert blocks.is_unusable((1, 2, 2))
        assert blocks.is_unusable((2, 1, 2))
        assert not blocks.is_unusable((1, 1, 1))

    def test_3d_space_diagonal_does_not_pinch(self):
        """Faults diagonal across three axes share no pinched neighbour."""
        mesh = MeshND((5, 5, 5))
        blocks = build_nd_blocks(mesh, [(1, 1, 1), (2, 2, 2)])
        assert blocks.num_disabled == 0
        assert len(blocks) == 2

    def test_3d_planar_l_fills_its_plane(self):
        """An L inside one axis plane fills like the 2-D model (the pinch
        argument applies within the plane), ending as a flat box."""
        mesh = MeshND((6, 6, 6))
        blocks = build_nd_blocks(mesh, [(1, 1, 1), (2, 1, 1), (2, 1, 2)])
        assert len(blocks) == 1
        assert blocks.blocks[0].fill_ratio == 1.0
        assert blocks.blocks[0].lower == (1, 1, 1)
        assert blocks.blocks[0].upper == (2, 1, 2)

    def test_3d_components_are_boxes_empirically(self, rng):
        """The emergent (empirical) box property: randomized 3-D fault sets
        converge to box components -- see the module docstring; a failure
        here would be a genuine discovery, not a regression."""
        mesh = MeshND((8, 8, 8))
        for _ in range(20):
            count = int(rng.integers(3, 28))
            cells = set()
            while len(cells) < count:
                cells.add(tuple(int(x) for x in rng.integers(0, 8, 3)))
            assert build_nd_blocks(mesh, sorted(cells)).min_fill_ratio() == 1.0

    def test_3d_blocks_may_touch_on_space_diagonal(self):
        """Unlike 2-D, space-diagonal contact does not merge blocks."""
        mesh = MeshND((5, 5, 5))
        blocks = build_nd_blocks(mesh, [(1, 1, 1), (2, 2, 2)])
        assert len(blocks) == 2
        assert blocks.num_disabled == 0

    def test_counts(self):
        mesh = MeshND((5, 5, 5))
        blocks = build_nd_blocks(mesh, [(1, 1, 2), (2, 2, 2)])
        assert blocks.num_faulty == 2
        assert blocks.num_disabled == 2


class TestNDSafetyLevels:
    def test_matches_2d_levels(self, rng):
        mesh2d = Mesh2D(12, 12)
        meshnd = MeshND((12, 12))
        faults = uniform_faults(mesh2d, 15, rng)
        legacy = compute_safety_levels(mesh2d, build_faulty_blocks(mesh2d, faults).unusable)
        nd = compute_nd_safety_levels(meshnd, build_nd_blocks(meshnd, faults).unusable)
        for node in mesh2d.nodes():
            east, south, west, north = legacy.esl(node)
            assert nd.level(node, 0, 1) == east
            assert nd.level(node, 0, -1) == west
            assert nd.level(node, 1, 1) == north
            assert nd.level(node, 1, -1) == south

    def test_3d_levels_brute_force(self, rng):
        mesh = MeshND((7, 7, 7))
        blocked = np.zeros((7, 7, 7), dtype=bool)
        for _ in range(12):
            blocked[tuple(int(x) for x in rng.integers(0, 7, 3))] = True
        levels = compute_nd_safety_levels(mesh, blocked)
        for _ in range(60):
            node = tuple(int(x) for x in rng.integers(0, 7, 3))
            if blocked[node]:
                continue
            for axis in range(3):
                for sign in (1, -1):
                    count = 0
                    cursor = node
                    while True:
                        nxt = mesh.step(cursor, axis, sign)
                        if nxt is None:
                            count = UNBOUNDED
                            break
                        if blocked[nxt]:
                            break
                        count += 1
                        cursor = nxt
                    assert levels.level(node, axis, sign) == count

    def test_esl_tuple_width(self):
        mesh = MeshND((4, 4, 4, 4))
        levels = compute_nd_safety_levels(mesh, np.zeros((4,) * 4, dtype=bool))
        assert levels.esl((1, 1, 1, 1)) == (UNBOUNDED,) * 8

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_nd_safety_levels(MeshND((4, 4)), np.zeros((4, 5), dtype=bool))


class TestNDOracle:
    def test_matches_2d_oracle(self, rng):
        mesh2d = Mesh2D(12, 12)
        faults = uniform_faults(mesh2d, 25, rng)
        blocked = build_faulty_blocks(mesh2d, faults).unusable
        for _ in range(60):
            source = (int(rng.integers(0, 12)), int(rng.integers(0, 12)))
            dest = (int(rng.integers(0, 12)), int(rng.integers(0, 12)))
            assert nd_minimal_path_exists(blocked, source, dest) == minimal_path_exists(
                blocked, source, dest
            )

    def test_3d_path_extraction(self, rng):
        mesh = MeshND((6, 6, 6))
        blocked = np.zeros((6, 6, 6), dtype=bool)
        for _ in range(15):
            blocked[tuple(int(x) for x in rng.integers(0, 6, 3))] = True
        checked = 0
        for _ in range(40):
            source = tuple(int(x) for x in rng.integers(0, 6, 3))
            dest = tuple(int(x) for x in rng.integers(0, 6, 3))
            if blocked[source] or blocked[dest]:
                continue
            path = nd_monotone_path(mesh, blocked, source, dest)
            if nd_minimal_path_exists(blocked, source, dest):
                assert path is not None
                assert path[0] == source and path[-1] == dest
                assert len(path) - 1 == mesh.distance(source, dest)
                assert not any(blocked[node] for node in path)
                checked += 1
            else:
                assert path is None
        assert checked > 0

    def test_all_octants(self):
        blocked = np.zeros((5, 5, 5), dtype=bool)
        blocked[2, 2, 2] = True
        center = (2, 2, 0)
        for corner in itertools.product((0, 4), (0, 4), (4,)):
            assert nd_minimal_path_exists(blocked, center, corner)


def _counterexample_3d():
    """13 blocked cells sealing (0,0,0) -> (4,4,4) with all axes clear.

    The anti-diagonal surface ``x+y+z = 4`` pierced only at the three axis
    points, plus a two-cell wall behind each pierce point.
    """
    blocked = np.zeros((5, 5, 5), dtype=bool)
    for cell in itertools.product(range(5), repeat=3):
        if sum(cell) == 4 and cell not in [(4, 0, 0), (0, 4, 0), (0, 0, 4)]:
            blocked[cell] = True
    for wall in [(4, 1, 0), (4, 0, 1), (1, 4, 0), (0, 4, 1), (1, 0, 4), (0, 1, 4)]:
        blocked[wall] = True
    return blocked


class TestConditions:
    def test_axis_condition_equals_definition3_in_2d(self, rng):
        from repro.core.conditions import is_safe

        mesh2d = Mesh2D(14, 14)
        meshnd = MeshND((14, 14))
        faults = uniform_faults(mesh2d, 18, rng)
        blocked = build_faulty_blocks(mesh2d, faults).unusable
        legacy_levels = compute_safety_levels(mesh2d, blocked)
        nd_levels = compute_nd_safety_levels(meshnd, blocked)
        for _ in range(120):
            source = (int(rng.integers(0, 14)), int(rng.integers(0, 14)))
            dest = (int(rng.integers(0, 14)), int(rng.integers(0, 14)))
            if blocked[source] or blocked[dest]:
                continue
            assert axis_sections_clear(nd_levels, source, dest) == is_safe(
                legacy_levels, source, dest
            )

    def test_axis_condition_unsound_in_3d_for_arbitrary_obstacles(self):
        """The documented counterexample: clear axes, yet no minimal path."""
        mesh = MeshND((5, 5, 5))
        blocked = _counterexample_3d()
        levels = compute_nd_safety_levels(mesh, blocked)
        source, dest = (0, 0, 0), (4, 4, 4)
        assert axis_sections_clear(levels, source, dest)
        assert not nd_minimal_path_exists(blocked, source, dest)

    def test_segment_chain_rejects_the_counterexample(self):
        """The sound condition does not claim the sealed pair -- with any
        pivot set, since no minimal path exists at all."""
        mesh = MeshND((5, 5, 5))
        blocked = _counterexample_3d()
        levels = compute_nd_safety_levels(mesh, blocked)
        pivots = [c for c in mesh.nodes() if not blocked[c]]
        assert not segment_chain_safe(levels, (0, 0, 0), (4, 4, 4), pivots)

    def test_clear_segment_semantics(self):
        mesh = MeshND((8, 8, 8))
        blocked = np.zeros((8, 8, 8), dtype=bool)
        blocked[4, 0, 0] = True
        levels = compute_nd_safety_levels(mesh, blocked)
        assert clear_segment(levels, (0, 0, 0), (3, 0, 0))
        assert not clear_segment(levels, (0, 0, 0), (5, 0, 0))  # runs into block
        assert not clear_segment(levels, (0, 0, 0), (1, 1, 0))  # not axis-aligned
        assert not clear_segment(levels, (0, 0, 0), (0, 0, 0))  # zero-length

    @pytest.mark.parametrize("shape", [(10, 10), (7, 7, 7)])
    def test_segment_chain_soundness(self, rng, shape):
        """Whenever the chain condition claims a pair, the oracle agrees."""
        mesh = MeshND(shape)
        blocked = np.zeros(shape, dtype=bool)
        for _ in range(12):
            blocked[tuple(int(rng.integers(0, k)) for k in shape)] = True
        levels = compute_nd_safety_levels(mesh, blocked)
        pivots = [mesh.center] + [
            tuple(int(rng.integers(0, k)) for k in shape) for _ in range(10)
        ]
        pivots = [p for p in pivots if not blocked[p]]
        claimed = 0
        for _ in range(80):
            source = tuple(int(rng.integers(0, k)) for k in shape)
            dest = tuple(int(rng.integers(0, k)) for k in shape)
            if blocked[source] or blocked[dest]:
                continue
            if segment_chain_safe(levels, source, dest, pivots):
                claimed += 1
                assert nd_minimal_path_exists(blocked, source, dest)
        assert claimed > 0

    def test_segment_chain_certifies_minimal_paths_only(self):
        """Detours outside the source/destination box are rejected: with the
        straight line cut, no minimal path to an on-axis destination exists
        and the chain condition must say no, whatever pivots it gets."""
        mesh = MeshND((6, 6, 6))
        blocked = np.zeros((6, 6, 6), dtype=bool)
        blocked[2, 0, 0] = True
        levels = compute_nd_safety_levels(mesh, blocked)
        source, dest = (0, 0, 0), (5, 0, 0)
        assert not nd_minimal_path_exists(blocked, source, dest)
        pivots = [c for c in mesh.nodes() if not blocked[c]]
        assert not segment_chain_safe(levels, source, dest, pivots)

    def test_box_corner_pivots(self):
        from repro.ndmesh.conditions import box_corner_pivots

        corners = box_corner_pivots((0, 0, 0), (3, 4, 5))
        assert len(corners) == 2**3 - 2  # endpoints excluded
        assert (3, 0, 0) in corners and (0, 4, 5) in corners
        # Degenerate axis collapses duplicate corners away via exclusion.
        flat = box_corner_pivots((0, 0), (3, 0))
        assert flat == []

    def test_box_corner_chain_matches_edge_routing(self, rng):
        """Chains through box corners certify a pair iff some box-edge
        staircase is clear -- and the oracle always agrees."""
        from repro.ndmesh.conditions import box_corner_pivots

        mesh = MeshND((9, 9, 9))
        blocked = np.zeros((9, 9, 9), dtype=bool)
        for _ in range(20):
            blocked[tuple(int(x) for x in rng.integers(0, 9, 3))] = True
        levels = compute_nd_safety_levels(mesh, blocked)
        claimed = 0
        for _ in range(100):
            source = tuple(int(x) for x in rng.integers(0, 9, 3))
            dest = tuple(int(x) for x in rng.integers(0, 9, 3))
            if blocked[source] or blocked[dest]:
                continue
            corners = box_corner_pivots(source, dest)
            if segment_chain_safe(levels, source, dest, corners):
                claimed += 1
                assert nd_minimal_path_exists(blocked, source, dest)
        assert claimed > 0

    def test_segment_chain_uses_multi_hop_chains(self):
        """A staircase needing two intermediate pivots."""
        mesh = MeshND((6, 6, 6))
        blocked = np.zeros((6, 6, 6), dtype=bool)
        blocked[3, 0, 0] = True  # cuts the x-first L corner route
        blocked[0, 2, 0] = True  # cuts the y-first L corner route
        levels = compute_nd_safety_levels(mesh, blocked)
        source, dest = (0, 0, 0), (5, 5, 0)
        assert not segment_chain_safe(levels, source, dest, [(5, 0, 0), (0, 5, 0)])
        assert segment_chain_safe(levels, source, dest, [(2, 0, 0), (2, 5, 0)])
        assert nd_minimal_path_exists(blocked, source, dest)


class TestFourDimensions:
    def test_4d_oracle_and_chain(self, rng):
        """Everything generalizes past 3-D: oracle, levels, chains in a
        4-dimensional mesh."""
        from repro.ndmesh.conditions import box_corner_pivots

        mesh = MeshND((5, 5, 5, 5))
        blocked = np.zeros((5,) * 4, dtype=bool)
        for _ in range(20):
            blocked[tuple(int(x) for x in rng.integers(0, 5, 4))] = True
        levels = compute_nd_safety_levels(mesh, blocked)
        claimed = 0
        for _ in range(30):
            source = tuple(int(x) for x in rng.integers(0, 2, 4))
            dest = tuple(int(x) for x in rng.integers(3, 5, 4))
            if blocked[source] or blocked[dest]:
                continue
            corners = box_corner_pivots(source, dest)
            assert len(corners) == 2**4 - 2
            if segment_chain_safe(levels, source, dest, corners):
                claimed += 1
                assert nd_minimal_path_exists(blocked, source, dest)
                path = nd_monotone_path(mesh, blocked, source, dest)
                assert path is not None
                assert len(path) - 1 == mesh.distance(source, dest)
        assert claimed > 0
