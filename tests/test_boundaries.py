"""Unit tests for boundary lines L1-L4 with joins."""

import hashlib

import numpy as np
import pytest

from repro.core.boundaries import BoundaryMap, CanonicalBoundaryMap, Line
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import clustered_faults, uniform_faults
from repro.mesh.geometry import Direction, Rect
from repro.mesh.topology import Mesh2D


def _bmap(mesh, faults):
    blocks = build_faulty_blocks(mesh, faults)
    return BoundaryMap.for_blocks(blocks), blocks


class TestSingleBlockTraces:
    def test_l1_runs_west_from_exit_corner(self):
        mesh = Mesh2D(12, 12)
        bmap, blocks = _bmap(mesh, [(4, 4), (5, 5)])  # block [4:5, 4:5]
        canonical = bmap.canonical(False, False)
        # L1 row is y=3, from x=6 (the L1 ∩ L4 corner) down to x=0.
        for x in range(0, 7):
            tags = [t for t in canonical.tags_at((x, 3)) if t.line is Line.L1]
            assert len(tags) == 1
            if x == 6:
                assert tags[0].toward is None
            else:
                assert tags[0].toward is Direction.EAST

    def test_l3_runs_south_from_exit_corner(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(4, 4), (5, 5)])
        canonical = bmap.canonical(False, False)
        for y in range(0, 7):
            tags = [t for t in canonical.tags_at((3, y)) if t.line is Line.L3]
            assert len(tags) == 1
            if y == 6:
                assert tags[0].toward is None
            else:
                assert tags[0].toward is Direction.NORTH

    def test_block_touching_south_edge_has_no_l1(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(4, 0), (5, 1)])  # block [4:5, 0:1]
        canonical = bmap.canonical(False, False)
        l1_tags = [
            t
            for tags in canonical.annotations.values()
            for t in tags
            if t.line is Line.L1
        ]
        assert l1_tags == []

    def test_block_at_east_edge_l1_starts_inside_mesh(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(11, 5)])
        canonical = bmap.canonical(False, False)
        # The true exit corner (12, 4) is off-mesh, so the clipped start node
        # keeps the travel direction (consistent with the distributed
        # protocol); its critical region is empty anyway.
        tags = canonical.tags_at((11, 4))
        assert any(t.line is Line.L1 and t.toward is Direction.EAST for t in tags)
        assert canonical.forbidden_directions((11, 4), (11, 5)) == set()


class TestJoins:
    def test_l1_joins_l1_of_encountered_block(self):
        """Block i's L1 heading West hits block j and descends to j's L1."""
        mesh = Mesh2D(20, 20)
        # Block i = [10:11, 6:7]; its L1 row is y=5.
        # Block j = [4:5, 3:6] straddles y=5, so the trace must descend along
        # x=6 (j's East side) to y=2 (j's L1 row) and continue West.
        faults = [(10, 6), (11, 7), (4, 3), (5, 4), (4, 5), (5, 6)]
        bmap, blocks = _bmap(mesh, faults)
        assert {str(r) for r in blocks.rects()} == {"[10:11, 6:7]", "[4:5, 3:6]"}
        canonical = bmap.canonical(False, False)
        block_i = blocks.rects().index(Rect(10, 11, 6, 7))

        # On the descent column (x=6, y in 2..4): toward is NORTH.
        for y in (2, 3, 4):
            tags = [t for t in canonical.tags_at((6, y)) if t.block_index == block_i]
            assert tags and tags[0].line is Line.L1
            assert tags[0].toward is Direction.NORTH
        # West of block j on j's L1 row (y=2): toward is EAST.
        for x in (0, 2, 3):
            tags = [t for t in canonical.tags_at((x, 2)) if t.block_index == block_i]
            assert tags and tags[0].toward is Direction.EAST
        # Block i's own L1 row nodes West of i and East of j: toward EAST.
        for x in (7, 8, 9):
            tags = [t for t in canonical.tags_at((x, 5)) if t.block_index == block_i]
            assert tags and tags[0].toward is Direction.EAST

    def test_l3_joins_l3_of_encountered_block(self):
        mesh = Mesh2D(20, 20)
        # Block i = [6:7, 10:11]; L3 column x=5.
        # Block j = [3:6, 4:5] straddles x=5: trace crosses West along y=6
        # (j's L2 row) to x=2 (j's L3 column) and continues South.
        faults = [(6, 10), (7, 11), (3, 4), (4, 5), (5, 4), (6, 5)]
        bmap, blocks = _bmap(mesh, faults)
        assert {str(r) for r in blocks.rects()} == {"[6:7, 10:11]", "[3:6, 4:5]"}
        canonical = bmap.canonical(False, False)
        block_i = blocks.rects().index(Rect(6, 7, 10, 11))

        for x in (3, 4):  # crossing along y=6: toward EAST (back along line)
            tags = [t for t in canonical.tags_at((x, 6)) if t.block_index == block_i]
            assert tags and tags[0].line is Line.L3
            assert tags[0].toward is Direction.EAST
        for y in (0, 1, 3):  # j's L3 column below: toward NORTH
            tags = [t for t in canonical.tags_at((2, y)) if t.block_index == block_i]
            assert tags and tags[0].toward is Direction.NORTH

    def test_join_truncated_at_mesh_edge(self):
        mesh = Mesh2D(12, 12)
        # The encountered block touches the South edge: no L1 to join.
        faults = [(8, 4), (3, 0), (3, 1), (4, 2), (3, 3), (4, 4)]
        bmap, blocks = _bmap(mesh, faults)
        canonical = bmap.canonical(False, False)
        assert canonical.truncated_traces >= 1


class TestForbiddenDirections:
    def test_r6_forbids_north_on_l1(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(4, 4), (5, 5)])  # block [4:5, 4:5]
        canonical = bmap.canonical(False, False)
        # Node on L1 left section; destination East of the block in its band.
        assert canonical.forbidden_directions((1, 3), (8, 5)) == {Direction.NORTH}
        # Destination above the block: non-critical.
        assert canonical.forbidden_directions((1, 3), (8, 7)) == set()
        # Destination West of the block's far side: non-critical.
        assert canonical.forbidden_directions((1, 3), (3, 7)) == set()
        # Destination on the L1 row itself: non-critical (paths to it never
        # rise above the row, so the block cannot interfere).
        assert canonical.forbidden_directions((1, 3), (8, 3)) == set()

    def test_r4_forbids_east_on_l3(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(4, 4), (5, 5)])
        canonical = bmap.canonical(False, False)
        assert canonical.forbidden_directions((3, 1), (5, 8)) == {Direction.EAST}
        assert canonical.forbidden_directions((3, 1), (8, 8)) == set()
        assert canonical.forbidden_directions((3, 1), (3, 8)) == set()

    def test_exit_corner_is_unconstrained(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(4, 4), (5, 5)])
        canonical = bmap.canonical(False, False)
        assert canonical.forbidden_directions((6, 3), (8, 5)) == set()

    def test_plain_nodes_unconstrained(self):
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(4, 4), (5, 5)])
        canonical = bmap.canonical(False, False)
        assert canonical.forbidden_directions((0, 0), (8, 8)) == set()

    def test_joined_straight_sections_forbid_north(self):
        """Nodes on the joined L1 row carry the upstream block's rule; the
        turn (descent) nodes stay unconstrained."""
        mesh = Mesh2D(20, 20)
        faults = [(10, 6), (11, 7), (4, 3), (5, 4), (4, 5), (5, 6)]
        bmap, blocks = _bmap(mesh, faults)  # blocks [10:11,6:7], [4:5,3:6]
        canonical = bmap.canonical(False, False)
        dest = (15, 7)  # in R6 of block [10:11, 6:7]
        # Straight joined section (on block j's L1 row, West of j).
        assert Direction.NORTH in canonical.forbidden_directions((1, 2), dest)
        # Straight section on block i's own L1 row, East of j.
        assert Direction.NORTH in canonical.forbidden_directions((8, 5), dest)
        # Descent (turn) nodes: both preferred directions stay legal.
        assert canonical.forbidden_directions((6, 3), dest) == set()
        assert canonical.forbidden_directions((6, 4), dest) == set()


class TestReflection:
    def test_involution(self):
        bmap = BoundaryMap(
            mesh=Mesh2D(10, 10),
            rects=[],
            unusable=np.zeros((10, 10), dtype=bool),
        )
        reflection = bmap.reflection(True, True)
        assert reflection.to_local((3, 7)) == (6, 2)
        assert reflection.to_local(reflection.to_local((3, 7))) == (3, 7)
        assert reflection.to_global(reflection.to_local((3, 7))) == (3, 7)
        assert reflection.to_local_direction(Direction.EAST) is Direction.WEST
        assert (
            reflection.to_local_direction(reflection.to_local_direction(Direction.EAST))
            is Direction.EAST
        )

    def test_reflected_map_guards_quadrant_iii(self):
        """For a SW-bound packet the mirrored lines guard the block."""
        mesh = Mesh2D(12, 12)
        bmap, _ = _bmap(mesh, [(6, 6), (7, 7)])  # block [6:7, 6:7]
        reflection = bmap.reflection(True, True)
        canonical = bmap.canonical(True, True)
        # Real node (10, 8): East of the block, inside its band, heading SW
        # toward (2, 7)... reflected space must force the stay-on rule.
        node_r = reflection.to_local((10, 8))
        dest_r = reflection.to_local((2, 7))
        forbidden = canonical.forbidden_directions(node_r, dest_r)
        assert forbidden  # critical in the mirrored frame

    def test_canonical_maps_cached(self):
        mesh = Mesh2D(10, 10)
        bmap, _ = _bmap(mesh, [(5, 5)])
        assert bmap.canonical(False, False) is bmap.canonical(False, False)
        assert bmap.canonical(True, False) is not bmap.canonical(False, False)


def _annotation_digest(canonical):
    """sha256 over the sorted ``(coord, block_index, line, toward)`` entries
    and the truncated-trace count of one canonical map."""
    entries = sorted(
        (coord, tag.block_index, tag.line.value, tag.toward.name if tag.toward else "")
        for coord, tags in canonical.annotations.items()
        for tag in tags
    )
    payload = repr((entries, canonical.truncated_traces)).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _seeded_blocks(side, count, pattern):
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(2002)
    if pattern == "uniform":
        faults = uniform_faults(mesh, count, rng)
    else:
        faults = clustered_faults(mesh, count, rng, clusters=16, radius=3)
    return build_faulty_blocks(mesh, faults)


class TestFrozenAnnotations:
    """Traced annotations pinned to digests taken before the tracer was
    made cheaper: every orientation, every tag, every truncated join."""

    #: (side, faults, pattern) -> digest per orientation, in
    #: ``(flip_x, flip_y)`` order FF, FT, TF, TT.
    DIGESTS = {
        (64, 40, "uniform"): (
            "8e621909ffc67bda", "968f96d9f5957c8a", "32874a3ca72f8544", "e0077d4a7aee5494",
        ),
        (200, 400, "uniform"): (
            "69cf521bfb4097b9", "887ba4f723e249b1", "630a73fe9ad30802", "bb65befe564a976d",
        ),
        (64, 200, "clustered"): (
            "3f6b7bcf00367d1d", "1a76a0afd0cd9fa2", "74ed5d99e640ffcf", "319c3c40205865ed",
        ),
    }

    @pytest.mark.parametrize("side, count, pattern", sorted(DIGESTS))
    def test_annotations_match_frozen_digest(self, side, count, pattern):
        bmap = BoundaryMap.for_blocks(_seeded_blocks(side, count, pattern))
        digests = tuple(
            _annotation_digest(bmap.canonical(flip_x, flip_y))
            for flip_x in (False, True)
            for flip_y in (False, True)
        )
        assert digests == self.DIGESTS[(side, count, pattern)]
