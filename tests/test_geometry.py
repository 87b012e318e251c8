"""Unit tests for repro.mesh.geometry."""

import copy
import pickle

import pytest

from repro.mesh.frames import Frame
from repro.mesh.geometry import (
    ESL_ORDER,
    Direction,
    Quadrant,
    Rect,
    chebyshev_distance,
    manhattan_distance,
)


class TestDirection:
    def test_deltas_match_orientation(self):
        assert (Direction.EAST.dx, Direction.EAST.dy) == (1, 0)
        assert (Direction.WEST.dx, Direction.WEST.dy) == (-1, 0)
        assert (Direction.NORTH.dx, Direction.NORTH.dy) == (0, 1)
        assert (Direction.SOUTH.dx, Direction.SOUTH.dy) == (0, -1)

    def test_opposites(self):
        for direction in Direction:
            assert direction.opposite.opposite is direction
            assert direction.opposite.dx == -direction.dx
            assert direction.opposite.dy == -direction.dy

    def test_step(self):
        assert Direction.EAST.step((3, 4)) == (4, 4)
        assert Direction.NORTH.step((3, 4), hops=5) == (3, 9)
        assert Direction.SOUTH.step((3, 4), hops=2) == (3, 2)

    def test_horizontal_vertical_partition(self):
        horizontal = {d for d in Direction if d.is_horizontal}
        vertical = {d for d in Direction if d.is_vertical}
        assert horizontal == {Direction.EAST, Direction.WEST}
        assert vertical == {Direction.NORTH, Direction.SOUTH}

    def test_between_adjacent(self):
        assert Direction.between((2, 2), (3, 2)) is Direction.EAST
        assert Direction.between((2, 2), (2, 1)) is Direction.SOUTH

    def test_between_non_adjacent_raises(self):
        with pytest.raises(ValueError):
            Direction.between((0, 0), (1, 1))
        with pytest.raises(ValueError):
            Direction.between((0, 0), (0, 0))



class TestDirectionFixedAttributes:
    """``Direction``'s per-member attributes are set once at class
    creation; they must equal what the enum value and the former lookup
    tables derived."""

    #: The former ``geometry._OPPOSITES`` table.
    OPPOSITES = {
        Direction.EAST: Direction.WEST,
        Direction.WEST: Direction.EAST,
        Direction.NORTH: Direction.SOUTH,
        Direction.SOUTH: Direction.NORTH,
    }

    def test_attributes_equal_the_old_derivations(self):
        # The former ``network._DIR_INDEX``: definition order.
        old_index = {d: i for i, d in enumerate(Direction)}
        for direction in Direction:
            assert direction.dx == direction.value[0]
            assert direction.dy == direction.value[1]
            assert direction.is_horizontal == (direction.value[0] != 0)
            assert direction.is_vertical == (direction.value[1] != 0)
            assert direction.opposite is self.OPPOSITES[direction]
            assert direction.index == old_index[direction]

    def test_esl_order_is_definition_order(self):
        assert tuple(Direction) == ESL_ORDER
        assert [d.index for d in ESL_ORDER] == [0, 1, 2, 3]

    def test_members_survive_pickle_and_copy_as_themselves(self):
        for direction in Direction:
            assert pickle.loads(pickle.dumps(direction)) is direction
            assert copy.deepcopy(direction) is direction
            assert copy.copy(direction) is direction
            assert Direction(direction.value) is direction
            assert Direction[direction.name] is direction

    def test_identity_hash_and_equality(self):
        table = {d: d.name for d in Direction}
        assert [table[d] for d in ESL_ORDER] == ["EAST", "SOUTH", "WEST", "NORTH"]
        assert Direction.EAST != Direction.WEST
        assert Direction.EAST == pickle.loads(pickle.dumps(Direction.EAST))


def _quadrant(source, dest):
    return Frame.for_pair(source, dest).quadrant


class TestQuadrant:
    def test_quadrant_of_all_sectors(self):
        source = (5, 5)
        assert _quadrant(source, (8, 9)) is Quadrant.I
        assert _quadrant(source, (2, 9)) is Quadrant.II
        assert _quadrant(source, (2, 1)) is Quadrant.III
        assert _quadrant(source, (8, 1)) is Quadrant.IV

    def test_axis_ties_fold_toward_quadrant_one(self):
        source = (5, 5)
        assert _quadrant(source, (8, 5)) is Quadrant.I  # due East
        assert _quadrant(source, (5, 9)) is Quadrant.I  # due North
        assert _quadrant(source, (5, 5)) is Quadrant.I  # self


class TestDistances:
    def test_manhattan(self):
        assert manhattan_distance((0, 0), (3, 4)) == 7
        assert manhattan_distance((3, 4), (0, 0)) == 7
        assert manhattan_distance((2, 2), (2, 2)) == 0

    def test_chebyshev(self):
        assert chebyshev_distance((0, 0), (3, 4)) == 4
        assert chebyshev_distance((1, 1), (2, 2)) == 1


class TestRect:
    def test_paper_notation_roundtrip(self):
        rect = Rect(2, 6, 3, 6)
        assert str(rect) == "[2:6, 3:6]"
        assert rect.width == 5 and rect.height == 4 and rect.area == 20

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Rect(3, 2, 0, 0)
        with pytest.raises(ValueError):
            Rect(0, 0, 5, 4)

    def test_single_node_rect(self):
        rect = Rect(4, 4, 7, 7)
        assert rect.area == 1
        assert rect.contains((4, 7))
        assert not rect.contains((4, 8))

    def test_bounding(self):
        rect = Rect.bounding([(2, 5), (6, 3), (3, 6)])
        assert rect == Rect(2, 6, 3, 6)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.bounding([])

    def test_intersects_and_touches(self):
        a = Rect(0, 2, 0, 2)
        assert a.intersects(Rect(2, 4, 2, 4))  # shares corner cell
        assert not a.intersects(Rect(3, 4, 0, 2))  # adjacent, not overlapping
        assert not a.intersects(Rect(3, 4, 3, 4))  # diagonal touch

    def test_union_and_clip(self):
        a = Rect(0, 2, 0, 2)
        b = Rect(1, 4, 1, 5)
        assert a.union(b) == Rect(0, 4, 0, 5)
        assert a.clip(b) == Rect(1, 2, 1, 2)
        assert a.clip(Rect(5, 6, 5, 6)) is None

    def test_coords_enumerates_area(self):
        rect = Rect(1, 2, 5, 7)
        coords = list(rect.coords())
        assert len(coords) == rect.area
        assert set(coords) == {(x, y) for x in (1, 2) for y in (5, 6, 7)}

    def test_spans(self):
        rect = Rect(2, 6, 3, 6)
        assert rect.column_range() == range(2, 7)
        assert rect.row_range() == range(3, 7)

    def test_ordering_is_total(self):
        rects = [Rect(1, 2, 1, 2), Rect(0, 9, 0, 9), Rect(0, 1, 5, 6)]
        assert sorted(rects)[0] == Rect(0, 1, 5, 6)
