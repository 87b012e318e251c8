"""Unit tests for repro.mesh.frames."""

import pytest

from repro.mesh.frames import Frame
from repro.mesh.geometry import Direction, Quadrant, Rect


class TestForPair:
    @pytest.mark.parametrize(
        "dest, quadrant",
        [
            ((8, 9), Quadrant.I),
            ((2, 9), Quadrant.II),
            ((2, 1), Quadrant.III),
            ((8, 1), Quadrant.IV),
        ],
    )
    def test_destination_lands_in_local_quadrant_one(self, dest, quadrant):
        source = (5, 5)
        frame = Frame.for_pair(source, dest)
        assert frame.quadrant is quadrant
        lx, ly = frame.to_local(dest)
        assert lx >= 0 and ly >= 0
        assert frame.to_local(source) == (0, 0)

    def test_local_offsets_preserve_distance(self):
        source, dest = (5, 5), (2, 9)
        frame = Frame.for_pair(source, dest)
        lx, ly = frame.to_local(dest)
        assert lx + ly == abs(dest[0] - source[0]) + abs(dest[1] - source[1])


class TestRoundTrips:
    @pytest.mark.parametrize("flip_x", [False, True])
    @pytest.mark.parametrize("flip_y", [False, True])
    def test_coord_roundtrip(self, flip_x, flip_y):
        frame = Frame(origin=(7, 3), flip_x=flip_x, flip_y=flip_y)
        for coord in [(0, 0), (7, 3), (12, 9), (3, 15)]:
            assert frame.to_global(frame.to_local(coord)) == coord
            assert frame.to_local(frame.to_global(coord)) == coord

    @pytest.mark.parametrize("flip_x", [False, True])
    @pytest.mark.parametrize("flip_y", [False, True])
    def test_rect_roundtrip(self, flip_x, flip_y):
        frame = Frame(origin=(7, 3), flip_x=flip_x, flip_y=flip_y)
        rect = Rect(2, 6, 3, 6)
        local = frame.to_local_rect(rect)
        corners = [(local.xmin, local.ymin), (local.xmax, local.ymax)]
        assert Rect.bounding([frame.to_global(c) for c in corners]) == rect

    def test_direction_mapping_is_involution(self):
        frame = Frame(origin=(0, 0), flip_x=True, flip_y=True)
        for direction in Direction:
            assert frame.to_global_direction(frame.to_local_direction(direction)) is direction


class TestSemantics:
    def test_flip_x_swaps_east_west(self):
        frame = Frame(origin=(0, 0), flip_x=True)
        assert frame.to_local_direction(Direction.EAST) is Direction.WEST
        assert frame.to_local_direction(Direction.NORTH) is Direction.NORTH

    def test_esl_permutation_matches_direction_mapping(self):
        # Moving "local East" must read the level of the matching global
        # direction: with flip_x, local East is global West.
        esl = (10, 20, 30, 40)  # (E, S, W, N)
        frame = Frame(origin=(0, 0), flip_x=True)
        assert frame.to_local_esl(esl) == (30, 20, 10, 40)
        frame = Frame(origin=(0, 0), flip_y=True)
        assert frame.to_local_esl(esl) == (10, 40, 30, 20)
        frame = Frame(origin=(0, 0), flip_x=True, flip_y=True)
        assert frame.to_local_esl(esl) == (30, 40, 10, 20)

    def test_rect_reflection_preserves_shape(self):
        frame = Frame(origin=(5, 5), flip_x=True, flip_y=True)
        rect = Rect(7, 9, 1, 2)
        local = frame.to_local_rect(rect)
        assert (local.width, local.height) == (rect.width, rect.height)

    def test_step_in_local_frame_matches_global_step(self):
        # Stepping local-East from a local coordinate corresponds to stepping
        # the mapped global direction from the global coordinate.
        frame = Frame(origin=(5, 5), flip_x=True)
        node = (3, 7)
        local = frame.to_local(node)
        stepped_local = Direction.EAST.step(local)
        global_dir = frame.to_global_direction(Direction.EAST)
        assert frame.to_global(stepped_local) == global_dir.step(node)
