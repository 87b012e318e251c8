"""Unit tests for repro.mesh.topology."""

import pytest

from repro.mesh.geometry import Direction, Rect
from repro.mesh.topology import Mesh2D


class TestConstruction:
    def test_dimensions(self):
        mesh = Mesh2D(7, 5)
        assert mesh.size == 35
        assert mesh.bounds == Rect(0, 6, 0, 4)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Mesh2D(0, 5)
        with pytest.raises(ValueError):
            Mesh2D(5, -1)

    def test_center(self):
        assert Mesh2D(200, 200).center == (100, 100)
        assert Mesh2D(5, 5).center == (2, 2)


class TestBoundsAndIndexing:
    def test_in_bounds(self):
        mesh = Mesh2D(4, 3)
        assert mesh.in_bounds((0, 0))
        assert mesh.in_bounds((3, 2))
        assert not mesh.in_bounds((4, 0))
        assert not mesh.in_bounds((0, 3))
        assert not mesh.in_bounds((-1, 0))

    def test_require_in_bounds(self):
        mesh = Mesh2D(4, 3)
        with pytest.raises(ValueError):
            mesh.require_in_bounds((4, 0))

    def test_index_roundtrip(self):
        mesh = Mesh2D(6, 4)
        for index, node in enumerate(mesh.nodes()):
            assert node == divmod(index, mesh.m)
        assert len(list(mesh.nodes())) == mesh.size


class TestAdjacency:
    def test_interior_degree_four(self):
        mesh = Mesh2D(5, 5)
        assert len(mesh.neighbors((2, 2))) == 4

    def test_corner_degree_two(self):
        mesh = Mesh2D(5, 5)
        assert set(mesh.neighbors((0, 0))) == {(1, 0), (0, 1)}

    def test_edge_degree_three(self):
        mesh = Mesh2D(5, 5)
        assert len(mesh.neighbors((0, 2))) == 3
        assert len(mesh.neighbors((2, 4))) == 3

    def test_neighbor_direction(self):
        mesh = Mesh2D(5, 5)
        assert mesh.neighbor((2, 2), Direction.EAST) == (3, 2)
        assert mesh.neighbor((4, 2), Direction.EAST) is None

    def test_neighbor_items_cover_all_directions(self):
        mesh = Mesh2D(5, 5)
        items = dict(mesh.neighbor_items((2, 2)))
        assert items == {
            Direction.EAST: (3, 2),
            Direction.WEST: (1, 2),
            Direction.NORTH: (2, 3),
            Direction.SOUTH: (2, 1),
        }

    def test_are_adjacent(self):
        mesh = Mesh2D(5, 5)
        assert (1, 2) in mesh.neighbors((1, 1))
        assert (2, 2) not in mesh.neighbors((1, 1))
        assert (1, 1) not in mesh.neighbors((1, 1))


class TestPreferredSpare:
    """The paper's preferred/spare neighbour classification (Sec. 2)."""

    def test_quadrant_one_preferred(self):
        mesh = Mesh2D(10, 10)
        dirs = mesh.preferred_directions((3, 3), (7, 8))
        assert set(dirs) == {Direction.EAST, Direction.NORTH}

    def test_straight_line_single_preferred(self):
        mesh = Mesh2D(10, 10)
        assert mesh.preferred_directions((3, 3), (9, 3)) == [Direction.EAST]
        assert mesh.preferred_directions((3, 3), (3, 0)) == [Direction.SOUTH]

    def test_no_preferred_at_destination(self):
        mesh = Mesh2D(10, 10)
        assert mesh.preferred_directions((3, 3), (3, 3)) == []

    def test_spare_complements_preferred(self):
        mesh = Mesh2D(10, 10)
        current, dest = (3, 3), (7, 8)
        preferred = set(mesh.preferred_directions(current, dest))
        spare = set(mesh.spare_directions(current, dest))
        assert preferred & spare == set()
        assert preferred | spare == set(Direction)  # interior node

    def test_spare_respects_mesh_edge(self):
        mesh = Mesh2D(10, 10)
        spare = mesh.spare_directions((0, 0), (5, 5))
        assert spare == []  # West and South fall off the mesh

    def test_preferred_neighbors_reduce_distance(self):
        mesh = Mesh2D(10, 10)
        current, dest = (4, 4), (8, 1)
        for neighbor in mesh.preferred_neighbors(current, dest):
            assert mesh.distance(neighbor, dest) == mesh.distance(current, dest) - 1
        for neighbor in mesh.spare_neighbors(current, dest):
            assert mesh.distance(neighbor, dest) == mesh.distance(current, dest) + 1
