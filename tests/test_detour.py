"""Tests for the non-minimal XY-with-detours baseline router."""

import pytest

from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.geometry import Direction, manhattan_distance
from repro.mesh.topology import Mesh2D
from repro.routing.detour import DetourRouter
from repro.routing.oracle import shortest_path_bfs
from repro.routing.router import RoutingError


def _router(mesh, faults):
    blocks = build_faulty_blocks(mesh, faults)
    return DetourRouter(mesh, blocks), blocks


class TestBasics:
    def test_fault_free_is_pure_xy(self):
        mesh = Mesh2D(10, 10)
        router, _ = _router(mesh, [])
        path = router.route((1, 1), (7, 5))
        assert path.is_minimal
        # XY: all East hops first, then all North hops.
        directions = [Direction.between(a, b).name for a, b in zip(path.nodes, path.nodes[1:])]
        assert directions == ["EAST"] * 6 + ["NORTH"] * 4

    def test_detours_around_single_block(self):
        mesh = Mesh2D(12, 12)
        router, blocks = _router(mesh, [(5, 4), (6, 5)])  # block [5:6, 4:5]
        # Straight-East route at the block's row must round the block.
        path = router.route((1, 4), (10, 4))
        assert path.dest == (10, 4)
        assert path.avoids(blocks.unusable)
        assert path.hops == 9 + 2 * 2  # up over the block and back down

    def test_detour_side_prefers_destination(self):
        mesh = Mesh2D(12, 12)
        router, _ = _router(mesh, [(5, 4), (6, 5)])
        # Destination further North: round the block over the top.
        up = router.route((1, 4), (10, 6))
        assert all(y >= 4 for _, y in up)
        # Destination further South: round underneath.
        down = router.route((1, 5), (10, 3))
        assert all(y <= 5 for _, y in down)

    def test_vertical_phase_detour(self):
        mesh = Mesh2D(12, 12)
        router, blocks = _router(mesh, [(5, 5), (6, 6)])
        path = router.route((5, 1), (5, 10))
        assert path.dest == (5, 10)
        assert path.avoids(blocks.unusable)
        assert path.hops == 9 + 2 * 2

    def test_endpoint_in_block_rejected(self):
        mesh = Mesh2D(10, 10)
        router, _ = _router(mesh, [(4, 4), (5, 5)])
        with pytest.raises(RoutingError):
            router.route((4, 4), (9, 9))
        with pytest.raises(RoutingError):
            router.route((0, 0), (5, 4))

    def test_edge_spanning_block_fails_cleanly(self):
        """A block touching both horizontal edges cannot be rounded."""
        mesh = Mesh2D(8, 8)
        faults = [(4, y) for y in range(8)]
        router, _ = _router(mesh, faults)
        with pytest.raises(RoutingError):
            router.route((1, 4), (7, 4))


class TestRandomizedDelivery:
    @pytest.mark.parametrize("num_faults", [10, 30, 60])
    def test_delivers_when_blocks_avoid_edges(self, rng, num_faults):
        """With all blocks interior, every free pair is deliverable, and the
        hop count never beats BFS (the true shortest path)."""
        mesh = Mesh2D(30, 30)
        attempts = 0
        while attempts < 5:
            faults = uniform_faults(mesh, num_faults, rng)
            blocks = build_faulty_blocks(mesh, faults)
            if any(
                b.rect.xmin == 0 or b.rect.ymin == 0
                or b.rect.xmax == 29 or b.rect.ymax == 29
                for b in blocks
            ):
                continue  # resample: edge blocks are the model's known gap
            attempts += 1
            router = DetourRouter(mesh, blocks)
            for _ in range(40):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                path = router.route(source, dest)
                assert path.dest == dest
                assert path.avoids(blocks.unusable)
                shortest = shortest_path_bfs(mesh, blocks.unusable, source, dest)
                assert shortest is not None
                assert path.hops >= shortest.hops
                # Detours come in pairs of extra hops: parity is preserved.
                assert (path.hops - manhattan_distance(source, dest)) % 2 == 0

    def test_stretch_is_bounded_by_block_perimeters(self, rng):
        """Each rounded block adds at most its half-perimeter twice."""
        mesh = Mesh2D(30, 30)
        faults = uniform_faults(mesh, 25, rng)
        blocks = build_faulty_blocks(mesh, faults)
        router = DetourRouter(mesh, blocks)
        budget = sum(2 * (b.rect.width + b.rect.height + 2) for b in blocks)
        for _ in range(60):
            source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
            dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
            if blocks.is_unusable(source) or blocks.is_unusable(dest):
                continue
            try:
                path = router.route(source, dest)
            except RoutingError:
                continue  # edge-touching block on the way
            assert path.hops <= manhattan_distance(source, dest) + budget
