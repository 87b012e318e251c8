"""Systematic four-quadrant coverage for every decision procedure and the
router: the library is written in the canonical frame, so each quadrant
exercises a different reflection path."""

import numpy as np
import pytest

from repro.core.conditions import DecisionKind, is_safe
from repro.core.extensions import (
    extension1_decision,
    extension2_decision,
    extension3_decision,
)
from repro.core.routing import WuRouter, route_with_decision
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.mesh.frames import Frame
from repro.mesh.geometry import Quadrant
from repro.mesh.topology import Mesh2D

SIDE = 26
CENTER = (13, 13)

#: One representative destination region per quadrant (relative to CENTER).
QUADRANT_REGIONS = {
    Quadrant.I: ((14, 25), (14, 25)),
    Quadrant.II: ((0, 12), (14, 25)),
    Quadrant.III: ((0, 12), (0, 12)),
    Quadrant.IV: ((14, 25), (0, 12)),
}


@pytest.fixture(scope="module")
def scenario():
    mesh = Mesh2D(SIDE, SIDE)
    rng = np.random.default_rng(777)
    faults = uniform_faults(mesh, 30, rng, forbidden={CENTER})
    while build_faulty_blocks(mesh, faults).is_unusable(CENTER):
        faults = uniform_faults(mesh, 30, rng, forbidden={CENTER})
    blocks = build_faulty_blocks(mesh, faults)
    levels = compute_safety_levels(mesh, blocks.unusable)
    return mesh, blocks, levels, np.random.default_rng(778)


def _random_dest(rng, quadrant, blocks):
    (xlo, xhi), (ylo, yhi) = QUADRANT_REGIONS[quadrant]
    while True:
        dest = (int(rng.integers(xlo, xhi + 1)), int(rng.integers(ylo, yhi + 1)))
        if not blocks.is_unusable(dest):
            return dest


@pytest.mark.parametrize("quadrant", list(Quadrant))
class TestPerQuadrant:
    def test_frame_places_dest_in_quadrant_one(self, scenario, quadrant):
        _, blocks, _, rng = scenario
        for _ in range(20):
            dest = _random_dest(rng, quadrant, blocks)
            frame = Frame.for_pair(CENTER, dest)
            assert frame.quadrant is quadrant
            lx, ly = frame.to_local(dest)
            assert lx >= 0 and ly >= 0

    def test_safe_condition_sound(self, scenario, quadrant):
        mesh, blocks, levels, rng = scenario
        hits = 0
        for _ in range(60):
            dest = _random_dest(rng, quadrant, blocks)
            if is_safe(levels, CENTER, dest):
                hits += 1
                assert minimal_path_exists(blocks.unusable, CENTER, dest)
        assert hits > 0

    def test_wu_routing_delivers(self, scenario, quadrant):
        mesh, blocks, levels, rng = scenario
        router = WuRouter(mesh, blocks)
        routed = 0
        for _ in range(40):
            dest = _random_dest(rng, quadrant, blocks)
            if not is_safe(levels, CENTER, dest):
                continue
            path = router.route(CENTER, dest)
            assert path.is_minimal and path.avoids(blocks.unusable)
            routed += 1
        assert routed > 0

    def test_extension1_sound_and_routable(self, scenario, quadrant):
        mesh, blocks, levels, rng = scenario
        router = WuRouter(mesh, blocks)
        for _ in range(40):
            dest = _random_dest(rng, quadrant, blocks)
            decision = extension1_decision(mesh, levels, blocks.unusable, CENTER, dest)
            if decision.kind is DecisionKind.UNSAFE:
                continue
            path = route_with_decision(router, decision, blocked=blocks.unusable)
            if decision.ensures_minimal:
                assert path.is_minimal
            else:
                assert path.is_sub_minimal

    def test_extension2_sound(self, scenario, quadrant):
        mesh, blocks, levels, rng = scenario
        for _ in range(40):
            dest = _random_dest(rng, quadrant, blocks)
            decision = extension2_decision(mesh, levels, CENTER, dest, 1)
            if decision.kind is not DecisionKind.UNSAFE:
                assert minimal_path_exists(blocks.unusable, CENTER, dest)

    def test_extension3_sound(self, scenario, quadrant):
        mesh, blocks, levels, rng = scenario
        (xlo, xhi), (ylo, yhi) = QUADRANT_REGIONS[quadrant]
        from repro.core.pivots import recursive_center_pivots
        from repro.mesh.geometry import Rect

        pivots = recursive_center_pivots(Rect(xlo, xhi, ylo, yhi), 2)
        for _ in range(40):
            dest = _random_dest(rng, quadrant, blocks)
            decision = extension3_decision(
                mesh, levels, blocks.unusable, CENTER, dest, pivots
            )
            if decision.kind is not DecisionKind.UNSAFE:
                assert minimal_path_exists(blocks.unusable, CENTER, dest)


class TestBlockHelpers:
    def test_adjacent_and_corner_nodes(self):
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])  # block [4:5, 4:5]
        block = blocks.blocks[0]
        adjacent = set(block.adjacent_nodes(mesh))
        assert adjacent == {
            (4, 3), (5, 3), (4, 6), (5, 6), (3, 4), (3, 5), (6, 4), (6, 5),
        }
        corners = set(block.corner_nodes(mesh))
        assert corners == {(3, 3), (3, 6), (6, 3), (6, 6)}

    def test_corner_nodes_clipped_at_mesh_edge(self):
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(0, 0)])
        block = blocks.blocks[0]
        assert set(block.corner_nodes(mesh)) == {(1, 1)}
        assert set(block.adjacent_nodes(mesh)) == {(1, 0), (0, 1)}
