"""The whole system on one scenario, distributed end to end.

Fault detection -> distributed block formation -> distributed ESL formation
-> distributed boundary distribution -> safe-condition decisions from the
formed state -> Wu's protocol routing off the *distributed* annotations ->
packets delivered as simulator messages.  No centralized computation feeds
the data path; the centralized modules only appear as cross-checks.
"""

import numpy as np
import pytest

from repro.core.boundaries import BoundaryMap, CanonicalBoundaryMap
from repro.core.conditions import is_safe
from repro.core.routing import WuRouter
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import BlockSet, build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.mesh.geometry import Rect
from repro.mesh.topology import Mesh2D
from repro.routing.packet import PacketStatus
from repro.simulator.protocols import (
    run_block_formation,
    run_boundary_distribution,
    run_safety_propagation,
)
from repro.simulator.protocols.packet_routing import run_distributed_routing


@pytest.fixture(scope="module")
def pipeline():
    """One medium scenario taken through every distributed stage."""
    mesh = Mesh2D(28, 28)
    rng = np.random.default_rng(20021)
    faults = uniform_faults(mesh, 45, rng, forbidden={mesh.center})
    while build_faulty_blocks(mesh, faults).is_unusable(mesh.center):
        faults = uniform_faults(mesh, 45, rng, forbidden={mesh.center})

    formation = run_block_formation(mesh, faults)
    # Block extents from the converged labelling (the one centralized step a
    # real system would do via a cheap perimeter wave).
    blocks = build_faulty_blocks(mesh, faults)
    assert np.array_equal(formation.unusable, blocks.unusable)

    esl = run_safety_propagation(mesh, formation.unusable)
    boundary = run_boundary_distribution(mesh, blocks.rects(), formation.unusable)
    return mesh, faults, blocks, formation, esl, boundary, rng


class TestPipelineStages:
    def test_formed_levels_match_centralized(self, pipeline):
        mesh, _, blocks, formation, esl, _, _ = pipeline
        expected = compute_safety_levels(mesh, formation.unusable)
        for node in mesh.nodes():
            if formation.unusable[node]:
                continue
            assert esl.levels.esl(node) == expected.esl(node)

    def test_formed_boundaries_match_centralized(self, pipeline):
        mesh, _, blocks, formation, _, boundary, _ = pipeline
        expected = CanonicalBoundaryMap.build(mesh, blocks.rects(), formation.unusable)
        got = {
            coord: {(t.block_index, t.line): t.toward for t in tags}
            for coord, tags in boundary.annotations.items()
        }
        want = {
            coord: {(t.block_index, t.line): t.toward for t in tags}
            for coord, tags in expected.annotations.items()
        }
        assert got == want


class TestRoutingOffDistributedState:
    def test_safe_traffic_delivered_minimally(self, pipeline):
        mesh, _, blocks, formation, esl, boundary, rng = pipeline

        # Router wired to the DISTRIBUTED annotations for quadrant I.
        bmap = BoundaryMap.for_blocks(blocks)
        bmap.install(
            False,
            False,
            CanonicalBoundaryMap(mesh, blocks.rects(), boundary.annotations),
        )
        router = WuRouter(mesh, blocks, boundary_map=bmap)

        source = mesh.center
        region = Rect(source[0], mesh.n - 1, source[1], mesh.m - 1)
        traffic = []
        attempts = 0
        while len(traffic) < 30 and attempts < 3000:
            attempts += 1
            dest = (
                int(rng.integers(region.xmin, region.xmax + 1)),
                int(rng.integers(region.ymin, region.ymax + 1)),
            )
            if dest == source or formation.unusable[dest]:
                continue
            # Decisions from the DISTRIBUTED safety levels.
            if is_safe(esl.levels, source, dest):
                traffic.append((source, dest))
        assert traffic

        unusable_set = {
            (int(x), int(y)) for x, y in zip(*np.nonzero(formation.unusable))
        }
        run = run_distributed_routing(mesh, router, unusable_set, traffic)
        assert run.delivered == len(traffic)
        for packet in run.packets:
            assert packet.status is PacketStatus.DELIVERED
            assert packet.hops == mesh.distance(packet.source, packet.dest)
            # And the decision was sound per the oracle.
            assert minimal_path_exists(formation.unusable, packet.source, packet.dest)
