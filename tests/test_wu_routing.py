"""Integration tests for Wu's protocol: the Theorem 1/1a/1b/1c guarantees.

These are the paper's central correctness claims: with only boundary
information at the nodes, a safe source's packet is delivered minimally;
the extensions' two-phase routings deliver with the promised lengths.
"""

import hashlib

import numpy as np
import pytest

from repro.core.boundaries import BoundaryMap, CanonicalBoundaryMap
from repro.core.conditions import DecisionKind, is_safe
from repro.core.extensions import (
    decision_cascade,
    extension1_decision,
    extension2_decision,
    extension3_decision,
)
from repro.core.pivots import recursive_center_pivots
from repro.core.routing import WuRouter, route_with_decision
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.frames import Frame
from repro.mesh.geometry import Direction, Rect
from repro.mesh.topology import Mesh2D
from repro.obs import RingBufferSink, Tracer, use_tracer
from repro.routing.router import RoutingError, x_first_tie_breaker
from tests.test_boundaries import _seeded_blocks


def _setup(mesh, faults):
    blocks = build_faulty_blocks(mesh, faults)
    levels = compute_safety_levels(mesh, blocks.unusable)
    return blocks, levels, WuRouter(mesh, blocks)


class TestSingleBlockScenarios:
    def test_stays_south_for_r6_destination(self):
        mesh = Mesh2D(12, 12)
        blocks, levels, router = _setup(mesh, [(4, 4), (5, 5)])  # block [4:5, 4:5]
        source, dest = (0, 0), (9, 5)
        assert is_safe(levels, source, dest)
        path = router.route(source, dest)
        assert path.is_minimal and path.avoids(blocks.unusable)
        # All visited nodes in the block's column range stay below it.
        for x, y in path:
            if 4 <= x <= 5:
                assert y <= 3

    def test_stays_west_for_r4_destination(self):
        mesh = Mesh2D(12, 12)
        blocks, levels, router = _setup(mesh, [(4, 4), (5, 5)])
        source, dest = (0, 0), (5, 9)
        assert is_safe(levels, source, dest)
        path = router.route(source, dest)
        assert path.is_minimal and path.avoids(blocks.unusable)
        for x, y in path:
            if 4 <= y <= 5:
                assert x <= 3

    def test_x_first_tie_breaker_also_delivers(self):
        """The protocol is adaptive: any tie-breaker respects the rules."""
        mesh = Mesh2D(12, 12)
        blocks, levels, _ = _setup(mesh, [(4, 4), (5, 5)])
        router = WuRouter(mesh, blocks, tie_breaker=x_first_tie_breaker)
        for dest in [(9, 5), (5, 9), (9, 9), (3, 9), (9, 3)]:
            assert is_safe(levels, (0, 0), dest)
            path = router.route((0, 0), dest)
            assert path.is_minimal and path.avoids(blocks.unusable)

    def test_all_four_quadrants(self):
        mesh = Mesh2D(13, 13)
        blocks, levels, router = _setup(mesh, [(6, 6)])
        center = (6, 0)
        for dest in [(12, 5), (0, 5)]:
            assert is_safe(levels, center, dest)
            path = router.route(center, dest)
            assert path.is_minimal and path.avoids(blocks.unusable)
        # And from the far corner heading South-West.
        blocks2, levels2, router2 = _setup(mesh, [(6, 6), (7, 7)])
        source, dest = (12, 12), (2, 5)
        if is_safe(levels2, source, dest):
            path = router2.route(source, dest)
            assert path.is_minimal and path.avoids(blocks2.unusable)


class TestTheorem1Randomized:
    """Safe source => Wu's protocol delivers minimally (both tie-breakers,
    randomized fault patterns, all quadrants)."""

    @pytest.mark.parametrize("num_faults", [10, 30, 60])
    def test_safe_pairs_route_minimally(self, rng, num_faults):
        mesh = Mesh2D(30, 30)
        for _ in range(4):
            faults = uniform_faults(mesh, num_faults, rng)
            blocks, levels, router = _setup(mesh, faults)
            routed = 0
            for _ in range(150):
                source = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                dest = (int(rng.integers(0, 30)), int(rng.integers(0, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                if not is_safe(levels, source, dest):
                    continue
                path = router.route(source, dest)
                assert path.is_minimal
                assert path.avoids(blocks.unusable)
                routed += 1
            assert routed > 0


class TestTwoPhaseRoutings:
    @pytest.mark.parametrize("num_faults", [20, 50])
    def test_extension_decisions_are_routable(self, rng, num_faults):
        mesh = Mesh2D(30, 30)
        region = Rect(15, 29, 15, 29)
        pivots = recursive_center_pivots(region, 3)
        for _ in range(3):
            faults = uniform_faults(mesh, num_faults, rng)
            blocks, levels, router = _setup(mesh, faults)
            counts = {kind: 0 for kind in DecisionKind}
            for _ in range(120):
                source = (int(rng.integers(0, 15)), int(rng.integers(0, 15)))
                dest = (int(rng.integers(15, 30)), int(rng.integers(15, 30)))
                if blocks.is_unusable(source) or blocks.is_unusable(dest):
                    continue
                for decision in (
                    extension1_decision(mesh, levels, blocks.unusable, source, dest),
                    extension2_decision(mesh, levels, source, dest, 1),
                    extension3_decision(mesh, levels, blocks.unusable, source, dest, pivots),
                ):
                    if decision.kind is DecisionKind.UNSAFE:
                        continue
                    path = route_with_decision(router, decision, blocked=blocks.unusable)
                    counts[decision.kind] += 1
                    if decision.ensures_minimal:
                        assert path.is_minimal
                    else:
                        assert path.is_sub_minimal
            # The randomized scenarios must actually exercise the machinery.
            assert counts[DecisionKind.SOURCE_SAFE] > 0

    def test_unsafe_decision_rejected(self):
        mesh = Mesh2D(10, 10)
        blocks, levels, router = _setup(mesh, [(5, 0), (0, 5)])
        decision = extension1_decision(mesh, levels, blocks.unusable, (0, 0), (9, 9))
        if decision.kind is DecisionKind.UNSAFE:
            with pytest.raises(RoutingError):
                route_with_decision(router, decision)


class TestSharedBoundaryMap:
    def test_install_replaces_the_derived_table(self):
        """A canonical map installed for one orientation drops the stay-on
        table derived from the traced one; the others keep theirs."""
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])
        bmap = BoundaryMap.for_blocks(blocks)
        WuRouter(mesh, blocks, boundary_map=bmap).route((0, 0), (9, 5))
        traced, other = bmap.stay_on(False, False), bmap.stay_on(True, True)
        assert traced  # the leg read its stay-on rules from the table
        installed = CanonicalBoundaryMap(mesh, bmap.canonical(False, False).rects, {})
        bmap.install(False, False, installed)
        assert bmap.stay_on(False, False) is not traced
        assert bmap.stay_on(False, False).canonical is installed
        assert bmap.stay_on(True, True) is other
        # A North-first tie-break climbs from L1 into the pocket West of
        # the block unless the stay-on rule forbids it: the traced map
        # delivers, the installed empty one is walled in.
        def north_first(current, dest, candidates):
            return candidates[-1]

        source, dest = (0, 3), (6, 5)
        assert WuRouter(mesh, blocks, tie_breaker=north_first).route(source, dest).is_minimal
        with pytest.raises(RoutingError):
            WuRouter(mesh, blocks, boundary_map=bmap, tie_breaker=north_first).route(source, dest)

    def test_router_accepts_prebuilt_map(self):
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])
        bmap = BoundaryMap.for_blocks(blocks)
        router = WuRouter(mesh, blocks, boundary_map=bmap)
        assert router.boundaries is bmap
        path = router.route((0, 0), (9, 5))
        assert path.is_minimal


def _frozen_witness_legs(side, count, pattern):
    """Every distinct non-unsafe cascade decision for 300 seeded pairs,
    routed: ``(decision, path or None, legs)``.  ``legs`` are the
    ``(start, end, nodes)`` spans that ran Wu's protocol."""
    blocks = _seeded_blocks(side, count, pattern)
    mesh = blocks.mesh
    levels = compute_safety_levels(mesh, blocks.unusable)
    router = WuRouter(mesh, blocks)
    rng = np.random.default_rng(43)
    out = []
    for _ in range(300):
        source = tuple(int(v) for v in rng.integers(0, side, 2))
        dest = tuple(int(v) for v in rng.integers(0, side, 2))
        if blocks.unusable[source] or blocks.unusable[dest]:
            continue
        seen = set()
        for _, decision in decision_cascade(mesh, levels, blocks.unusable, source, dest):
            key = (decision.kind, decision.via)
            if decision.kind is DecisionKind.UNSAFE or key in seen:
                continue
            seen.add(key)
            try:
                path = route_with_decision(router, decision, blocked=blocks.unusable)
            except RoutingError:
                out.append((decision, None, []))
                continue
            nodes = list(path.nodes)
            if decision.kind is DecisionKind.SOURCE_SAFE:
                legs = [(source, dest, nodes)]
            elif decision.kind in (DecisionKind.AXIS_NODE_SAFE, DecisionKind.PIVOT_SAFE):
                split = nodes.index(decision.via)
                legs = [(source, decision.via, nodes[: split + 1]),
                        (decision.via, dest, nodes[split:])]
            else:  # one neighbour hop, then Wu's protocol from the neighbour
                legs = [(decision.via, dest, nodes[1:])]
            out.append((decision, path, legs))
    return blocks, router, out


class TestFrozenWitnesses:
    """Routed witnesses pinned to digests taken before the per-hop rule
    moved onto a derived table: seeded pairs in all four quadrants, every
    decision kind, on the three :class:`TestFrozenAnnotations` patterns."""

    #: (side, faults, pattern) -> {decision kind value: digest}.
    DIGESTS = {
        (64, 40, "uniform"): {
            "axis-node-safe": "b119f3cc7a29780f",
            "pivot-safe": "7607917b934e515b",
            "preferred-neighbor-safe": "7bf04d46efdef663",
            "source-safe": "ecbcbf9aa36ee2e1",
            "spare-neighbor-safe": "fd09386903494183",
        },
        (200, 400, "uniform"): {
            "axis-node-safe": "3b5fcbd08721e34f",
            "pivot-safe": "94118573bdd630c7",
            "preferred-neighbor-safe": "7e6ec691f70d0d63",
            "source-safe": "b59af5c539feadfc",
            "spare-neighbor-safe": "2ff6ae8ead388241",
        },
        (64, 200, "clustered"): {
            "axis-node-safe": "bdd4b9a8b6924586",
            "pivot-safe": "be78b16f7e3af7b1",
            "preferred-neighbor-safe": "b642fde67789938f",
            "source-safe": "50752442ad1d8f61",
            "spare-neighbor-safe": "f58bb50c76343c4f",
        },
    }

    CASES = [(64, 40, "uniform"), (200, 400, "uniform"), (64, 200, "clustered")]

    @pytest.mark.parametrize("side, count, pattern", CASES)
    def test_paths_match_frozen_digest(self, side, count, pattern):
        _, _, routed = _frozen_witness_legs(side, count, pattern)
        entries = {}
        quadrants = set()
        for decision, path, _ in routed:
            source, dest = decision.source, decision.dest
            quadrants.add((dest[0] > source[0], dest[0] < source[0],
                           dest[1] > source[1], dest[1] < source[1]))
            nodes = path.nodes if path is not None else "error"
            entries.setdefault(decision.kind.value, []).append(
                (source, dest, decision.via, nodes)
            )
        assert set(entries) == {k.value for k in DecisionKind} - {"unsafe"}
        for east in (True, False):
            for north in (True, False):
                assert (east, not east, north, not north) in quadrants
        digests = {
            kind: hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
            for kind, rows in sorted(entries.items())
        }
        assert digests == self.DIGESTS[(side, count, pattern)]

    @pytest.mark.parametrize("side, count, pattern", CASES)
    def test_next_hop_agrees_with_route(self, side, count, pattern):
        _, router, routed = _frozen_witness_legs(side, count, pattern)
        for _, _, legs in routed:
            for _, end, nodes in legs:
                for here, there in zip(nodes, nodes[1:]):
                    assert router.next_hop(here, end) == there

    @pytest.mark.parametrize("side, count, pattern", CASES)
    def test_no_hop_takes_a_forbidden_direction(self, side, count, pattern):
        """At every hop the step rule forbids exactly what the reference
        ``forbidden_directions`` forbids (read from the traced hop's
        note), and the hop taken is not among them."""
        blocks, router, routed = _frozen_witness_legs(side, count, pattern)
        bmap = BoundaryMap.for_blocks(blocks)
        n, m = blocks.mesh.n, blocks.mesh.m
        for _, _, legs in routed:
            for start, end, nodes in legs:
                ring = RingBufferSink()
                with use_tracer(Tracer(ring)):
                    router.route(start, end)
                notes = [e.data for e in ring.events if e.kind == "hop"]
                assert [note["to"] for note in notes] == nodes[1:]
                for here, there, note in zip(nodes, nodes[1:], notes):
                    flip_x, flip_y = end[0] < here[0], end[1] < here[1]
                    frame = Frame((n - 1 if flip_x else 0, m - 1 if flip_y else 0),
                                  flip_x, flip_y)
                    forbidden = bmap.canonical(flip_x, flip_y).forbidden_directions(
                        frame.to_local(here), frame.to_local(end)
                    )
                    taken = frame.to_local_direction(Direction.between(here, there))
                    assert taken not in forbidden
                    assert note.get("forbidden", []) == sorted(
                        frame.to_global_direction(d).name for d in forbidden
                    )
