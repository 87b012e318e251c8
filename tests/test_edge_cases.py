"""Edge-case coverage across modules: degenerate meshes, boundary rows,
empty workloads, exhausted budgets -- the inputs a user will eventually
feed the library by accident."""

import numpy as np
import pytest

from repro.core.boundaries import BoundaryMap
from repro.core.conditions import is_safe
from repro.core.routing import WuRouter, route_with_decision
from repro.core.conditions import Decision, DecisionKind
from repro.core.safety import UNBOUNDED, compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import minimal_path_exists
from repro.mesh.geometry import Rect
from repro.mesh.topology import Mesh2D
from repro.routing.router import GreedyAdaptiveRouter, RoutingError
from repro.simulator import traffic
from repro.simulator.engine import Engine
from repro.simulator.traffic import PathPolicy, TrafficStats, run_workload


class TestDegenerateMeshes:
    def test_one_by_one_mesh(self):
        mesh = Mesh2D(1, 1)
        assert mesh.size == 1
        assert mesh.neighbors((0, 0)) == []
        blocks = build_faulty_blocks(mesh, [])
        levels = compute_safety_levels(mesh, blocks.unusable)
        assert is_safe(levels, (0, 0), (0, 0))

    def test_linear_array(self):
        """A 1xN mesh degenerates to a line; everything still works."""
        mesh = Mesh2D(8, 1)
        blocks = build_faulty_blocks(mesh, [(4, 0)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        assert levels.esl((0, 0)) == (3, UNBOUNDED, UNBOUNDED, UNBOUNDED)
        assert is_safe(levels, (0, 0), (3, 0))
        assert not is_safe(levels, (0, 0), (5, 0))
        assert not minimal_path_exists(blocks.unusable, (0, 0), (5, 0))
        path = WuRouter(mesh, blocks).route((0, 0), (3, 0))
        assert path.is_minimal

    def test_fully_faulty_row_splits_mesh(self):
        mesh = Mesh2D(6, 6)
        blocks = build_faulty_blocks(mesh, [(x, 3) for x in range(6)])
        assert not minimal_path_exists(blocks.unusable, (0, 0), (5, 5))
        levels = compute_safety_levels(mesh, blocks.unusable)
        assert not is_safe(levels, (0, 0), (5, 5))


class TestBoundaryRowScenarios:
    def test_source_adjacent_to_block(self):
        """A source directly on a block's L1/L3 lines still routes."""
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])  # block [4:5,4:5]
        levels = compute_safety_levels(mesh, blocks.unusable)
        router = WuRouter(mesh, blocks)
        for source in [(3, 3), (3, 4), (4, 3), (3, 5), (5, 3)]:
            for dest in [(9, 5), (5, 9), (9, 9)]:
                if not is_safe(levels, source, dest):
                    continue
                path = router.route(source, dest)
                assert path.is_minimal and path.avoids(blocks.unusable)

    def test_destination_adjacent_to_block(self):
        mesh = Mesh2D(12, 12)
        blocks = build_faulty_blocks(mesh, [(4, 4), (5, 5)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        router = WuRouter(mesh, blocks)
        for dest in [(6, 4), (6, 5), (4, 6), (5, 6), (3, 4), (4, 3)]:
            if is_safe(levels, (0, 0), dest):
                path = router.route((0, 0), dest)
                assert path.is_minimal and path.avoids(blocks.unusable)

    def test_block_filling_mesh_corner(self):
        mesh = Mesh2D(10, 10)
        blocks = build_faulty_blocks(mesh, [(8, 8), (9, 9)])  # block [8:9, 8:9]
        levels = compute_safety_levels(mesh, blocks.unusable)
        # The far corner is inside the block; its neighbours are reachable.
        assert is_safe(levels, (0, 0), (7, 9))
        path = WuRouter(mesh, blocks).route((0, 0), (7, 9))
        assert path.is_minimal


class TestRouterGuards:
    def test_hop_limit(self):
        mesh = Mesh2D(5, 5)

        class Circler(GreedyAdaptiveRouter):
            def next_hop(self, current, dest):  # never converges
                return (current[0], (current[1] + 1) % 5) if current[1] < 4 else (
                    current[0],
                    0,
                )

        router = Circler(mesh, np.zeros((5, 5), dtype=bool))
        with pytest.raises(RoutingError):
            router.route((0, 0), (4, 4), max_hops=10)

    def test_route_to_self_is_empty(self):
        mesh = Mesh2D(5, 5)
        router = GreedyAdaptiveRouter(mesh, np.zeros((5, 5), dtype=bool))
        path = router.route((2, 2), (2, 2))
        assert path.hops == 0

    def test_route_with_unsafe_decision_raises(self):
        mesh = Mesh2D(6, 6)
        blocks = build_faulty_blocks(mesh, [])
        decision = Decision(DecisionKind.UNSAFE, (0, 0), (3, 3))
        with pytest.raises(RoutingError):
            route_with_decision(WuRouter(mesh, blocks), decision)


class TestEngineAndChannels:
    def test_until_and_budget_compose(self):
        engine = Engine()
        for t in (1.0, 2.0, 3.0, 4.0):
            engine.schedule(t, lambda: None)
        assert engine.run(until=2.5, max_events=10) == 2
        assert engine.pending == 2

    def test_channel_str_and_down(self):
        from repro.mesh.geometry import Direction
        from repro.simulator.network import MeshNetwork
        from repro.simulator.process import NodeProcess

        sink = []

        class Sink(NodeProcess):
            def on_message(self, message):
                sink.append(message)

        engine = Engine()
        network = MeshNetwork(Mesh2D(2, 1), engine, Sink)
        channel = network.channels[((0, 0), Direction.EAST)]
        assert "up" in str(channel)
        channel.take_down()
        assert "down" in str(channel)
        assert network.send_from((0, 0), Direction.EAST, "x", None)
        assert channel.messages_dropped == 1
        engine.run()
        assert sink == []

    def test_message_str(self):
        from repro.simulator.messages import Message

        message = Message(src=(0, 0), dst=(0, 1), kind="esl", payload=3)
        assert "esl" in str(message)


class TestTrafficEdgeCases:
    def test_empty_workload(self):
        mesh = Mesh2D(4, 4)
        policy = GreedyAdaptiveRouter(mesh, np.zeros((4, 4), dtype=bool))
        stats = run_workload(mesh, policy, [])
        assert stats.offered == 0
        assert stats.delivery_rate == 0.0
        assert stats.average_latency == 0.0
        assert stats.average_stretch == 0.0

    def test_cycle_limit_drops_survivors(self, monkeypatch):
        monkeypatch.setattr(traffic, "CYCLES_PER_SIDE", 0)  # 8 cycles, 14 hops
        mesh = Mesh2D(8, 8)
        policy = GreedyAdaptiveRouter(mesh, np.zeros((8, 8), dtype=bool))
        stats = run_workload(mesh, policy, [((0, 0), (7, 7), 0)])
        assert stats.dropped == 1
        assert stats.latencies == []
        assert stats.total_cycles == 8

    def test_path_policy_route_failure_drops_at_injection(self):
        mesh = Mesh2D(8, 8)
        blocks = build_faulty_blocks(mesh, [(4, y) for y in range(8)])
        from repro.routing.detour import DetourRouter

        policy = PathPolicy(route=DetourRouter(mesh, blocks).route)
        stats = run_workload(mesh, policy, [((0, 4), (7, 4), 0)])
        assert stats.dropped == 1

    def test_path_policy_cache_reused(self):
        mesh = Mesh2D(8, 8)
        calls = []

        def fake_route(source, dest):
            calls.append((source, dest))
            from repro.routing.path import Path

            return Path.of([source, (source[0] + 1, source[1])])

        policy = PathPolicy(route=fake_route)
        policy.path_for((0, 0), (1, 0))
        policy.path_for((0, 0), (1, 0))
        assert len(calls) == 1

    def test_stats_str(self):
        stats = TrafficStats(offered=2, delivered=1, dropped=1, total_cycles=9)
        stats.latencies = [4]
        stats.hop_counts = [4]
        stats.minimal_hop_counts = [4]
        text = str(stats)
        assert "1/2 delivered" in text and "stretch" in text


class TestSweeps:
    def test_mesh_size_sweep_smoke(self, monkeypatch):
        from repro.experiments import sweeps

        monkeypatch.setattr(sweeps, "DESTINATIONS_PER_PATTERN", 5)
        series = sweeps.mesh_size_sweep(sides=(30, 40), patterns_per_side=2)
        assert series.xs == [30.0, 40.0]
        assert set(series.series) == {"safe_source", "ext1_min", "existence"}
        for name in series.series:
            for estimate in series.series[name]:
                assert 0.0 <= estimate.value <= 1.0


class TestBoundaryMapMisc:
    def test_boundary_map_without_blocks(self):
        mesh = Mesh2D(8, 8)
        blocks = build_faulty_blocks(mesh, [])
        bmap = BoundaryMap.for_blocks(blocks)
        canonical = bmap.canonical(False, False)
        assert canonical.annotations == {}
        assert canonical.forbidden_directions((3, 3), (7, 7)) == set()

    def test_adjacent_blocks_same_row_boundaries(self):
        """Two blocks with a one-column gap: both L3 lines coexist on their
        own columns, and routing between them stays minimal."""
        mesh = Mesh2D(14, 14)
        blocks = build_faulty_blocks(mesh, [(4, 6), (8, 6)])
        levels = compute_safety_levels(mesh, blocks.unusable)
        router = WuRouter(mesh, blocks)
        # Through the gap column (x=6 between blocks at x=4 and x=8... the
        # gap is 2 wide here; route through it).
        for source, dest in [((5, 2), (7, 10)), ((6, 0), (6, 13))]:
            if is_safe(levels, source, dest):
                path = router.route(source, dest)
                assert path.is_minimal and path.avoids(blocks.unusable)
