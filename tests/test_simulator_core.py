"""Unit tests for the discrete-event engine, channels, and network."""

import pytest

from repro.mesh.geometry import Direction
from repro.mesh.topology import Mesh2D
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork
from repro.simulator.process import NodeProcess


class TestEngine:
    def test_time_ordering(self):
        engine = Engine()
        order = []
        engine.schedule(3.0, order.append, "c")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(2.0, order.append, "b")
        assert engine.run() == 3
        assert order == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_fifo_among_equal_times(self):
        engine = Engine()
        order = []
        for tag in "abc":
            engine.schedule(1.0, order.append, tag)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def chain(depth):
            seen.append(depth)
            if depth < 3:
                engine.schedule(1.0, chain, depth + 1)

        engine.schedule(0.0, chain, 0)
        engine.run()
        assert seen == [0, 1, 2, 3]
        assert engine.now == 3.0

    def test_until_bound(self):
        engine = Engine()
        hits = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule(t, hits.append, t)
        engine.run(until=2.0)
        assert hits == [1.0, 2.0]
        assert engine.pending == 1

    def test_event_budget(self):
        engine = Engine()

        def forever():
            engine.schedule(1.0, forever)

        engine.schedule(0.0, forever)
        with pytest.raises(RuntimeError):
            engine.run(max_events=100)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().schedule(-1.0, lambda: None)

    def test_step_empty(self):
        assert Engine().step() is False


class _Echo(NodeProcess):
    """Counts deliveries; replies once to the first message."""

    def __init__(self, coord, network):
        super().__init__(coord, network)
        self.received: list[Message] = []

    def on_message(self, message: Message) -> None:
        self.received.append(message)
        if len(self.received) == 1 and message.kind == "ping":
            assert message.arrival_direction is not None
            self.send(message.arrival_direction, "pong")


class TestNetwork:
    def test_message_round_trip(self):
        mesh = Mesh2D(3, 3)
        network = MeshNetwork(mesh, Engine(), _Echo)
        network.send_from((0, 0), Direction.EAST, "ping", None)
        stats = network.run()
        receiver = network.nodes[(1, 0)]
        sender = network.nodes[(0, 0)]
        assert [m.kind for m in receiver.received] == ["ping"]
        assert [m.kind for m in sender.received] == ["pong"]
        # Arrival direction is receiver-relative.
        assert receiver.received[0].arrival_direction is Direction.WEST
        assert sender.received[0].arrival_direction is Direction.EAST
        assert stats.messages == 2
        assert stats.converged_at == 2.0

    def test_edge_send_is_noop(self):
        mesh = Mesh2D(2, 2)
        network = MeshNetwork(mesh, Engine(), _Echo)
        assert network.send_from((0, 0), Direction.WEST, "ping", None) is False
        assert network.run().messages == 0

    def test_faulty_nodes_silent(self):
        mesh = Mesh2D(3, 1)
        network = MeshNetwork(mesh, Engine(), _Echo, faulty=[(1, 0)])
        assert (1, 0) not in network.nodes
        network.send_from((0, 0), Direction.EAST, "ping", None)
        stats = network.run()
        assert stats.messages == 0 and stats.dropped == 1

    def test_latency_scales_convergence_time(self):
        mesh = Mesh2D(3, 3)
        network = MeshNetwork(mesh, Engine(), _Echo, latency=5.0)
        network.send_from((0, 0), Direction.EAST, "ping", None)
        stats = network.run()
        assert stats.converged_at == 10.0

    def test_broadcast_counts_edges(self):
        mesh = Mesh2D(3, 3)
        network = MeshNetwork(mesh, Engine(), _Echo)
        center = network.nodes[(1, 1)]
        assert center.broadcast("ping") == 4
        corner = network.nodes[(0, 0)]
        assert corner.broadcast("ping") == 2
