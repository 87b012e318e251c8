"""Packet routing as a distributed protocol.

Everything in :mod:`repro.core.routing` is a *local* decision rule; this
module makes that operational by running it on the message-passing
simulator: every node is a process, a packet is a message, and each hop is
one delivery event.  The hop decision at a node consults only that node's
view (its boundary tags, via the shared hop function) and the packet's
destination -- the process never reads another node's state.

Used by the tests to show the whole pipeline end-to-end *in one network*:
fault detection -> block formation -> boundary distribution -> packet
delivery, with the hop latency and message counts falling out of the
simulation rather than being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.routing.packet import Packet, PacketStatus
from repro.routing.router import HopRouter, RoutingError
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess


class PacketForwardingProcess(NodeProcess):
    """Forwards packets one hop per delivery using a shared hop function."""

    __slots__ = ("hop_router", "delivered")

    def __init__(self, coord: Coord, network: MeshNetwork, hop_router: HopRouter):
        super().__init__(coord, network)
        self.hop_router = hop_router
        self.delivered: list[tuple[Packet, float]] = []

    def accept(self, packet: Packet) -> None:
        """Entry point for locally injected packets."""
        self._handle(packet)

    def on_message(self, message: Message) -> None:
        if message.kind != "packet":
            raise ValueError(f"unexpected message kind {message.kind!r}")
        packet = message.payload
        packet.record_hop(self.coord)
        if packet.status is PacketStatus.DELIVERED:
            self.delivered.append((packet, self.network.engine.now))
            return
        self._handle(packet)

    def _handle(self, packet: Packet) -> None:
        if packet.dest == self.coord:  # zero-hop delivery (source == dest)
            packet.status = PacketStatus.DELIVERED
            self.delivered.append((packet, self.network.engine.now))
            return
        try:
            nxt = self.hop_router.next_hop(self.coord, packet.dest)
        except RoutingError as error:
            packet.drop(str(error))
            return
        self.send(Direction.between(self.coord, nxt), "packet", packet)


@dataclass
class DistributedRoutingRun:
    """Outcome of routing a batch of packets on the simulator."""

    packets: list[Packet]
    delivery_times: dict[int, float]  # packet_id -> simulated time
    stats: NetworkStats

    @property
    def delivered(self) -> int:
        return sum(1 for p in self.packets if p.status is PacketStatus.DELIVERED)

    @property
    def dropped(self) -> int:
        return len(self.packets) - self.delivered


def run_distributed_routing(
    mesh: Mesh2D,
    hop_router: HopRouter,
    unusable_coords: set[Coord],
    traffic: list[tuple[Coord, Coord]],
    latency: float = 1.0,
) -> DistributedRoutingRun:
    """Route ``traffic`` (source, dest pairs) as simulator messages.

    ``unusable_coords`` (faulty plus disabled nodes) get no processes; a
    packet mistakenly forwarded at them would be dropped by the channel,
    but a correct hop function never does that.
    """
    engine = Engine()
    network = MeshNetwork(
        mesh,
        engine,
        lambda coord, net: PacketForwardingProcess(coord, net, hop_router),
        faulty=unusable_coords,
        latency=latency,
    )
    packets: list[Packet] = []
    for source, dest in traffic:
        packet = Packet(source=source, dest=dest)
        packets.append(packet)
        process = network.nodes.get(source)
        if not isinstance(process, PacketForwardingProcess):
            packet.drop(f"source {source} is unusable")
            continue
        engine.schedule(0.0, process.accept, packet)
    stats = network.run()

    delivery_times: dict[int, float] = {}
    for process in network.nodes.values():
        if isinstance(process, PacketForwardingProcess):
            for packet, when in process.delivered:
                delivery_times[packet.packet_id] = when
    network.close()
    return DistributedRoutingRun(packets=packets, delivery_times=delivery_times, stats=stats)
