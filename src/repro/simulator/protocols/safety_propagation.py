"""Distributed extended-safety-level formation (the paper's
FORMATION-EXTENDED-SAFETY-LEVEL-INFORMATION algorithm, Sec. 4).

Runs *after* block formation: every node knows which of its neighbours sit
inside a faulty block.  A node with a blocked East neighbour sets ``E = 0``
and tells its West neighbour, which sets ``E = 0 + 1`` and forwards further
West -- the paper's case dispatch on the sender's direction, with the
default level being unbounded so clear rows/columns exchange nothing.

Nodes inside blocks do not participate (their channels are down), which is
also what partitions each affected row/column into the disjoint regions the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.safety import UNBOUNDED, ESLGrids, SafetyLevels, encode_levels
from repro.mesh.geometry import ESL_ORDER, Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer, get_tracer
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork, NetworkStats, adjacent_blocked_dirs
from repro.simulator.protocols.reliable import (
    ResilientProcess,
    chaos_event_budget,
    stabilize_network,
)

if TYPE_CHECKING:
    from repro.chaos.plan import ChannelFaultPlan

_NO_DIRS: frozenset[Direction] = frozenset()


class SafetyFormationProcess(ResilientProcess):
    __slots__ = ("levels", "_blocked_dirs")

    def __init__(
        self,
        coord: Coord,
        network: MeshNetwork,
        blocked_dirs: frozenset[Direction],
        *,
        hardened: bool = False,
    ):
        super().__init__(coord, network, hardened=hardened)
        self.levels: dict[Direction, int] = dict.fromkeys(ESL_ORDER, UNBOUNDED)
        self._blocked_dirs = blocked_dirs

    def start(self) -> None:
        # ESL order, not set order: a frozenset of directions iterates in
        # hash (address) order, and the send order is the event order.
        for direction in ESL_ORDER:
            if direction in self._blocked_dirs:
                self._update(direction, 0)

    def protocol_restart(self) -> None:
        self.levels = dict.fromkeys(ESL_ORDER, UNBOUNDED)
        self.start()

    def handle_message(self, message: Message) -> None:
        if message.kind != "esl":
            raise ValueError(f"unexpected message kind {message.kind!r}")
        assert message.arrival_direction is not None
        # A level arriving from the East is an E-chain value, etc.
        self._update(message.arrival_direction, int(message.payload) + 1)

    def _update(self, direction: Direction, value: int) -> None:
        """Adopt a tighter level for ``direction`` and forward it onward."""
        if value >= self.levels[direction]:
            return
        self.levels[direction] = value
        self.rsend(direction.opposite, "esl", value)

    def esl(self) -> tuple[int, int, int, int]:
        return (
            self.levels[Direction.EAST],
            self.levels[Direction.SOUTH],
            self.levels[Direction.WEST],
            self.levels[Direction.NORTH],
        )


@dataclass(frozen=True)
class SafetyPropagationResult:
    levels: SafetyLevels  # same container the centralized computation fills
    stats: NetworkStats


def run_safety_propagation(
    mesh: Mesh2D, unusable: np.ndarray, latency: float = 1.0,
    tracer: Tracer | None = None, chaos: "ChannelFaultPlan | None" = None,
    stabilize_rounds: int = 1,
) -> SafetyPropagationResult:
    """Run the FORMATION algorithm over the blocked-node grid.

    Entries for blocked nodes are left at 0 in the result grids; they carry
    no meaning (the centralized counterpart is only compared on free nodes).

    An active ``chaos`` plan hardens every process (ack/retransmit) and
    appends ``stabilize_rounds`` reset pulses so lost messages cannot leave
    the grid short of the fixpoint.
    """
    hardened = chaos is not None and chaos.active
    blocked_coords = {(int(x), int(y)) for x, y in zip(*np.nonzero(unusable))}
    blocked_dirs = adjacent_blocked_dirs(mesh, blocked_coords)

    def factory(coord: Coord, network: MeshNetwork) -> SafetyFormationProcess:
        return SafetyFormationProcess(
            coord, network, blocked_dirs.get(coord, _NO_DIRS), hardened=hardened
        )

    trc = tracer if tracer is not None else get_tracer()
    network = MeshNetwork(
        mesh, Engine(), factory, faulty=blocked_coords, latency=latency,
        tracer=tracer, chaos=chaos,
    )
    with trc.span("protocol.safety_propagation", blocked=len(blocked_coords)):
        stats = network.run(
            max_events=chaos_event_budget(network) if hardened else None
        )
        if hardened and stabilize_rounds:
            stabilize_network(network, rounds=stabilize_rounds)
            stats = network.current_stats()

    grids = np.zeros((len(ESL_ORDER), mesh.n, mesh.m), dtype=np.int64)
    for (x, y), process in network.nodes.items():
        assert isinstance(process, SafetyFormationProcess)
        grids[:, x, y] = [process.levels[d] for d in ESL_ORDER]
    network.close()
    levels = SafetyLevels(mesh, ESLGrids(*encode_levels(grids)))
    return SafetyPropagationResult(levels=levels, stats=stats)
