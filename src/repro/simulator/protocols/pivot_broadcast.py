"""Pivot ESL broadcasting (Extension 3's information model).

Selected pivot nodes broadcast their extended safety level to all nodes of
the 2-D mesh (paper Sec. 4).  Implemented as a per-pivot flood: the pivot
sends to its neighbours; every node forwards each pivot's announcement the
first time it sees it.  Blocked nodes neither receive nor forward, so the
flood also demonstrates that pivot information reaches every *connected*
free node (unreachable pockets simply miss it, which the decision layer
tolerates by skipping unknown pivots).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.safety import SafetyLevels
from repro.mesh.geometry import Coord
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess
from repro.simulator.protocols.reliable import drain_protocol

ESL = tuple[int, int, int, int]


class PivotBroadcastProcess(NodeProcess):
    __slots__ = ("own_esl", "is_pivot", "pivot_table")

    def __init__(self, coord: Coord, network: MeshNetwork, own_esl: ESL, is_pivot: bool):
        super().__init__(coord, network)
        self.own_esl = own_esl
        self.is_pivot = is_pivot
        #: pivot coordinate -> its broadcast ESL
        self.pivot_table: dict[Coord, ESL] = {}

    def start(self) -> None:
        if self.is_pivot:
            self.pivot_table[self.coord] = self.own_esl
            self.broadcast("pivot", (self.coord, self.own_esl))

    def on_message(self, message: Message) -> None:
        if message.kind != "pivot":
            raise ValueError(f"unexpected message kind {message.kind!r}")
        pivot, esl = message.payload
        if pivot in self.pivot_table:
            return
        self.pivot_table[pivot] = esl
        self.broadcast("pivot", (pivot, esl))


@dataclass(frozen=True)
class PivotBroadcastResult:
    #: node -> {pivot -> ESL} as collected by the flood
    tables: dict[Coord, dict[Coord, ESL]]
    stats: NetworkStats


def run_pivot_broadcast(
    mesh: Mesh2D,
    unusable: np.ndarray,
    levels: SafetyLevels,
    pivots: list[Coord],
    latency: float = 1.0,
    tracer: Tracer | None = None,
) -> PivotBroadcastResult:
    """Flood every pivot's ESL through the free part of the mesh.

    Pivots inside blocks are skipped (they have no process), matching the
    decision layer's rule that blocked pivots are unusable.
    """
    blocked_coords = {(int(x), int(y)) for x, y in zip(*np.nonzero(unusable))}
    pivot_set = {p for p in pivots if p not in blocked_coords}
    for pivot in pivot_set:
        mesh.require_in_bounds(pivot)

    def factory(coord: Coord, network: MeshNetwork) -> PivotBroadcastProcess:
        return PivotBroadcastProcess(
            coord, network, levels.esl(coord), is_pivot=coord in pivot_set
        )

    network = MeshNetwork(
        mesh, Engine(), factory, faulty=blocked_coords, latency=latency,
        tracer=tracer,
    )
    stats = drain_protocol(network, "protocol.pivot_broadcast", pivots=len(pivot_set))

    tables = {
        coord: dict(process.pivot_table)
        for coord, process in network.nodes.items()
        if isinstance(process, PivotBroadcastProcess)
    }
    network.close()
    return PivotBroadcastResult(tables=tables, stats=stats)
