"""Distributed faulty-block-information distribution along boundary lines.

The paper distributes each block's two opposite corners to the nodes on its
boundary lines; when a line runs into another block it turns and joins that
block's corresponding line.  Here that is a forwarding protocol:

- The nodes adjacent to a block's **South** side (plus the two diagonal
  corner nodes the paper names) are seeded with the block's rectangle as L1
  information and forward it **West**.
- A node whose West neighbour is blocked forwards **South** instead; every
  receiver applies the same rule (West if free, else South), which walks
  exactly the joined polyline of the centralized trace -- descend the
  encountered block's East side, resume West on its L1 row.
- L3 is the mirror image: seeds on the block's West side forward South,
  detouring West along an encountered block's North side.

Each node records, per (block, line), the direction the information arrived
from -- which is precisely the ``toward`` pointer of
:class:`repro.core.boundaries.BoundaryTag`, and the test-suite asserts the
distributed annotations equal the centralized ones node for node.

A node only ever forwards a given (block, line) once, so the message count
is the total polyline length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.boundaries import BoundaryTag, Line
from repro.mesh.geometry import Coord, Direction, Rect
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import NO_DIRS, MeshNetwork, NetworkStats
from repro.simulator.protocols.reliable import ResilientProcess, drain_protocol

if TYPE_CHECKING:
    from repro.chaos.plan import ChannelFaultPlan

#: Per line: (primary forwarding direction, detour direction when blocked).
_FORWARDING = {
    Line.L1: (Direction.WEST, Direction.SOUTH),
    Line.L3: (Direction.SOUTH, Direction.WEST),
}


class BoundaryProcess(ResilientProcess):
    __slots__ = ("blocked_dirs", "annotations", "known_rects", "_seeds")

    def __init__(
        self,
        coord: Coord,
        network: MeshNetwork,
        blocked_dirs: frozenset[Direction],
        *,
        hardened: bool = False,
    ):
        super().__init__(coord, network, hardened=hardened)
        self.blocked_dirs = blocked_dirs
        #: (block_index, line) -> toward direction (None at the exit corner)
        self.annotations: dict[tuple[int, Line], Direction | None] = {}
        #: block rectangles this node has learned (seeded or from messages)
        self.known_rects: dict[int, Rect] = {}
        #: seeds survive restarts: they are this node's hard state
        self._seeds: dict[tuple[int, Line], tuple[Direction | None, Rect]] = {}

    def seed(self, block_index: int, line: Line, toward: Direction | None, rect: Rect) -> None:
        """Install seed info; forwarding happens in start() at t=0."""
        self.annotations[(block_index, line)] = toward
        self.known_rects[block_index] = rect
        self._seeds[(block_index, line)] = (toward, rect)

    def start(self) -> None:
        for (block_index, line), _ in list(self.annotations.items()):
            self._forward(block_index, line)

    def protocol_restart(self) -> None:
        self.annotations = {}
        self.known_rects = {}
        for (block_index, line), (toward, rect) in self._seeds.items():
            self.annotations[(block_index, line)] = toward
            self.known_rects[block_index] = rect
        self.start()

    def handle_message(self, message: Message) -> None:
        if message.kind != "boundary":
            raise ValueError(f"unexpected message kind {message.kind!r}")
        block_index, line, rect = message.payload
        key = (block_index, line)
        if key in self.annotations:
            return  # already have this block's info for this line
        assert message.arrival_direction is not None
        self.annotations[key] = message.arrival_direction
        self.known_rects[block_index] = rect
        self._forward(block_index, line)

    def _forward(self, block_index: int, line: Line) -> None:
        primary, detour = _FORWARDING[line]
        payload = (block_index, line, self.known_rects[block_index])
        if primary not in self.blocked_dirs:
            self.rsend(primary, "boundary", payload)
        else:
            self.rsend(detour, "boundary", payload)


@dataclass(frozen=True)
class BoundaryDistributionResult:
    #: node -> list of BoundaryTag, same encoding as the centralized map
    annotations: dict[Coord, list[BoundaryTag]]
    stats: NetworkStats


def run_boundary_distribution(
    mesh: Mesh2D,
    rects: list[Rect],
    unusable: np.ndarray,
    latency: float = 1.0,
    tracer: Tracer | None = None,
    chaos: "ChannelFaultPlan | None" = None,
    stabilize_rounds: int = 1,
) -> BoundaryDistributionResult:
    """Distribute L1 and L3 information for every block (canonical
    quadrant-I orientation).

    An active ``chaos`` plan hardens every process and appends
    ``stabilize_rounds`` reset pulses; seeds are hard state, so a restart
    re-forwards them and the polylines re-form."""
    hardened = chaos is not None and chaos.active
    blocked_coords = {(int(x), int(y)) for x, y in zip(*np.nonzero(unusable))}

    def factory(coord: Coord, network: MeshNetwork) -> BoundaryProcess:
        return BoundaryProcess(
            coord, network, network.faulty_dirs.get(coord, NO_DIRS), hardened=hardened
        )

    network = MeshNetwork(
        mesh, Engine(), factory, faulty=blocked_coords, latency=latency,
        tracer=tracer, chaos=chaos,
    )
    for index, rect in enumerate(rects):
        _seed_l1(mesh, network, index, rect)
        _seed_l3(mesh, network, index, rect)

    stats = drain_protocol(
        network, "protocol.boundary_distribution", hardened=hardened,
        stabilize_rounds=stabilize_rounds, blocks=len(rects),
    )

    annotations: dict[Coord, list[BoundaryTag]] = {}
    for coord, process in network.nodes.items():
        assert isinstance(process, BoundaryProcess)
        if process.annotations:
            annotations[coord] = [
                BoundaryTag(block_index=index, line=line, toward=toward)
                for (index, line), toward in sorted(
                    process.annotations.items(), key=lambda kv: (kv[0][0], kv[0][1].value)
                )
            ]
    network.close()
    return BoundaryDistributionResult(annotations=annotations, stats=stats)


def _seed_l1(mesh: Mesh2D, network: MeshNetwork, index: int, rect: Rect) -> None:
    """Seed the row just South of the block, from the SW diagonal corner to
    the L1 ∩ L4 exit corner."""
    row = rect.ymin - 1
    if row < 0:
        return
    exit_x = rect.xmax + 1
    for x in range(max(rect.xmin - 1, 0), min(exit_x, mesh.n - 1) + 1):
        process = network.nodes.get((x, row))
        if isinstance(process, BoundaryProcess):
            toward = None if x == exit_x else Direction.EAST
            process.seed(index, Line.L1, toward, rect)


def _seed_l3(mesh: Mesh2D, network: MeshNetwork, index: int, rect: Rect) -> None:
    """Seed the column just West of the block, up to the L3 ∩ L2 corner."""
    column = rect.xmin - 1
    if column < 0:
        return
    exit_y = rect.ymax + 1
    for y in range(max(rect.ymin - 1, 0), min(exit_y, mesh.m - 1) + 1):
        process = network.nodes.get((column, y))
        if isinstance(process, BoundaryProcess):
            toward = None if y == exit_y else Direction.NORTH
            process.seed(index, Line.L3, toward, rect)
