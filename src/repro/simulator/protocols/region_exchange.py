"""Distributed within-region ESL exchange (Extension 2's information model).

Each affected row (and column) is partitioned by faulty blocks and mesh
edges into disjoint regions; nodes of a region exchange their extended
safety levels.  The paper's implementation is reproduced literally:

    *A simple implementation of such an exchange starts from two ends of
    each region and pushes the partially accumulated information to the
    other end.  Two partially accumulated information packets initiated
    from two ends form a complete packet.*

A region end (a node whose row-neighbour is blocked or missing) starts a
packet; every node appends its own sample and forwards; when both sweeps
have passed a node, it holds the perpendicular safety level of *every* node
in its region -- the full-information (segment size 1) variant of
Extension 2.  Exactly two messages traverse each intra-region link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.safety import SafetyLevels
from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import NO_DIRS, MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess
from repro.simulator.protocols.reliable import drain_protocol


class RegionExchangeProcess(NodeProcess):
    """One node's row- and column-region accumulation state.

    ``row_samples`` maps x-position -> that node's North-level for every
    known node of the row region (itself included); ``column_samples`` maps
    y-position -> East-level.  The perpendicular levels are what Theorem 1b
    consults.
    """

    __slots__ = ("blocked_dirs", "row_samples", "column_samples")

    def __init__(
        self,
        coord: Coord,
        network: MeshNetwork,
        north_level: int,
        east_level: int,
        blocked_dirs: frozenset[Direction],
    ):
        super().__init__(coord, network)
        self.blocked_dirs = blocked_dirs
        self.row_samples: dict[int, int] = {coord[0]: north_level}
        self.column_samples: dict[int, int] = {coord[1]: east_level}

    def _is_region_end(self, direction: Direction) -> bool:
        """No region neighbour beyond us in ``direction``."""
        if direction in self.blocked_dirs:
            return True
        return not self.network.mesh.in_bounds(direction.step(self.coord))

    def start(self) -> None:
        # Row sweeps: the West end starts the East-bound packet and vice versa.
        if self._is_region_end(Direction.WEST):
            self.send(Direction.EAST, "row", dict(self.row_samples))
        if self._is_region_end(Direction.EAST):
            self.send(Direction.WEST, "row", dict(self.row_samples))
        if self._is_region_end(Direction.SOUTH):
            self.send(Direction.NORTH, "column", dict(self.column_samples))
        if self._is_region_end(Direction.NORTH):
            self.send(Direction.SOUTH, "column", dict(self.column_samples))

    def on_message(self, message: Message) -> None:
        assert message.arrival_direction is not None
        forward = message.arrival_direction.opposite
        if message.kind == "row":
            own = self.row_samples[self.coord[0]]
            self.row_samples.update(message.payload)
            self.send(forward, "row", {**message.payload, self.coord[0]: own})
        elif message.kind == "column":
            own = self.column_samples[self.coord[1]]
            self.column_samples.update(message.payload)
            self.send(forward, "column", {**message.payload, self.coord[1]: own})
        else:
            raise ValueError(f"unexpected message kind {message.kind!r}")


@dataclass(frozen=True)
class RegionExchangeResult:
    #: node -> {x position -> North level} over the node's row region
    row_knowledge: dict[Coord, dict[int, int]]
    #: node -> {y position -> East level} over the node's column region
    column_knowledge: dict[Coord, dict[int, int]]
    stats: NetworkStats


def run_region_exchange(
    mesh: Mesh2D,
    unusable: np.ndarray,
    levels: SafetyLevels,
) -> RegionExchangeResult:
    """Run the two-end accumulation over every region of the mesh.

    ``levels`` supplies each node's own ESL (formed beforehand by
    :mod:`repro.simulator.protocols.safety_propagation`); the exchange
    spreads the perpendicular components within each region.
    """
    blocked_coords = {(int(x), int(y)) for x, y in zip(*np.nonzero(unusable))}

    def factory(coord: Coord, network: MeshNetwork) -> RegionExchangeProcess:
        return RegionExchangeProcess(
            coord,
            network,
            north_level=levels.level(coord, Direction.NORTH),
            east_level=levels.level(coord, Direction.EAST),
            blocked_dirs=network.faulty_dirs.get(coord, NO_DIRS),
        )

    network = MeshNetwork(mesh, Engine(), factory, faulty=blocked_coords)
    stats = drain_protocol(network, "protocol.region_exchange", blocked=len(blocked_coords))

    row_knowledge: dict[Coord, dict[int, int]] = {}
    column_knowledge: dict[Coord, dict[int, int]] = {}
    for coord, process in network.nodes.items():
        assert isinstance(process, RegionExchangeProcess)
        row_knowledge[coord] = dict(process.row_samples)
        column_knowledge[coord] = dict(process.column_samples)
    network.close()
    return RegionExchangeResult(
        row_knowledge=row_knowledge,
        column_knowledge=column_knowledge,
        stats=stats,
    )
