"""Distributed MCC formation (Definition 2 as a local protocol).

A node learns its neighbours' faulty bits at detection time; *useless* and
*can't-reach* statuses then spread by announcements, each label only to the
two neighbours whose own labelling could depend on it (the label rules of
:data:`repro.faults.mcc._LABEL_RULES`).  Both closures run concurrently and
independently -- a node may acquire both labels, matching the centralized
semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.mcc import _LABEL_RULES, MCCType, NodeStatus
from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import NO_DIRS, MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess
from repro.simulator.protocols.reliable import drain_protocol


def _rule_directions(mcc_type: MCCType, label: NodeStatus) -> tuple[Direction, Direction]:
    """The two neighbour directions whose blockage triggers ``label``."""
    offsets = _LABEL_RULES[(mcc_type, label)]
    return tuple(Direction((dx, dy)) for dx, dy in offsets)  # type: ignore[return-value]


class MCCFormationProcess(NodeProcess):
    __slots__ = ("mcc_type", "blocked_dirs", "labels")

    def __init__(
        self,
        coord: Coord,
        network: MeshNetwork,
        faulty_dirs: frozenset[Direction],
        mcc_type: MCCType,
    ):
        super().__init__(coord, network)
        self.mcc_type = mcc_type
        # Per label: which trigger neighbours are known blocked for it.
        self.blocked_dirs: dict[NodeStatus, set[Direction]] = {
            NodeStatus.USELESS: set(faulty_dirs),
            NodeStatus.CANT_REACH: set(faulty_dirs),
        }
        self.labels: set[NodeStatus] = set()

    def start(self) -> None:
        for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
            self._maybe_label(label)

    def on_message(self, message: Message) -> None:
        label = NodeStatus[message.kind.upper()]
        assert message.arrival_direction is not None
        self.blocked_dirs[label].add(message.arrival_direction)
        self._maybe_label(label)

    def _maybe_label(self, label: NodeStatus) -> None:
        if label in self.labels:
            return
        triggers = _rule_directions(self.mcc_type, label)
        if all(direction in self.blocked_dirs[label] for direction in triggers):
            self.labels.add(label)
            # Only the nodes for which we are a trigger neighbour care.
            for direction in triggers:
                self.send(direction.opposite, label.name.lower())


@dataclass(frozen=True)
class MCCFormationResult:
    status: np.ndarray  # NodeStatus grid, matching label_statuses()
    blocked: np.ndarray
    stats: NetworkStats


def run_mcc_formation(
    mesh: Mesh2D, faults: list[Coord], mcc_type: MCCType
) -> MCCFormationResult:
    fault_set = set(faults)

    def factory(coord: Coord, network: MeshNetwork) -> MCCFormationProcess:
        return MCCFormationProcess(
            coord, network, network.faulty_dirs.get(coord, NO_DIRS), mcc_type
        )

    network = MeshNetwork(mesh, Engine(), factory, faulty=fault_set)
    stats = drain_protocol(network, "protocol.mcc_formation", faults=len(fault_set))

    status = np.zeros((mesh.n, mesh.m), dtype=np.int8)
    for coord in fault_set:
        status[coord] = NodeStatus.FAULTY
    for coord, process in network.nodes.items():
        assert isinstance(process, MCCFormationProcess)
        if NodeStatus.USELESS in process.labels:
            status[coord] = NodeStatus.USELESS
        elif NodeStatus.CANT_REACH in process.labels:
            status[coord] = NodeStatus.CANT_REACH
    network.close()
    return MCCFormationResult(
        status=status,
        blocked=status != NodeStatus.FAULT_FREE,
        stats=stats,
    )
