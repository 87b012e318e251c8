"""Distributed faulty-block formation (Definition 1 as a local protocol).

Every healthy node knows only which of its neighbours are faulty (fail-stop
detection).  A node whose unusable neighbours span both dimensions disables
itself and announces the change; announcements ripple until no node changes
-- exactly the fixpoint of :func:`repro.faults.blocks.disable_fixpoint`,
which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.mesh.geometry import Coord, Direction
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


class BlockFormationProcess(ResilientProcess):
    """State machine for one healthy node."""

    __slots__ = ("unusable_dirs", "disabled", "_faulty_dirs")

    def __init__(
        self,
        coord: Coord,
        network: MeshNetwork,
        faulty_dirs: frozenset[Direction],
        *,
        hardened: bool = False,
    ):
        super().__init__(coord, network, hardened=hardened)
        self.unusable_dirs: set[Direction] = set(faulty_dirs)
        self.disabled = False
        self._faulty_dirs = faulty_dirs

    def start(self) -> None:
        self._maybe_disable()

    def protocol_restart(self) -> None:
        self.unusable_dirs = set(self._faulty_dirs)
        self.disabled = False
        self.start()

    def handle_message(self, message: Message) -> None:
        if message.kind != "disabled":
            raise ValueError(f"unexpected message kind {message.kind!r}")
        assert message.arrival_direction is not None
        self.unusable_dirs.add(message.arrival_direction)
        self._maybe_disable()

    def _maybe_disable(self) -> None:
        if self.disabled:
            return
        horizontal = any(d.is_horizontal for d in self.unusable_dirs)
        vertical = any(d.is_vertical for d in self.unusable_dirs)
        if horizontal and vertical:
            self.disabled = True
            self.rbroadcast("disabled")


@dataclass(frozen=True)
class BlockFormationResult:
    unusable: np.ndarray  # faulty or disabled, as the protocol converged to it
    stats: NetworkStats


def run_block_formation(
    mesh: Mesh2D, faults: list[Coord], latency: float = 1.0,
    tracer: Tracer | None = None, chaos: "ChannelFaultPlan | None" = None,
    stabilize_rounds: int = 1,
) -> BlockFormationResult:
    """Run the labelling protocol to quiescence.

    An active ``chaos`` plan hardens every process and appends
    ``stabilize_rounds`` reset pulses (see :mod:`.reliable`)."""
    hardened = chaos is not None and chaos.active
    fault_set = set(faults)
    # Sparse O(faults) map instead of a neighbour scan per node: only
    # fault-adjacent nodes start with a non-empty direction set.
    faulty_dirs = adjacent_blocked_dirs(mesh, fault_set)

    def factory(coord: Coord, network: MeshNetwork) -> BlockFormationProcess:
        return BlockFormationProcess(
            coord, network, faulty_dirs.get(coord, _NO_DIRS), hardened=hardened
        )

    trc = tracer if tracer is not None else get_tracer()
    network = MeshNetwork(
        mesh, Engine(), factory, faulty=fault_set, latency=latency,
        tracer=tracer, chaos=chaos,
    )
    with trc.span("protocol.block_formation", faults=len(fault_set)):
        stats = network.run(
            max_events=chaos_event_budget(network) if hardened else None
        )
        if hardened and stabilize_rounds:
            stabilize_network(network, rounds=stabilize_rounds)
            stats = network.current_stats()

    unusable = np.zeros((mesh.n, mesh.m), dtype=bool)
    for coord in fault_set:
        unusable[coord] = True
    for coord, process in network.nodes.items():
        if isinstance(process, BlockFormationProcess) and process.disabled:
            unusable[coord] = True
    network.close()
    return BlockFormationResult(unusable=unusable, stats=stats)
