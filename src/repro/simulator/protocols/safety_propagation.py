"""Distributed extended-safety-level formation (the paper's
FORMATION-EXTENDED-SAFETY-LEVEL-INFORMATION algorithm, Sec. 4).

Runs *after* block formation: every node knows which of its neighbours sit
inside a faulty block.  A node with a blocked East neighbour sets ``E = 0``
and tells its West neighbour, which sets ``E = 0 + 1`` and forwards further
West -- the paper's case dispatch on the sender's direction, with the
default level being unbounded so clear rows/columns exchange nothing.
The rule, the restart and the read-out are the shared ones of
:mod:`.local_rules`; this protocol runs FORMATION alone.

Nodes inside blocks do not participate (their channels are down), which is
also what partitions each affected row/column into the disjoint regions the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.core.safety import SafetyLevels
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer
from repro.simulator.engine import Engine
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.protocols.local_rules import LocalRules, live_safety_levels
from repro.simulator.protocols.reliable import drain_protocol

if TYPE_CHECKING:
    from repro.chaos.plan import ChannelFaultPlan


class SafetyFormationProcess(LocalRules):
    """State machine for one free node: FORMATION only."""

    __slots__ = ()
    ESL_KIND = "esl"


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
    network = MeshNetwork(
        mesh, Engine(), partial(SafetyFormationProcess, hardened=hardened),
        faulty=blocked_coords, latency=latency, tracer=tracer, chaos=chaos,
    )
    stats = drain_protocol(
        network, "protocol.safety_propagation", hardened=hardened,
        stabilize_rounds=stabilize_rounds, blocked=len(blocked_coords),
    )
    levels = live_safety_levels(network)
    network.close()
    return SafetyPropagationResult(levels=levels, stats=stats)
