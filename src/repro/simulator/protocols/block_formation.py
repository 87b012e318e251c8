"""Distributed faulty-block formation (Definition 1 as a local protocol).

Every healthy node knows only which of its neighbours are faulty (fail-stop
detection).  A node whose unusable neighbours span both dimensions disables
itself and announces the change; announcements ripple until no node changes
-- exactly the fixpoint of :func:`repro.faults.blocks.disable_fixpoint`,
which the tests assert.  The rule, the restart and the read-out are the
shared ones of :mod:`.local_rules`; this protocol runs Definition 1 alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from repro.mesh.geometry import Coord
from repro.mesh.topology import Mesh2D
from repro.simulator.engine import Engine
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.protocols.local_rules import LocalRules, live_unusable_grid
from repro.simulator.protocols.reliable import drain_protocol

if TYPE_CHECKING:
    from repro.chaos.plan import ChannelFaultPlan


class BlockFormationProcess(LocalRules):
    """State machine for one healthy node: Definition 1 only."""

    __slots__ = ()
    DISABLE_KIND = "disabled"


@dataclass(frozen=True)
class BlockFormationResult:
    unusable: np.ndarray  # faulty or disabled, as the protocol converged to it
    stats: NetworkStats


def run_block_formation(
    mesh: Mesh2D, faults: list[Coord], chaos: "ChannelFaultPlan | None" = None,
) -> BlockFormationResult:
    """Run the labelling protocol to quiescence.

    An active ``chaos`` plan hardens every process and appends one reset
    pulse (see :mod:`.reliable`)."""
    hardened = chaos is not None and chaos.active
    network = MeshNetwork(
        mesh, Engine(), partial(BlockFormationProcess, hardened=hardened),
        faulty=faults, chaos=chaos,
    )
    stats = drain_protocol(
        network, "protocol.block_formation", hardened=hardened,
        faults=len(network.faulty),
    )
    unusable = live_unusable_grid(network)
    network.close()
    return BlockFormationResult(unusable=unusable, stats=stats)
