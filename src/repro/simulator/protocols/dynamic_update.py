"""Dynamic fault injection with incremental information update.

The paper's information model is *incremental*: "When a disturbance occurs,
only those affected nodes update their information to keep it consistent."
This module realizes that claim as a long-lived network:

- every node runs block labelling (Definition 1) and ESL maintenance
  (the FORMATION algorithm) simultaneously: :class:`DynamicNode` is the
  shared node program of :mod:`.local_rules` with both rules on, its
  restart the shared one, and :func:`~.local_rules.live_unusable_grid` /
  :func:`~.local_rules.live_safety_levels` its read-out;
- :meth:`DynamicMesh.inject_fault` fail-stops one node at runtime; its
  neighbours detect the failure and the labelling/ESL waves ripple out from
  there -- nobody else is touched;
- faults only ever *shrink* safety levels and *grow* blocks, so min-based
  propagation converges to exactly the from-scratch state (the tests
  compare against the centralized recomputation after every injection);
- the per-injection message count measures update *locality*: far cheaper
  than re-forming all information from scratch, which is the point of the
  distribution-friendly design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.safety import SafetyLevels
from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.simulator.engine import Engine
from repro.simulator.network import MeshNetwork
from repro.simulator.protocols.local_rules import (
    LocalRules,
    live_safety_levels,
    live_unusable_grid,
)
from repro.simulator.protocols.reliable import chaos_event_budget, stabilize_network

if TYPE_CHECKING:
    from repro.chaos.plan import ChannelFaultPlan


class DynamicNode(LocalRules):
    """Block labelling plus ESL maintenance under live fault injection."""

    __slots__ = ()
    DISABLE_KIND = "unusable"
    ESL_KIND = "esl"

    def start(self) -> None:
        """Nothing to derive at t=0: the harness reports each faulty
        neighbour after the detection latency, through
        :meth:`neighbor_became_unusable`."""

    def neighbor_became_usable(self, direction: Direction) -> None:
        """A crashed neighbour revived.  The incremental protocol cannot
        *undo* monotone state (levels only shrink, blocks only grow), so
        this merely clears the local flag; the stabilization pulse that
        follows every revive rebuilds the derived state from scratch."""
        self.unusable_dirs -= {direction}


@dataclass(frozen=True)
class InjectionReport:
    """Cost accounting for one injected fault."""

    fault: Coord
    messages: int
    events: int
    newly_disabled: int
    settled_at: float


class DynamicMesh:
    """A live mesh: inject faults one at a time, information stays consistent."""

    def __init__(
        self,
        mesh: Mesh2D,
        latency: float = 1.0,
        chaos: "ChannelFaultPlan | None" = None,
        hardened: bool | None = None,
    ):
        self.mesh = mesh
        self.latency = latency
        self.engine = Engine()
        self.hardened = (
            hardened if hardened is not None else chaos is not None and chaos.active
        )

        def factory(coord: Coord, network: MeshNetwork) -> DynamicNode:
            return DynamicNode(coord, network, hardened=self.hardened)

        self._factory = factory
        self.network = MeshNetwork(
            mesh, self.engine, factory, latency=latency, chaos=chaos
        )
        self.faults: list[Coord] = []
        self.reports: list[InjectionReport] = []

    def _event_budget(self) -> int:
        if self.hardened:
            return chaos_event_budget(self.network)
        return 200 * self.mesh.size + 10_000

    # ------------------------------------------------------------------
    def inject_fault(self, coord: Coord) -> InjectionReport:
        """Fail-stop one node and run the ripple to quiescence."""
        self.mesh.require_in_bounds(coord)
        if coord in self.network.faulty:
            raise ValueError(f"{coord} already faulty")
        if coord not in self.network.nodes:
            raise ValueError(f"{coord} holds no live process")
        self.faults.append(coord)

        disabled_before = self._count_disabled()
        # O(1) running totals instead of an O(n*m) per-channel scan.
        messages_before = self.network.messages_carried_total
        events_before = self.engine.events_processed

        self.network.fail_node(coord)
        for direction, neighbor in self.mesh.neighbor_items(coord):
            process = self.network.nodes.get(neighbor)
            if isinstance(process, DynamicNode):
                # Failure detection after one link latency.
                self.engine.schedule(
                    self.latency, process.neighbor_became_unusable, direction.opposite
                )

        self.network.refresh_instrumentation()
        self.engine.run(max_events=self._event_budget())

        report = InjectionReport(
            fault=coord,
            messages=self.network.messages_carried_total - messages_before,
            events=self.engine.events_processed - events_before,
            newly_disabled=self._count_disabled() - disabled_before,
            settled_at=self.engine.now,
        )
        self.reports.append(report)
        return report

    def revive_node(self, coord: Coord, stabilize_rounds: int = 1) -> None:
        """Bring a previously injected fault back and re-converge.

        The incremental protocol is monotone (levels only shrink, blocks
        only grow), so a revival cannot be absorbed by more ripples; it
        is handled by a reset-based stabilization pulse that restarts
        every live node against the *new* fault set (see
        :func:`repro.simulator.protocols.reliable.stabilize_network`).
        """
        if coord not in self.faults:
            raise ValueError(f"{coord} was never injected")
        self.network.restore_node(coord, self._factory)
        self.faults.remove(coord)
        for direction, neighbor in self.mesh.neighbor_items(coord):
            process = self.network.nodes.get(neighbor)
            if isinstance(process, DynamicNode):
                process.neighbor_became_usable(direction.opposite)
        self.network.refresh_instrumentation()
        stabilize_network(self.network, rounds=max(1, stabilize_rounds))

    # ------------------------------------------------------------------
    # State accessors (for verification against the centralized model)
    # ------------------------------------------------------------------
    def _count_disabled(self) -> int:
        return sum(
            1
            for process in self.network.nodes.values()
            if isinstance(process, DynamicNode) and process.disabled
        )

    def unusable_grid(self) -> np.ndarray:
        return live_unusable_grid(self.network)

    def safety_levels(self) -> SafetyLevels:
        """Current per-node levels (entries of blocked nodes carry no meaning)."""
        return live_safety_levels(self.network)

    @property
    def total_messages(self) -> int:
        """Lifetime carried-message count (O(1) running total)."""
        return self.network.messages_carried_total
