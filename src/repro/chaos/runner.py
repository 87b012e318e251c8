"""Drive the hardened dynamic-update protocol under chaos.

A :class:`ChaosRunner` owns one mesh network of hardened
:class:`~repro.simulator.protocols.dynamic_update.DynamicNode` processes
and subjects it to a :class:`~repro.chaos.plan.ChannelFaultPlan` (per-hop
drop/duplicate/corrupt/jitter) plus a
:class:`~repro.chaos.schedule.ChaosSchedule` (crash/revive at arbitrary
ticks) in a single drain -- unlike
:class:`~repro.simulator.protocols.dynamic_update.DynamicMesh`, events
are *not* separated by quiescent points, so protocol waves and membership
changes genuinely interleave.

After the schedule plays out, reset-based stabilization pulses (see
:mod:`repro.simulator.protocols.reliable`) restart every live node
against the final fault set; :func:`repro.chaos.verify.verify_convergence`
then compares the surviving distributed state with the batch oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.chaos.plan import ChannelFaultPlan
from repro.chaos.schedule import ChaosEvent, ChaosSchedule
from repro.core.safety import SafetyLevels
from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.obs.recorder import FlightRecorder
from repro.simulator.engine import Engine
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.protocols.dynamic_update import DynamicNode
from repro.simulator.protocols.local_rules import live_safety_levels, live_unusable_grid
from repro.simulator.protocols.reliable import chaos_event_budget, stabilize_network

if TYPE_CHECKING:
    from repro.obs.timeseries import Observatory


@dataclass(frozen=True)
class ChaosOutcome:
    """What one chaos run did and what it cost."""

    stats: NetworkStats
    applied: int
    skipped: int
    crashed: tuple[Coord, ...]
    revived: tuple[Coord, ...]
    final_faults: tuple[Coord, ...]
    reconverge_events: int
    reconverge_ticks: float

    def summary(self) -> str:
        return (
            f"{self.applied} chaos events applied ({self.skipped} skipped): "
            f"{len(self.crashed)} crashes, {len(self.revived)} revivals -> "
            f"{len(self.final_faults)} final faults; "
            f"reconverged in {self.reconverge_events} events / "
            f"{self.reconverge_ticks:g} ticks; {self.stats}"
        )


class ChaosRunner:
    """One hardened network plus the machinery to torment it."""

    def __init__(
        self,
        mesh: Mesh2D,
        faults: Iterable[Coord] = (),
        plan: ChannelFaultPlan | None = None,
        schedule: ChaosSchedule | None = None,
        latency: float = 1.0,
        stabilize_rounds: int = 1,
        recorder: FlightRecorder | None = None,
        observatory: "Observatory | None" = None,
    ):
        self.mesh = mesh
        self.plan = plan
        self.schedule = schedule if schedule is not None else ChaosSchedule()
        self.latency = latency
        self.stabilize_rounds = stabilize_rounds
        self.recorder = recorder
        self.observatory = observatory
        self.engine = Engine()

        def factory(coord: Coord, network: MeshNetwork) -> DynamicNode:
            return DynamicNode(coord, network, hardened=True)

        self._factory = factory
        self.network = MeshNetwork(
            mesh, self.engine, factory, faulty=faults, latency=latency, chaos=plan,
            tracer=recorder,
        )
        # Sampling is a pure read of deterministic sim state keyed by the
        # sim clock, so it neither perturbs a recording nor the replay:
        # the same observatory attached to a rebuilt runner yields
        # bit-identical series.
        self.network.observatory = observatory
        self.crashed: list[Coord] = []
        self.revived: list[Coord] = []
        self.skipped: list[ChaosEvent] = []
        self._primed = False
        self._ran = False

    # ------------------------------------------------------------------
    def recipe(self) -> dict[str, Any]:
        """The replayable description of this run: everything
        :func:`repro.obs.replay.build_runner` needs to reconstruct it.
        Must be taken before :meth:`run` mutates the fault set."""
        plan_spec = None
        if self.plan is not None:
            plan_spec = {
                "drop": self.plan.drop,
                "duplicate": self.plan.duplicate,
                "corrupt": self.plan.corrupt,
                "jitter": self.plan.jitter,
                "seed": self.plan.seed,
            }
        return {
            "kind": "chaos",
            "n": self.mesh.n,
            "m": self.mesh.m,
            "faults": [list(coord) for coord in sorted(self.network.faulty)],
            "plan": plan_spec,
            "schedule": [
                [event.time, event.action, list(event.coord)]
                for event in self.schedule
            ],
            "latency": self.latency,
            "stabilize_rounds": self.stabilize_rounds,
        }

    def prime(self) -> None:
        """Schedule the initial fault notifications and the chaos script
        (everything :meth:`run` does before draining), without draining.

        Split out so the replay layer can prime a runner and then drive
        the engine to an arbitrary ``until=`` horizon (time travel).
        """
        if self._primed:
            raise RuntimeError("a ChaosRunner is single-use; build a new one")
        self._primed = True
        network, engine = self.network, self.engine

        root: int | None = None
        recorder = self.recorder
        if recorder is not None:
            if self.plan is not None:
                # The recording's recipe rebuilds the plan from its seed;
                # start the recorded run from the same point so replay
                # sees the identical verdict stream.
                self.plan.reset()
            root = recorder.emit("run_meta", recipe=self.recipe())

        # Initial faults are detected by their neighbours after one link
        # latency, like a DynamicMesh injection at t=0.
        for coord in sorted(network.faulty):
            for direction, neighbor in self.mesh.neighbor_items(coord):
                engine.schedule(
                    self.latency, self._notify_down, neighbor, direction.opposite, root
                )
        # Chaos events land at absolute ticks, interleaved with protocol
        # traffic (engine.now is 0 here, so delay == absolute time).
        for event in self.schedule:
            engine.schedule(event.time, self._apply, event)

    # ------------------------------------------------------------------
    def run(self) -> ChaosOutcome:
        """Play the schedule under the plan and stabilize; single-use (a
        second call raises :class:`RuntimeError`)."""
        if self._ran:
            raise RuntimeError("a ChaosRunner is single-use; build a new one")
        self._ran = True
        network, engine = self.network, self.engine
        if not self._primed:
            self.prime()

        budget = chaos_event_budget(network)
        network.run(max_events=budget)
        chaos_settled_at = engine.now

        reconverge_events = stabilize_network(network, rounds=self.stabilize_rounds)

        return ChaosOutcome(
            stats=network.current_stats(),
            applied=len(self.crashed) + len(self.revived),
            skipped=len(self.skipped),
            crashed=tuple(self.crashed),
            revived=tuple(self.revived),
            final_faults=tuple(sorted(network.faulty)),
            reconverge_events=reconverge_events,
            reconverge_ticks=engine.now - chaos_settled_at,
        )

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply(self, event: ChaosEvent) -> None:
        recorder = self.recorder
        if event.action == "crash":
            if event.coord in self.network.faulty:
                self.skipped.append(event)
                return
            self.network.fail_node(event.coord)
            self.crashed.append(event.coord)
            cause: int | None = None
            if recorder is not None:
                cause = recorder.emit(
                    "chaos_crash", at=event.coord, time=self.engine.now
                )
            self.network._trc.count("chaos.crashes")
            for direction, neighbor in self.mesh.neighbor_items(event.coord):
                self.engine.schedule(
                    self.latency, self._notify_down, neighbor, direction.opposite, cause
                )
        else:  # revive
            if event.coord not in self.network.faulty or event.coord not in self.crashed:
                # Never revive an *initial* fault: those model permanently
                # dead hardware, not crashed software.
                self.skipped.append(event)
                return
            # Fence off every in-flight message and pending retransmit:
            # the revived node restarts its sequence numbers, and stale
            # (epoch, seq) pairs must not collide with fresh ones.
            self.network.chaos_epoch += 1
            cause = None
            if recorder is not None:
                cause = recorder.emit(
                    "chaos_revive", at=event.coord, time=self.engine.now
                )
                recorder.emit(
                    "epoch_bump", cause=cause, epoch=self.network.chaos_epoch,
                    reason="revive", time=self.engine.now,
                )
            process = self.network.restore_node(event.coord, self._factory)
            self.revived.append(event.coord)
            self.network._trc.count("chaos.revives")
            if recorder is not None:
                restart_id = recorder.emit(
                    "proc_restart", cause=cause, at=event.coord, time=self.engine.now
                )
                with recorder.cause_scope(restart_id):
                    process.local_restart()
            else:
                process.local_restart()
            for direction, neighbor in self.mesh.neighbor_items(event.coord):
                self.engine.schedule(
                    self.latency, self._notify_up, neighbor, direction.opposite, cause
                )

    def _notify_down(
        self, coord: Coord, direction: Direction, cause: int | None = None
    ) -> None:
        """Failure detection: resolved at fire time, because the observer
        itself may have crashed (or been replaced) in the meantime."""
        process = self.network.nodes.get(coord)
        if isinstance(process, DynamicNode):
            if cause is not None and self.recorder is not None:
                with self.recorder.cause_scope(cause):
                    process.neighbor_became_unusable(direction)
            else:
                process.neighbor_became_unusable(direction)

    def _notify_up(
        self, coord: Coord, direction: Direction, cause: int | None = None
    ) -> None:
        process = self.network.nodes.get(coord)
        if isinstance(process, DynamicNode):
            if cause is not None and self.recorder is not None:
                with self.recorder.cause_scope(cause):
                    process.neighbor_became_usable(direction)
            else:
                process.neighbor_became_usable(direction)

    # ------------------------------------------------------------------
    # Final-state accessors (for the verifier)
    # ------------------------------------------------------------------
    def unusable_grid(self) -> np.ndarray:
        return live_unusable_grid(self.network)

    def safety_levels(self) -> SafetyLevels:
        """Per-node levels (entries of blocked nodes carry no meaning)."""
        return live_safety_levels(self.network)

    def close(self) -> None:
        """Free the finished network by reference counting (see
        :meth:`MeshNetwork.close`); the live-state accessors above read
        nothing afterwards."""
        self.network.close()
