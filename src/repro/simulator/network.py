"""A mesh of node processes wired by channels.

Channel state is flat: one ``bytearray`` (up flags) and four
``array('q')`` buffers (carried/dropped/lost/retried counters) hold every
directed link, slot ``(x*m + y)*4 + direction.index``.  The send path
indexes them as plain Python sequences; ``channel_up``,
``channel_carried``, ``channel_dropped``, ``channel_lost`` and
``channel_retried`` are writable numpy views of shape ``(n, m, 4)``
(indexed ``[x, y, direction]``) on the same memory, so readers see every
send.  Running totals make whole-network accounting O(1).
``network.channels`` is a mapping of
:class:`~repro.simulator.channels.ChannelView` objects, built on access.

Processes and the network refer to each other, so a finished network is
cyclic garbage until :meth:`MeshNetwork.close` drops its processes and
queued events; after that, reference counting frees it.

:meth:`MeshNetwork.send_from` is the one send path.  Flags cached by
:meth:`MeshNetwork.refresh_instrumentation` decide per send whether an
active :class:`~repro.chaos.plan.ChannelFaultPlan` perturbs the hop and
which events a tracer or flight recorder sees; the accounting and
scheduling are the same code in every case.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.mesh.geometry import Coord, Direction
from repro.mesh.topology import Mesh2D
from repro.obs import Tracer, get_tracer
from repro.obs.timeseries import get_observatory
from repro.simulator.channels import ChannelMap, ChannelView
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.process import NodeProcess

if TYPE_CHECKING:
    from repro.chaos.plan import ChannelFaultPlan

#: The direction set of a node with no blocked neighbour.
NO_DIRS: frozenset[Direction] = frozenset()


def adjacent_blocked_dirs(
    mesh: Mesh2D, blocked: Iterable[Coord]
) -> dict[Coord, frozenset[Direction]]:
    """For each neighbour of a blocked node: the directions it sees blocked.

    Protocol factories need ``{direction: neighbour is blocked}`` per node;
    scanning ``neighbor_items`` for all ``n*m`` nodes is O(mesh), while
    only fault-adjacent nodes ever have a non-empty set.  This builds the
    sparse map in O(blocked); absent nodes mean "no blocked neighbour".
    """
    out: dict[Coord, set[Direction]] = {}
    for coord in blocked:
        for direction, neighbor in mesh.neighbor_items(coord):
            out.setdefault(neighbor, set()).add(direction.opposite)
    return {coord: frozenset(dirs) for coord, dirs in out.items()}


@dataclass(frozen=True)
class NetworkStats:
    """Protocol cost accounting, read after a run converges.

    The chaos fields default to zero so reliable runs (and pre-chaos
    baselines) compare equal regardless of whether they were produced
    before or after the chaos layer existed.  ``dropped`` counts sends
    into a *down* channel (fail-stop semantics); ``lost`` counts messages
    a live channel discarded under a
    :class:`~repro.chaos.plan.ChannelFaultPlan`.
    """

    messages: int
    dropped: int
    events: int
    converged_at: float
    lost: int = 0
    duplicated: int = 0
    retried: int = 0

    def __str__(self) -> str:
        text = (
            f"{self.messages} messages ({self.dropped} dropped), "
            f"{self.events} events, converged at t={self.converged_at:g}"
        )
        if self.lost or self.duplicated or self.retried:
            text += (
                f" [chaos: {self.lost} lost, {self.duplicated} duplicated, "
                f"{self.retried} retried]"
            )
        return text


class MeshNetwork:
    """All node processes of one mesh plus the directed channels between
    them.

    ``faulty`` nodes get no process and their incident channels are down:
    they neither originate, forward, nor receive (the fail-stop model the
    paper assumes).
    """

    def __init__(
        self,
        mesh: Mesh2D,
        engine: Engine,
        node_factory: Callable[[Coord, "MeshNetwork"], NodeProcess],
        faulty: Iterable[Coord] = (),
        latency: float = 1.0,
        tracer: Tracer | None = None,
        chaos: "ChannelFaultPlan | None" = None,
    ):
        self.mesh = mesh
        self.engine = engine
        self.latency = latency
        self.tracer = tracer
        self.chaos = chaos
        #: Live-telemetry hookup: when set (directly, or ambiently via
        #: :func:`repro.obs.timeseries.use_observatory`), :meth:`run`
        #: binds it to this network and installs the engine tick hook.
        #: None (the default) installs no hook.
        self.observatory = None
        #: Bumped on every membership change that invalidates in-flight
        #: traffic (node revival, stabilization pulse).  Hardened
        #: processes stamp their envelopes with the epoch at send time
        #: and discard deliveries from older epochs.
        self.chaos_epoch = 0
        self.faulty: set[Coord] = set(faulty)
        for coord in self.faulty:
            mesh.require_in_bounds(coord)
        #: What each node senses locally: the directions of its faulty
        #: neighbours (``NO_DIRS`` when absent), built here for the process
        #: factories and kept in step with ``faulty`` by :meth:`fail_node`
        #: and :meth:`restore_node` for protocol restarts.
        self.faulty_dirs = adjacent_blocked_dirs(mesh, self.faulty)

        self.nodes: dict[Coord, NodeProcess] = {
            coord: node_factory(coord, self)
            for coord in mesh.nodes()
            if coord not in self.faulty
        }

        n, m = mesh.n, mesh.m
        self._n, self._m = n, m
        healthy = np.ones((n, m), dtype=bool)
        for coord in self.faulty:
            healthy[coord] = False
        # A link is up iff it exists (neighbour in bounds) and both ends
        # are healthy; out-of-bounds slots simply stay False forever.
        up = np.zeros((n, m, 4), dtype=bool)
        if n > 1:
            up[:-1, :, Direction.EAST.index] = healthy[:-1, :] & healthy[1:, :]
            up[1:, :, Direction.WEST.index] = healthy[1:, :] & healthy[:-1, :]
        if m > 1:
            up[:, 1:, Direction.SOUTH.index] = healthy[:, 1:] & healthy[:, :-1]
            up[:, :-1, Direction.NORTH.index] = healthy[:, :-1] & healthy[:, 1:]
        # Flat per-link buffers, slot (x*m + y)*4 + direction.index: the
        # send path reads and bumps them as Python ints, which costs a
        # fraction of a numpy scalar access.
        self._up = bytearray(up.tobytes())
        zeros = bytes(8 * up.size)
        self._carried = array("q", zeros)
        self._dropped = array("q", zeros)
        #: Chaos accounting per directed link: messages a *live* channel
        #: discarded under the fault plan, and retransmissions pushed by
        #: hardened senders.  All-zero (and never touched) without chaos.
        self._lost = array("q", zeros)
        self._retried = array("q", zeros)
        #: Writable ``(n, m, 4)`` numpy views on the flat buffers above:
        #: the same memory, so every send shows in them.
        shape = (n, m, 4)
        self.channel_up = np.frombuffer(self._up, dtype=bool).reshape(shape)
        self.channel_carried = np.frombuffer(self._carried, dtype=np.int64).reshape(shape)
        self.channel_dropped = np.frombuffer(self._dropped, dtype=np.int64).reshape(shape)
        self.channel_lost = np.frombuffer(self._lost, dtype=np.int64).reshape(shape)
        self.channel_retried = np.frombuffer(self._retried, dtype=np.int64).reshape(shape)
        #: Running population count of ``channel_up`` (kept by
        #: :meth:`take_down_channel` / :meth:`bring_up_channel`, the only
        #: mutation points), so the per-tick sampler never pays a
        #: whole-array reduction.
        self.channels_up_total = int(up.sum())
        #: Running totals: O(1) whole-network accounting (stable API).
        self.messages_carried_total = 0
        self.messages_dropped_total = 0
        self.messages_lost_total = 0
        self.messages_duplicated_total = 0
        self.messages_retried_total = 0

        self.refresh_instrumentation()

    # ------------------------------------------------------------------
    # Channel plumbing
    # ------------------------------------------------------------------
    @property
    def channels(self) -> ChannelMap:
        """Every in-bounds directed link as a read-through mapping (built
        per access, so the network holds no reference back to it)."""
        return ChannelMap(self)

    def _slot(self, src: Coord, direction: Direction) -> int:
        """The flat-buffer slot of the ``src -> direction`` link."""
        x, y = src
        return (x * self._m + y) * 4 + direction.index

    def channel_view(self, src: Coord, direction: Direction) -> ChannelView | None:
        """A view of the ``src -> direction`` link; None at the mesh edge."""
        dst = direction.step(src)
        if not (self.mesh.in_bounds(src) and self.mesh.in_bounds(dst)):
            return None
        return ChannelView(self, src, dst, direction)

    def take_down_channel(self, src: Coord, direction: Direction) -> None:
        """Mark one directed link down (messages to it are dropped)."""
        slot = self._slot(src, direction)
        if self._up[slot]:
            self._up[slot] = 0
            self.channels_up_total -= 1

    def bring_up_channel(self, src: Coord, direction: Direction) -> None:
        """Re-enable one directed link (the inverse of take_down_channel)."""
        dst = direction.step(src)
        if not self.mesh.in_bounds(dst):
            return
        slot = self._slot(src, direction)
        if not self._up[slot]:
            self._up[slot] = 1
            self.channels_up_total += 1

    # ------------------------------------------------------------------
    # Runtime membership (chaos crash/revive)
    # ------------------------------------------------------------------
    def fail_node(self, coord: Coord) -> NodeProcess | None:
        """Fail-stop one node at runtime: its process is removed and every
        incident directed link goes down.  Returns the removed process
        (None if the node never had one, e.g. it was disabled-only)."""
        self.mesh.require_in_bounds(coord)
        if coord in self.faulty:
            raise ValueError(f"{coord} already faulty")
        process = self.nodes.pop(coord, None)
        self.faulty.add(coord)
        faulty_dirs = self.faulty_dirs
        for direction, neighbor in self.mesh.neighbor_items(coord):
            self.take_down_channel(coord, direction)
            self.take_down_channel(neighbor, direction.opposite)
            faulty_dirs[neighbor] = faulty_dirs.get(neighbor, NO_DIRS) | {direction.opposite}
        return process

    def restore_node(
        self, coord: Coord, node_factory: Callable[[Coord, "MeshNetwork"], NodeProcess]
    ) -> NodeProcess:
        """Revive a failed node with a *fresh* process (amnesia: crashed
        state is gone).  Links come back up only where the far end is also
        healthy."""
        if coord not in self.faulty:
            raise ValueError(f"{coord} is not faulty")
        self.faulty.discard(coord)
        faulty_dirs = self.faulty_dirs
        for direction, neighbor in self.mesh.neighbor_items(coord):
            dirs = faulty_dirs[neighbor] - {direction.opposite}
            if dirs:
                faulty_dirs[neighbor] = dirs
            else:
                del faulty_dirs[neighbor]
            if neighbor not in self.faulty:
                self.bring_up_channel(coord, direction)
                self.bring_up_channel(neighbor, direction.opposite)
        process = node_factory(coord, self)
        self.nodes[coord] = process
        return process

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def refresh_instrumentation(self) -> None:
        """Re-resolve the tracer into per-send fast-path flags.

        ``send_from`` consults these cached flags instead of doing a
        registry lookup per message; callers that install a tracer
        *after* construction get it picked up at the next
        :meth:`run` (which refreshes automatically) or by calling this.
        """
        trc = self.tracer if self.tracer is not None else get_tracer()
        self._trc = trc
        self._trace_on = trc.enabled
        self._rec_on = trc.recording
        self._chaos_on = self.chaos is not None and self.chaos.active
        self._obs = self.observatory if self.observatory is not None else get_observatory()

    def send_from(self, src: Coord, direction: Direction, kind: str, payload) -> bool:
        """Send one hop; False if the link does not exist (mesh edge).

        The one code path that puts a message on a link.  An active
        :class:`~repro.chaos.plan.ChannelFaultPlan` draws its verdict
        before the link check, so the perturbation stream depends only on
        the send sequence, not on the evolving link state.  A plain tracer
        sees one ``protocol_msg`` per send; a flight recorder sees the
        lineage-carrying ``msg_send`` / ``msg_drop`` / ``msg_lost`` /
        ``msg_dup`` events instead, and the delivery goes through
        :meth:`_deliver_recorded`, which stamps the receiving handler's
        causal scope.
        """
        x, y = src
        nx, ny = x + direction.dx, y + direction.dy
        if nx < 0 or ny < 0 or nx >= self._n or ny >= self._m:
            return False
        slot = (x * self._m + y) * 4 + direction.index
        link_up = self._up[slot]
        trc = self._trc if self._trace_on else None
        if trc is not None:
            trc.count("sim.messages")
        if self._chaos_on:
            lost, duplicated, corrupted, extra = self.chaos.draw()
            delay = self.latency * (1 + extra)
        else:
            lost = duplicated = corrupted = False
            delay = self.latency
        dst = (nx, ny)
        rec = trc if self._rec_on else None
        event_id = None
        if rec is not None:
            if link_up:
                event_id = rec.emit(
                    "msg_send", cause=rec.cause, src=src, dst=dst,
                    direction=direction.name, msg=kind, time=self.engine.now,
                    payload=payload,
                )
            else:
                event_id = rec.emit(
                    "msg_drop", cause=rec.cause, src=src, dst=dst,
                    direction=direction.name, msg=kind, time=self.engine.now,
                )
            rec.last_send_id = event_id
        elif trc is not None:
            trc.emit("protocol_msg", msg=kind, src=src, direction=direction.name,
                     time=self.engine.now, queue=self.engine.pending,
                     dropped=not link_up)
        if not link_up:
            self._dropped[slot] += 1
            self.messages_dropped_total += 1
            if trc is not None:
                trc.count("sim.dropped")
            return True
        self._carried[slot] += 1
        self.messages_carried_total += 1
        if lost:
            if rec is not None:
                rec.emit("msg_lost", cause=event_id, src=src, dst=dst, msg=kind,
                         time=self.engine.now)
            self._lost[slot] += 1
            self.messages_lost_total += 1
            if trc is not None:
                trc.count("chaos.drops")
            return True
        if corrupted and trc is not None:
            trc.count("chaos.corrupted")
        deliver = self._deliver if rec is None else self._deliver_recorded
        # One allocation per hop: the arrival direction is known here, so
        # the message is born annotated.
        self.engine.schedule(
            delay, deliver, dst,
            Message(src, dst, kind, payload, direction.opposite, corrupted, event_id),
        )
        if duplicated:
            dup_id = None
            if rec is not None:
                dup_id = rec.emit("msg_dup", cause=event_id, src=src, dst=dst, msg=kind,
                                  time=self.engine.now)
            self.messages_duplicated_total += 1
            if trc is not None:
                trc.count("chaos.duplicates")
            # The ghost copy trails the original by one latency; its
            # delivery chains to the msg_dup event, not the original send.
            ghost = Message(src, dst, kind, payload, direction.opposite, corrupted, dup_id)
            self.engine.schedule(delay + self.latency, deliver, dst, ghost)
        return True

    def _deliver_recorded(self, dst: Coord, message: Message) -> None:
        """Delivery under a flight recorder: emit the arrival (caused by
        its send) and run the handler inside that causal scope, so every
        send the handler makes chains to the message that provoked it."""
        rec = self._trc
        event_id = rec.emit(
            "msg_deliver", cause=message.trace_id, at=dst, msg=message.kind,
            time=self.engine.now, corrupted=message.corrupted,
        )
        process = self.nodes.get(dst)
        if process is None:
            return
        previous = rec.cause
        rec.cause = event_id
        try:
            process.on_message(message)
        finally:
            rec.cause = previous

    def note_retry(self, src: Coord, direction: Direction) -> None:
        """Account one retransmission on the ``src -> direction`` link."""
        self._retried[self._slot(src, direction)] += 1
        self.messages_retried_total += 1
        if self._trace_on:
            self._trc.count("chaos.retries")

    def _deliver(self, dst: Coord, message: Message) -> None:
        process = self.nodes.get(dst)
        if process is not None:
            process.on_message(message)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_events: int | None = None) -> NetworkStats:
        """Start every process and drain the engine to quiescence."""
        self.refresh_instrumentation()
        if self._obs is not None:
            self._obs.watch(self)
        trc = self._trc
        with trc.span("network.run", nodes=len(self.nodes)):
            for process in self.nodes.values():
                process.start()
            budget = max_events if max_events is not None else 200 * self.mesh.size + 10_000
            events = self.engine.run(max_events=budget)
        if trc.enabled:
            trc.emit("engine_run", events=events, **self.engine.metrics_snapshot())
        return NetworkStats(
            messages=self.messages_carried_total,
            dropped=self.messages_dropped_total,
            events=events,
            converged_at=self.engine.now,
            lost=self.messages_lost_total,
            duplicated=self.messages_duplicated_total,
            retried=self.messages_retried_total,
        )

    def current_stats(self) -> NetworkStats:
        """Lifetime accounting without running anything (``events`` is the
        engine's lifetime total, unlike the per-run count :meth:`run`
        reports)."""
        return NetworkStats(
            messages=self.messages_carried_total,
            dropped=self.messages_dropped_total,
            events=self.engine.events_processed,
            converged_at=self.engine.now,
            lost=self.messages_lost_total,
            duplicated=self.messages_duplicated_total,
            retried=self.messages_retried_total,
        )

    def close(self) -> None:
        """Tear down a finished network: drop its processes, its queued
        engine events and its observatory hookup.

        Each process refers back to the network, and a queued event to
        its process, so until this runs a finished network is freed only
        by a full cyclic collection that walks every process.  Afterwards
        reference counting frees it.  The fault set, channel arrays and
        running totals stay readable; the network runs nothing more.
        """
        self.nodes = {}
        self.engine.clear()
        self.engine.set_tick_hook(None)
        self.observatory = self._obs = None
