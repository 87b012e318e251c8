"""Ack/timeout/retransmit hardening for the information protocols.

The paper's formation/propagation algorithms assume reliable channels and
a membership that only shrinks.  :class:`ResilientProcess` wraps the
protocol logic of a :class:`~repro.simulator.process.NodeProcess` in a
stop-and-wait reliability shim so the same algorithms survive a
:class:`~repro.chaos.plan.ChannelFaultPlan` and mid-run crash/revive:

- every payload-bearing send travels inside an :class:`Envelope` stamped
  with a per-sender sequence number and the network's *chaos epoch*;
- receivers acknowledge every envelope (acks travel raw: an ack of an
  ack would never terminate), discard corrupted deliveries without
  acking (forcing the retransmit), drop envelopes from stale epochs,
  and deduplicate the rest (idempotent receive) via a set of seen
  ``seq << 2 | direction.index`` integers that holds only the current
  epoch's keys: stale epochs never reach the check, so the set is
  cleared when the epoch moves on, and an ``int`` key is no object
  the cyclic collector tracks;
- senders retransmit unacked envelopes with exponential backoff in
  ticks, bounded by ``DEFAULT_MAX_RETRIES`` (a give-up is counted, not fatal:
  the stabilization pulse is the backstop);
- :func:`stabilize_network` is that backstop -- a reset-based
  self-stabilization pulse in the Arora-Gouda style: bump the epoch
  (fencing off every in-flight message and pending retransmit), restart
  all live processes from locally-derivable state, and drain.  Because
  the protocols are monotone and restart from scratch against the
  *final* fault set, the pulse converges to exactly the
  Definition-1/ESL fixpoint the batch oracles compute.

Hardening is opt-in per process (``hardened=False`` keeps ``rsend`` a
plain ``send``), so default runs stay bit-identical.

:func:`drain_protocol` is the one drain of every ``run_*`` entry point:
run to quiescence in a tracer span and, when hardened, on the chaos event
budget followed by one stabilization pulse.  The restart the pulses call
for block formation, safety formation and the live
:class:`~repro.simulator.protocols.dynamic_update.DynamicNode` is the
shared :meth:`~repro.simulator.protocols.local_rules.LocalRules.protocol_restart`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.mesh.geometry import ESL_ORDER, Direction
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess

#: Message kind reserved for reliability acknowledgements.  Protocol
#: handlers never see it: the shim consumes acks before dispatch.
ACK_KIND = "chaos-ack"

#: Retransmit timeout as a multiple of the link latency (round trip plus
#: scheduling slack), doubled on every attempt.
DEFAULT_TIMEOUT_FACTOR = 4.0

DEFAULT_MAX_RETRIES = 6


@dataclass(slots=True)
class Envelope:
    """A protocol payload wrapped for reliable delivery (never mutated;
    not frozen, for the same per-hop cost reason as
    :class:`~repro.simulator.messages.Message`)."""

    epoch: int
    seq: int
    payload: Any


class ResilientProcess(NodeProcess):
    """A node process with optional stop-and-wait reliable delivery.

    Subclasses implement :meth:`handle_message` (the protocol logic that
    plain processes put in ``on_message``) and send via :meth:`rsend` /
    :meth:`rbroadcast`; with ``hardened=False`` those degrade to the raw
    primitives and this class adds nothing but a dict or two.
    """

    __slots__ = (
        "_rel_on",
        "_rel_seq",
        "_rel_outbox",
        "_rel_seen",
        "_rel_seen_epoch",
        "_rel_timeout",
    )

    def __init__(
        self,
        coord,
        network: MeshNetwork,
        *,
        hardened: bool = False,
    ):
        super().__init__(coord, network)
        self._rel_on = hardened
        self._rel_seq = 0
        #: (direction, epoch, seq) -> [kind, envelope, attempts, sent_id]
        #: (sent_id: the last attempt's msg_send event id under a flight
        #: recorder, else None -- retransmit lineage)
        self._rel_outbox: dict[tuple[Direction, int, int], list] = {}
        #: delivered ``seq << 2 | arrival direction index`` keys of the
        #: epoch in ``_rel_seen_epoch``
        self._rel_seen: set[int] = set()
        self._rel_seen_epoch = network.chaos_epoch
        self._rel_timeout = DEFAULT_TIMEOUT_FACTOR * network.latency

    # ------------------------------------------------------------------
    # Reliable send primitives
    # ------------------------------------------------------------------
    def rsend(self, direction: Direction, kind: str, payload: Any = None) -> bool:
        network = self.network
        if not self._rel_on:
            return network.send_from(self.coord, direction, kind, payload)
        epoch = network.chaos_epoch
        seq = self._rel_seq = self._rel_seq + 1
        envelope = Envelope(epoch, seq, payload)
        if not network.send_from(self.coord, direction, kind, envelope):
            return False  # mesh edge: nothing to retry
        key = (direction, epoch, seq)
        # Under a flight recorder the outbox remembers the send's event id
        # so a retransmit can name the attempt it is retrying as its cause.
        sent_id = network._trc.last_send_id if network._rec_on else None
        self._rel_outbox[key] = [kind, envelope, 0, sent_id]
        network.engine.schedule(self._rel_timeout, self._rel_check, key, self._rel_timeout)
        return True

    def rbroadcast(self, kind: str) -> int:
        count = 0
        for direction in ESL_ORDER:
            if self.rsend(direction, kind, None):
                count += 1
        return count

    def _rel_check(self, key: tuple[Direction, int, int], timeout: float) -> None:
        entry = self._rel_outbox.get(key)
        if entry is None:
            return  # acked
        if self.network.nodes.get(self.coord) is not self:
            return  # this incarnation crashed or was replaced
        direction, epoch, _seq = key
        if epoch != self.network.chaos_epoch:
            # A pulse or revive fenced this traffic off; the restart
            # re-derives whatever it was carrying.
            del self._rel_outbox[key]
            return
        kind, envelope, attempts, sent_id = entry
        if attempts >= DEFAULT_MAX_RETRIES:
            del self._rel_outbox[key]
            self.network._trc.count("chaos.gave_up")
            return
        entry[2] = attempts + 1
        network = self.network
        network.note_retry(self.coord, direction)
        if network._rec_on and sent_id is not None:
            recorder = network._trc
            with recorder.cause_scope(sent_id):
                self.send(direction, kind, envelope)
            entry[3] = recorder.last_send_id
        else:
            self.send(direction, kind, envelope)
        network.engine.schedule(timeout * 2.0, self._rel_check, key, timeout * 2.0)

    # ------------------------------------------------------------------
    # Receive shim
    # ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if not self._rel_on:
            self.handle_message(message)
            return
        network = self.network
        direction = message.arrival_direction
        if message.kind == ACK_KIND:
            if not message.corrupted and direction is not None:
                epoch, seq = message.payload
                self._rel_outbox.pop((direction, epoch, seq), None)
            return
        if message.corrupted:
            # Detected checksum failure: discard unacked; the sender's
            # timeout drives the retransmit.
            if network._trace_on:
                network._trc.count("chaos.corrupt_discarded")
            return
        payload = message.payload
        if not isinstance(payload, Envelope):
            self.handle_message(message)  # e.g. legacy/raw senders
            return
        epoch = payload.epoch
        if epoch != network.chaos_epoch:
            if network._trace_on:
                network._trc.count("chaos.stale_discarded")
            return
        if direction is not None:
            # Ack before the dedup check: the original ack may have been
            # lost, and re-acking is what stops the retransmits.
            network.send_from(self.coord, direction, ACK_KIND, (epoch, payload.seq))
            if epoch != self._rel_seen_epoch:
                # Envelopes of older epochs were rejected above, so their
                # keys can never match again.
                self._rel_seen.clear()
                self._rel_seen_epoch = epoch
            key = payload.seq << 2 | direction.index
            if key in self._rel_seen:
                if network._trace_on:
                    network._trc.count("chaos.dup_suppressed")
                return
            self._rel_seen.add(key)
        self.handle_message(
            Message(
                message.src, message.dst, message.kind,
                payload.payload, direction,
            )
        )

    def handle_message(self, message: Message) -> None:
        """Protocol logic; override exactly as ``on_message`` elsewhere."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Restart (self-stabilization)
    # ------------------------------------------------------------------
    def local_restart(self) -> None:
        """Forget everything soft and rebuild from locally-derivable state."""
        self._rel_outbox.clear()
        self._rel_seen.clear()
        self._rel_seq = 0
        self.protocol_restart()

    def protocol_restart(self) -> None:
        """Reset protocol state and re-run the initial sends.  Subclasses
        with soft state must override; stateless starters get this."""
        self.start()


def chaos_event_budget(network: MeshNetwork) -> int:
    """An event budget generous enough for hardened runs.

    Hardening multiplies traffic (ack + at least one timer per message,
    plus retransmits), and stabilization pulses re-run the whole
    formation; scale the default budget accordingly.
    """
    return 2_000 * network.mesh.size + 100_000


def stabilize_network(network: MeshNetwork, rounds: int = 1) -> int:
    """Run ``rounds`` reset-based stabilization pulses to quiescence.

    Each pulse bumps the chaos epoch (discarding all in-flight traffic
    and pending retransmits -- whatever they carried is re-derived) and
    restarts every live :class:`ResilientProcess` in deterministic
    coordinate order.  Returns the number of engine events processed;
    the simulated time the pulses took is counted into the
    ``chaos.reconverge_ticks`` hot counter.
    """
    engine = network.engine
    started_at = engine.now
    events = 0
    budget = chaos_event_budget(network)
    recorder = network._trc if network._rec_on else None
    for _ in range(max(0, rounds)):
        network.chaos_epoch += 1
        pulse_id = None
        if recorder is not None:
            pulse_id = recorder.emit(
                "epoch_bump", epoch=network.chaos_epoch, reason="stabilize",
                time=engine.now,
            )
        for coord in sorted(network.nodes):
            process = network.nodes[coord]
            if isinstance(process, ResilientProcess):
                if recorder is not None:
                    restart_id = recorder.emit(
                        "proc_restart", cause=pulse_id, at=coord, time=engine.now
                    )
                    with recorder.cause_scope(restart_id):
                        process.local_restart()
                else:
                    process.local_restart()
        events += engine.run(max_events=budget)
    if network._trace_on and engine.now > started_at:
        network._trc.count("chaos.reconverge_ticks", int(engine.now - started_at))
    return events


def drain_protocol(
    network: MeshNetwork, span: str, *, hardened: bool = False, **attrs: Any,
) -> NetworkStats:
    """Run ``network``'s protocol to quiescence inside the tracer span
    ``span`` (with attributes ``attrs``).

    A ``hardened`` run gets :func:`chaos_event_budget` and then one pulse
    of :func:`stabilize_network`, after which the stats are the network's
    lifetime totals.
    """
    with network._trc.span(span, **attrs):
        stats = network.run(
            max_events=chaos_event_budget(network) if hardened else None
        )
        if hardened:
            stabilize_network(network)
            stats = network.current_stats()
    return stats
