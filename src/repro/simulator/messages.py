"""Messages exchanged by node processes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.mesh.geometry import Coord, Direction


@dataclass(slots=True)
class Message:
    """One hop-to-hop message.

    ``kind`` discriminates protocol message types (e.g. ``"esl"``,
    ``"boundary"``); ``payload`` is protocol-specific and must be treated as
    immutable by receivers.  ``arrival_direction`` is the direction the
    message *came from* as seen by the receiver (the paper's FORMATION
    algorithm dispatches on exactly this).  The network fills it in at
    construction time -- one allocation per hop.

    ``corrupted`` models a *detected* checksum failure: the payload still
    travels (so accounting sees the hop) but a hardened receiver discards
    the message without acknowledging it, which is what forces the sender's
    retransmit.  Unhardened protocols never see corrupted messages because
    only a :class:`~repro.chaos.plan.ChannelFaultPlan` sets the flag.

    ``trace_id`` is set only while a flight recorder is installed: the
    event id of the ``msg_send`` that put this message on the wire, so the
    delivery can name its cause and lineage survives the hop.

    Messages are never mutated after construction, but the class is not
    frozen: a frozen dataclass pays one ``object.__setattr__`` per field,
    several times the cost of the rest of a hop's bookkeeping.
    """

    src: Coord
    dst: Coord
    kind: str
    payload: Any = None
    arrival_direction: Direction | None = None
    corrupted: bool = False
    trace_id: int | None = None

    def __str__(self) -> str:
        return f"Message[{self.kind}] {self.src} -> {self.dst}"
