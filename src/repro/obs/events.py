"""Typed trace events.

A :class:`TraceEvent` is one observation emitted by a
:class:`~repro.obs.tracer.Tracer`: a ``kind`` from the closed vocabulary
below, a monotonically increasing sequence number (per tracer), and a flat
payload of JSON-serializable fields.  Events are plain data -- sinks decide
whether to buffer, persist, or aggregate them.

Event vocabulary (producers in parentheses):

==================  =========================================================
kind                meaning
==================  =========================================================
``route_start``     a router begins driving one source -> dest leg
``hop``             one forwarding step, with the rule that justified it
``detour``          a hop that *increased* the distance to the destination
``block_hit``       a preferred neighbour was rejected as block-unusable
``extension_fired`` a safe-condition decision selected the route shape
``route_end``       leg delivered (hops, detours, minimality)
``route_failed``    a router got stuck; carries the partial trace
``protocol_msg``    a simulator message entered a channel (kind, queue depth)
``engine_run``      a discrete-event engine drained (events, pending, time)
``span_start``      a timed section opened; carries its ``span_id``
``span_end``        a timed section closed; carries ``span_id`` and
                    ``duration`` seconds, and its ``cause`` is the matching
                    ``span_start`` event id
``run_meta``        flight-recorder header: the full recipe needed to
                    re-execute the recorded run
``tick``            flight recorder observed simulated time advancing
``msg_send``        recorder: a message entered a live channel
``msg_deliver``     recorder: a message reached its destination process;
                    ``cause`` is the originating ``msg_send``
``msg_drop``        recorder: a send hit a downed channel (silent loss)
``msg_lost``        recorder: chaos discarded an in-flight message
``msg_dup``         recorder: chaos scheduled a ghost duplicate delivery
``chaos_crash``     recorder: a chaos schedule crashed a node
``chaos_revive``    recorder: a chaos schedule revived a node
``epoch_bump``      recorder: the chaos epoch advanced (revive/stabilize),
                    fencing off all in-flight traffic
``proc_restart``    recorder: a process re-ran its protocol from local state
==================  =========================================================

Events additionally carry an optional ``cause``: the ``seq`` of the event
that triggered this one, forming the causal-lineage chains the flight
recorder (:mod:`repro.obs.recorder`) walks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

EVENT_KINDS: frozenset[str] = frozenset(
    {
        "route_start",
        "hop",
        "detour",
        "block_hit",
        "extension_fired",
        "route_end",
        "route_failed",
        "protocol_msg",
        "engine_run",
        "span_start",
        "span_end",
        "run_meta",
        "tick",
        "msg_send",
        "msg_deliver",
        "msg_drop",
        "msg_lost",
        "msg_dup",
        "chaos_crash",
        "chaos_revive",
        "epoch_bump",
        "proc_restart",
    }
)


def jsonable(value: Any) -> Any:
    """Coerce an event field to a JSON-serializable shape.

    Coordinates arrive as tuples (-> lists), directions as enums (-> names),
    counts as numpy scalars (-> Python scalars); anything unrecognized falls
    back to ``str`` so emitting can never raise.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)  # numpy scalars, without importing numpy
    if callable(item):
        try:
            return jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


@dataclass(frozen=True)
class TraceEvent:
    """One typed observation.

    ``cause`` is the ``seq`` of the event that triggered this one (or None
    for root events); chains of causes are the flight recorder's lineage.
    """

    kind: str
    seq: int
    data: Mapping[str, Any] = field(default_factory=dict)
    cause: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r} (see EVENT_KINDS)")

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-ready form (tuples -> lists, enums -> names).

        ``cause`` is serialized only when set, so cause-free traces are
        byte-identical to those written before lineage existed.
        """
        out = {"kind": self.kind, "seq": self.seq, "data": jsonable(dict(self.data))}
        if self.cause is not None:
            out["cause"] = self.cause
        return out

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "TraceEvent":
        cause = payload.get("cause")
        return TraceEvent(
            kind=payload["kind"],
            seq=int(payload["seq"]),
            data=dict(payload["data"]),
            cause=None if cause is None else int(cause),
        )

    def __str__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.data.items())
        origin = f" <-{self.cause}" if self.cause is not None else ""
        return f"[{self.seq}]{origin} {self.kind}({fields})"
