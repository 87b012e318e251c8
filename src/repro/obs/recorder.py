"""The flight recorder: deterministic event capture with causal lineage.

A :class:`FlightRecorder` is a :class:`~repro.obs.tracer.Tracer` whose
``recording`` flag makes the simulator's send path emit lineage events:
every decision point -- message send/deliver/drop/duplicate, chaos
crash/revive, epoch fences, process restarts, simulated-time advances --
is emitted as a :class:`~repro.obs.events.TraceEvent` whose ``cause``
names the event that triggered it.  The resulting stream is a complete,
replayable account of one run:

- **lineage** -- follow ``cause`` links backwards (:func:`ancestry`) to
  answer "which message caused this?" across hops, retransmits, and
  chaos epochs;
- **determinism** -- the stream is a pure function of the run recipe
  (mesh, faults, fault-plan seed, schedule), so re-executing the recipe
  must reproduce it bit for bit (:mod:`repro.obs.replay` checks this);
- **seekability** -- recording to a file writes JSONL plus a sidecar
  index (``<log>.idx``) of per-tick byte offsets and *cumulative
  digests* of the canonical event stream, which is what lets the
  divergence bisector binary-search two multi-megabyte logs without
  reading either end to end.

The canonical form of an event (:func:`canonical`) strips wall-clock
fields (span ``duration``) so "bit-identical" compares only simulated
behaviour, never host timing.

The send path checks one cached flag per message to choose these events
over the plain tracer's; with the default null tracer installed nothing
here is ever touched.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
from typing import Any, Iterator, Mapping, Sequence

from repro.obs.events import TraceEvent
from repro.obs.sinks import read_jsonl
from repro.obs.tracer import Tracer

#: Payload keys excluded from canonical comparison: host-time measurements
#: that legitimately differ between a run and its replay.
VOLATILE_KEYS = frozenset({"duration"})

INDEX_VERSION = 1


def canonical(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The comparable form of one serialized event (``TraceEvent.to_dict``):
    identical between a recording and a faithful replay."""
    out = dict(payload)
    data = out.get("data")
    if isinstance(data, Mapping) and any(key in data for key in VOLATILE_KEYS):
        out["data"] = {k: v for k, v in data.items() if k not in VOLATILE_KEYS}
    return out


def canonical_bytes(payload: Mapping[str, Any]) -> bytes:
    """Key-sorted JSON encoding of :func:`canonical`, fed to digests."""
    return json.dumps(canonical(payload), sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def index_path_for(path: str | pathlib.Path) -> pathlib.Path:
    """The sidecar index written next to a recorded log."""
    path = pathlib.Path(path)
    return path.with_name(path.name + ".idx")


class _ListSink:
    """Unbounded in-memory capture (a flight recording must be complete;
    the ring buffer's drop-oldest policy would break replay)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)


class RecorderSink:
    """JSONL persistence plus the seekable sidecar index.

    The index maps every ``tick`` event (simulated-time advance) to its
    byte offset, event id, and the cumulative SHA-256 of the canonical
    stream *before* it -- equal index entries therefore prove equal
    event prefixes, which is the invariant the bisector's binary search
    relies on.
    """

    def __init__(self, target: str | pathlib.Path):
        self.path = pathlib.Path(target)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream: io.TextIOBase = self.path.open("w", encoding="utf-8")
        self._bytes = 0
        self._digest = hashlib.sha256()
        self._marks: list[dict[str, Any]] = []
        self.events_written = 0
        self._closed = False

    def record(self, event: TraceEvent) -> None:
        payload = event.to_dict()
        if event.kind == "tick":
            self._marks.append(
                {
                    "time": payload["data"]["time"],
                    "offset": self._bytes,
                    "event_id": event.seq,
                    "digest": self._digest.hexdigest(),
                }
            )
        line = json.dumps(payload, separators=(",", ":")) + "\n"
        self._stream.write(line)
        self._bytes += len(line.encode("utf-8"))
        self._digest.update(canonical_bytes(payload))
        self.events_written += 1

    def flush(self) -> None:
        self._stream.flush()

    def write_index(self) -> pathlib.Path:
        index = {
            "version": INDEX_VERSION,
            "events": self.events_written,
            "digest": self._digest.hexdigest(),
            "ticks": self._marks,
        }
        index_path = index_path_for(self.path)
        index_path.write_text(json.dumps(index), encoding="utf-8")
        return index_path

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stream.flush()
        self._stream.close()
        self.write_index()


class FlightRecorder(Tracer):
    """A tracer that records everything, with causal lineage.

    Installing one (``use_tracer(FlightRecorder(...))`` or passing it as
    a network/runner tracer) flips the simulator onto its recorded send
    and delivery paths.  Events are always kept in memory (``.events``);
    pass ``target`` to also stream them to a JSONL log with a seekable
    index sidecar (written on :meth:`close`).

    ``cause`` is the recorder's notion of "what is happening right now":
    the network sets it to the active delivery's event id for the span of
    the receiver's handler, so every send made *inside* a handler chains
    to the message that provoked it without any protocol code changing.
    """

    recording = True

    def __init__(self, target: str | pathlib.Path | None = None):
        self._list = _ListSink()
        self._file: RecorderSink | None = None
        sinks: list[Any] = [self._list]
        if target is not None:
            self._file = RecorderSink(target)
            sinks.append(self._file)
        super().__init__(*sinks)
        self.path: pathlib.Path | None = self._file.path if self._file else None
        #: The event id downstream emissions should name as their cause
        #: (None outside any causal context).
        self.cause: int | None = None
        #: Event id of the most recent ``msg_send``/``msg_drop``; reliable
        #: senders stash it next to the outbox entry so a retransmit can
        #: chain to the attempt it is retrying.
        self.last_send_id: int | None = None
        self._last_tick: float | None = None

    def emit(self, kind: str, *, cause: int | None = None, **data: Any) -> int:
        time = data.get("time")
        if time is not None and time != self._last_tick:
            # Synthesize the tick boundary before the event that crossed it.
            self._last_tick = time
            super().emit("tick", time=time)
        return super().emit(kind, cause=cause, **data)

    @contextlib.contextmanager
    def cause_scope(self, event_id: int | None) -> Iterator[None]:
        """Attribute everything emitted inside the block to ``event_id``."""
        previous = self.cause
        self.cause = event_id
        try:
            yield
        finally:
            self.cause = previous

    @property
    def events(self) -> list[TraceEvent]:
        """The complete recorded stream, in emission order."""
        return list(self._list.events)

    def canonical_stream(self) -> list[dict[str, Any]]:
        """Canonical forms of every event (what replay compares)."""
        return [canonical(event.to_dict()) for event in self._list.events]


def read_recording(source: str | pathlib.Path | io.TextIOBase) -> list[TraceEvent]:
    """Load a recorded JSONL log back into events."""
    return read_jsonl(source)


def read_index(path: str | pathlib.Path) -> dict[str, Any] | None:
    """Load the sidecar index of a recorded log; None if absent."""
    index_path = index_path_for(path)
    if not index_path.exists():
        return None
    return json.loads(index_path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Lineage
# ----------------------------------------------------------------------
def event_index(events: Sequence[TraceEvent]) -> dict[int, TraceEvent]:
    """Map event id -> event (ids are the per-recorder ``seq``)."""
    return {event.seq: event for event in events}


def ancestry(
    events: Sequence[TraceEvent] | Mapping[int, TraceEvent], event_id: int
) -> list[TraceEvent]:
    """The causal chain ending at ``event_id``, root first.

    Raises ``KeyError`` if the id (or any ancestor) is not in the stream;
    cycles (impossible for recorder output, where causes always point
    backwards) raise ``ValueError`` instead of looping.
    """
    table = events if isinstance(events, Mapping) else event_index(events)
    chain: list[TraceEvent] = []
    seen: set[int] = set()
    current: int | None = event_id
    while current is not None:
        if current in seen:
            raise ValueError(f"cause cycle through event {current}")
        seen.add(current)
        event = table[current]
        chain.append(event)
        current = event.cause
    chain.reverse()
    return chain


def render_lineage(
    events: Sequence[TraceEvent] | Mapping[int, TraceEvent], event_id: int
) -> str:
    """Human-readable ancestry tree for one event (root at the top)."""
    chain = ancestry(events, event_id)
    lines = []
    for depth, event in enumerate(chain):
        prefix = "" if depth == 0 else "   " * (depth - 1) + "`- "
        lines.append(f"{prefix}{event}")
    return "\n".join(lines)
