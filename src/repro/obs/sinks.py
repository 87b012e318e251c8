"""Event sinks: where emitted trace events go.

A sink is anything with ``record(event)``.  Provided here:

- :class:`RingBufferSink` -- bounded in-memory buffer, the default for
  interactive tracing (``repro trace`` replays it).
- :class:`JsonlSink` -- one JSON object per line; :func:`read_jsonl` loads
  a file back into events, so traces round-trip for offline analysis.

The aggregating :class:`~repro.obs.metrics.MetricsSink` lives in its own
module.
"""

from __future__ import annotations

import collections
import io
import json
import pathlib
from typing import Iterator, Protocol

from repro.obs.events import TraceEvent


class Sink(Protocol):
    """Anything that accepts recorded events."""

    def record(self, event: TraceEvent) -> None: ...


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be >= 1")
        self.capacity = capacity
        self._events: collections.deque[TraceEvent] = collections.deque(maxlen=capacity)

    def record(self, event: TraceEvent) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)


class JsonlSink:
    """Append events to a JSONL file (or any text stream).

    Usable as a context manager: ``with JsonlSink(path) as sink: ...``
    flushes (and, for sinks that opened their own file, closes) on exit.
    The file grows without bound; a run's length bounds it.
    """

    def __init__(self, target: str | pathlib.Path | io.TextIOBase):
        if isinstance(target, (str, pathlib.Path)):
            path = pathlib.Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._stream: io.TextIOBase = path.open("w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.events_written = 0

    def record(self, event: TraceEvent) -> None:
        self._stream.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
        self.events_written += 1

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JsonlDecodeError(ValueError):
    """A JSONL dump contained a line that is not a valid trace event.

    Names the source and the 1-based line number so a corrupt multi-GB
    trace is debuggable without bisecting it by hand.
    """

    def __init__(self, source: str, line_number: int, reason: str):
        super().__init__(f"{source}, line {line_number}: {reason}")
        self.source = source
        self.line_number = line_number
        self.reason = reason


def _parse_lines(lines, source: str) -> list[TraceEvent]:
    events = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            events.append(TraceEvent.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as error:
            raise JsonlDecodeError(source, number, str(error)) from error
    return events


def read_jsonl(source: str | pathlib.Path | io.TextIOBase) -> list[TraceEvent]:
    """Load a JSONL event dump written by :class:`JsonlSink`.

    Raises :class:`JsonlDecodeError` (naming the offending line number) if
    any non-blank line is not a valid serialized :class:`TraceEvent`.
    """
    if isinstance(source, (str, pathlib.Path)):
        path = pathlib.Path(source)
        with path.open("r", encoding="utf-8") as stream:
            return _parse_lines(stream, str(path))
    return _parse_lines(source, getattr(source, "name", "<stream>"))
