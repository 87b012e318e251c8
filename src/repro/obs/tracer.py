"""Tracers: the emitting side of the observability layer.

Two implementations share one interface:

- :class:`Tracer` fans events out to its sinks, times ``span()`` blocks
  and tallies hot-path counters (``count()``, into ``tracer.hot``, which
  ``tracer.families`` exports as ``repro_hot_counter_total{name=}``);
- :class:`NullTracer` (the module singleton :data:`NULL_TRACER`) does
  nothing; ``enabled`` is False so hot paths can skip even building the
  event payload::

      trc = self.tracer or get_tracer()
      if trc.enabled:
          trc.emit("hop", at=current, to=nxt)

The *current* tracer is a module-level slot (default: the null tracer) so
deep call sites -- ESL computation, block formation, the simulator -- pick
up instrumentation without every caller threading a parameter through.
Install one for a region of code with :func:`use_tracer`, or globally with
:func:`set_tracer`.  Uninstrumented runs therefore pay only an attribute
load and a predictable branch per potential event.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import time
from typing import Any, Iterator

from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricStore
from repro.obs.sinks import Sink


class _Span:
    """A timed section: ``span_start`` on enter, ``span_end`` (with
    ``duration`` in seconds) on exit.

    Both events carry the same ``span_id`` (allocated per tracer), so
    start/end pair up even when spans of the same name interleave; the
    ``span_end`` additionally names its ``span_start`` as its cause.
    """

    __slots__ = ("_tracer", "_name", "_data", "_t0", "span_id", "_start_id")

    def __init__(self, tracer: "Tracer", name: str, data: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._data = data
        self.span_id = next(tracer._span_seq)
        self._start_id: int | None = None

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        self._start_id = self._tracer.emit(
            "span_start", name=self._name, span_id=self.span_id, **self._data
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._t0
        self._tracer.emit(
            "span_end",
            cause=self._start_id,
            name=self._name,
            span_id=self.span_id,
            duration=duration,
            **self._data,
        )


class _NullSpan:
    """Shared do-nothing context manager for the null tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: The hot counters the instrumented hot paths bump (producers in
#: parentheses).  ``tests/test_prof.py`` checks that this is exactly the
#: set of names ``src/`` passes to :meth:`Tracer.count`.
HOT_COUNTER_NAMES: frozenset[str] = frozenset(
    {
        "router.routes",     # HopRouter.route invocations
        "router.steps",      # forwarding steps of delivered legs
        "esl.recompute",     # full ESL grid computations
        "blocks.build",      # faulty-block constructions (Definition 1)
        "mcc.build",         # MCC labellings (Definition 2)
        "sim.messages",      # simulator messages entering a channel
        "sim.dropped",       # simulator messages dropped at a down channel
        "cache.hits",        # scenario-artifact cache hits (repro.parallel)
        "cache.misses",      # scenario-artifact cache misses
        "cache.stale",       # generation-stale entries rebuilt
        "cache.revalidated", # stale entries proven still valid and retagged
        # Incremental fault maintenance (repro.faults.incremental):
        "incr.events",         # fault arrivals/revivals delta-maintained
        "incr.affected_cells", # cells actually perturbed across those events
        "incr.full_rebuilds",  # defensive full-rebuild fallbacks taken
        # Chaos engineering (repro.chaos + repro.simulator.protocols.reliable):
        "chaos.drops",             # messages destroyed in-flight by the fault plan
        "chaos.duplicates",        # ghost copies injected by the fault plan
        "chaos.corrupted",         # payloads delivered with a failed checksum
        "chaos.retries",           # retransmissions by hardened senders
        "chaos.gave_up",           # sends abandoned after DEFAULT_MAX_RETRIES
        "chaos.dup_suppressed",    # duplicate deliveries dropped by dedup
        "chaos.stale_discarded",   # deliveries fenced off by an epoch bump
        "chaos.corrupt_discarded", # corrupted deliveries discarded unacked
        "chaos.reconverge_ticks",  # simulated time spent in stabilization pulses
        "chaos.crashes",           # chaos-schedule crash events applied
        "chaos.revives",           # chaos-schedule revive events applied
    }
)


class Tracer:
    """Emit typed events to one or more sinks."""

    enabled: bool = True
    #: True only on :class:`~repro.obs.recorder.FlightRecorder`; hot paths
    #: cache this to decide whether to emit lineage-carrying events.
    recording: bool = False
    #: Causal-scope slots; only the flight recorder maintains them, but
    #: they exist on every tracer so a recorded delivery that fires after
    #: the recorder was swapped out degrades to no-ops instead of raising.
    cause: int | None = None
    last_send_id: int | None = None

    def __init__(self, *sinks: Sink):
        self._sinks: list[Sink] = list(sinks)
        self._seq = itertools.count()
        self._span_seq = itertools.count()
        self.hot: collections.Counter[str] = collections.Counter()
        self.families = MetricStore()
        self.families.declare("repro_hot_counter_total", "counter",
                              "Hot-path operations counted by the tracer.",
                              self.hot, label="name")

    def emit(self, kind: str, *, cause: int | None = None, **data: Any) -> int:
        """Record one event; returns its event id (the ``seq``) so callers
        can thread it as the ``cause`` of downstream events."""
        event = TraceEvent(kind=kind, seq=next(self._seq), data=data, cause=cause)
        for sink in self._sinks:
            sink.record(event)
        return event.seq

    def span(self, name: str, **data: Any) -> _Span:
        """Context manager timing a section; see :class:`_Span`."""
        return _Span(self, name, data)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the hot counter ``name`` (see
        :data:`HOT_COUNTER_NAMES`).  Counting emits no event, so recorded
        streams and replays are the same with or without it."""
        self.hot[name] += n

    def close(self) -> None:
        """Close every sink that holds resources (e.g. JSONL files)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()


class NullTracer(Tracer):
    """The no-op default: every operation returns immediately."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def emit(self, kind: str, *, cause: int | None = None, **data: Any) -> int:
        return -1

    def span(self, name: str, **data: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The currently installed tracer (the null tracer by default)."""
    return _current


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` (None restores the null tracer); returns the
    previously installed one so callers can restore it."""
    global _current
    previous = _current
    _current = tracer if tracer is not None else NULL_TRACER
    return previous


@contextlib.contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
