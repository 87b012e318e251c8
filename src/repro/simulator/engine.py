"""Discrete-event engine.

A minimal, deterministic event queue: callbacks scheduled at simulated
times, executed in time order (FIFO among equal timestamps, so runs are
reproducible).

The queue is a tick-bucketed calendar queue in the spirit of Brown's
calendar queues (CACM 1988).  Every distinct timestamp owns one FIFO
bucket; a small heap orders the *distinct* timestamps.  The mesh protocols
all schedule at ``now + latency`` with one uniform latency, so the heap
holds only a handful of entries while the per-event cost collapses to a
dict probe plus a deque append/popleft -- no O(log n) sift and no
per-event wrapper object.  Buckets are keyed by the exact float
timestamp, so events pop in ``(time, insertion order)`` order for *any*
timestamp pattern, not just uniform latencies.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable

class Engine:
    """Time-ordered callback executor."""

    __slots__ = (
        "now", "events_processed", "_buckets", "_times", "_count",
        "_tick_hook", "_tick_interval", "_next_tick",
    )

    def __init__(self) -> None:
        self.now: float = 0.0
        self.events_processed: int = 0
        self._buckets: dict[float, deque[tuple[Callable[..., None], tuple[Any, ...]]]] = {}
        self._times: list[float] = []
        self._count = 0
        self._tick_hook: Callable[[float], None] | None = None
        self._tick_interval: float = 1.0
        self._next_tick: float = 0.0

    def set_tick_hook(
        self, hook: Callable[[float], None] | None, interval: float = 1.0
    ) -> None:
        """Install (or clear, with None) a per-tick sampling hook.

        While a hook is installed, :meth:`run` calls ``hook(tick)`` once
        for every multiple of ``interval`` the simulated clock crosses,
        *before* executing the first event at-or-past that boundary, plus
        once at the end of each drain (same tick as the last event, so
        ring-buffer stores that replace equal-tick samples see the final
        state).  Tick values depend only on the event sequence, never on
        wall clock, so a recorded run and its replay produce identical
        hook calls.

        :meth:`run` has one loop with or without a hook: an absent hook
        is an infinite next-tick sentinel, so the hook costs nothing
        beyond the one float compare per event that is always paid.  A
        boundary sample observes the queue *after* the triggering event
        was dequeued (``pending`` excludes the event being dispatched).
        :meth:`step` never fires the hook.
        """
        if hook is not None and not interval > 0:
            raise ValueError(f"tick interval must be positive (got {interval})")
        self._tick_hook = hook
        self._tick_interval = float(interval)
        self._next_tick = self.now

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = deque()
            heapq.heappush(self._times, time)
        bucket.append((callback, args))
        self._count += 1

    def _pop(self) -> tuple[float, Callable[..., None], tuple[Any, ...]]:
        """Dequeue the earliest event (FIFO within its timestamp)."""
        time = self._times[0]
        bucket = self._buckets[time]
        callback, args = bucket.popleft()
        if not bucket:
            del self._buckets[time]
            heapq.heappop(self._times)
        self._count -= 1
        return time, callback, args

    def clear(self) -> None:
        """Drop every queued event without running it."""
        self._buckets.clear()
        self._times.clear()
        self._count = 0

    @property
    def pending(self) -> int:
        return self._count

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        if not self._count:
            return False
        time, callback, args = self._pop()
        self.now = time
        self.events_processed += 1
        callback(*args)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events processed.

        ``until`` stops before events later than the given time and leaves
        the clock *at* the requested horizon (``now == until`` even when
        the queue runs dry or the next event lies beyond it); an event
        whose timestamp equals the horizon *is* delivered, including
        timestamps that drifted a few ulps past it through float
        accumulation (three chained 0.1 delays land at
        0.30000000000000004, which must still count as "at" 0.3 --
        otherwise the event is neither delivered nor ever deliverable by
        a later ``run(until=0.3)``).
        ``max_events`` bounds runaway protocols (raises if exceeded).

        ``events_processed`` (incremented here and by :meth:`step`) is the
        single source of truth; this method counts against a snapshot of
        it, so the lifetime total and the per-run count can never drift
        apart.

        One loop covers every argument shape and the tick hook (see
        :meth:`set_tick_hook`): a missing hook, horizon or budget is an
        infinite sentinel, so each event costs three float compares.
        """
        start = self.events_processed
        pop = self._pop
        times = self._times
        hook = self._tick_hook
        interval = self._tick_interval
        nt = math.inf if hook is None else self._next_tick
        # Scale-aware slack: large enough to absorb accumulated rounding
        # over thousands of chained delays, far smaller than any tick
        # granularity the protocols use.
        horizon = math.inf if until is None else until + 4096.0 * math.ulp(max(1.0, abs(until)))
        limit = math.inf if max_events is None else start + max_events
        try:
            while self._count:
                if times[0] > horizon:
                    break
                if self.events_processed >= limit:
                    raise RuntimeError(
                        f"event budget of {max_events} exhausted at t={self.now} "
                        f"({self.pending} events pending)"
                    )
                time, callback, args = pop()
                if time >= nt:
                    while nt <= time:
                        hook(nt)
                        nt += interval
                self.now = time
                self.events_processed += 1
                callback(*args)
            if until is not None and self.now < until:
                self.now = until
            if hook is not None and self.events_processed > start:
                # Trailing idle boundaries (an ``until`` horizon past the
                # last event), then a terminal sample of the post-drain
                # state.  Skip the terminal call only when one of *these*
                # idle boundaries already landed exactly on ``now`` -- a
                # boundary fired pop-side before the final event sampled
                # pre-event state and must not suppress it.
                sampled_now = False
                while nt <= self.now:
                    hook(nt)
                    sampled_now = nt == self.now
                    nt += interval
                if not sampled_now:
                    hook(self.now)
        finally:
            if hook is not None:
                self._next_tick = nt
        return self.events_processed - start

    def metrics_snapshot(self) -> dict[str, float | int]:
        """Counters for the observability layer's ``engine_run`` events."""
        return {
            "now": self.now,
            "pending": self.pending,
            "events_processed": self.events_processed,
        }
