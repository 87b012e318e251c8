"""Aggregating metrics sink: counters and histograms over the event stream.

:class:`MetricsSink` turns a trace into the numbers the paper's evaluation
is built from, online and without buffering events:

- a counter per event kind (``hop``, ``detour``, ``block_hit``, ...);
- per-message-kind counts and queue-depth / messages-per-tick histograms
  for the distributed protocols (``protocol_msg`` events);
- hops-per-route / detours-per-route histograms plus minimal / sub-minimal
  / failed route tallies (``route_end`` / ``route_failed`` events).  Route
  tallies count *driver-loop legs*: a two-phase extension route contributes
  one ``route_end`` per Wu-protocol leg, while its single neighbour hop is
  reported as a plain ``hop`` event and the sub-minimal intent shows up in
  the decision tally (``spare-neighbor-safe``);
- a decision tally per fired safe-condition rule (``extension_fired``);
- a duration histogram per named span (``span_end``);
- the latest engine drain snapshot (``engine_run``: events processed,
  pending queue, simulated time).

Every :class:`Histogram` keeps a bounded, deterministically-sampled
reservoir alongside its running aggregates, so every summary carries
p50/p95/p99 tail statistics -- the quantities the paper's worst-case
overhead discussion (and any regression gate) actually cares about.

``snapshot()`` returns the whole aggregate as a JSON-ready dict;
``to_table()`` renders it for terminals (``repro stats``);
``to_prometheus()`` renders it in the Prometheus text exposition format
(``repro stats --prom``).
"""

from __future__ import annotations

import collections
import io
import random
from typing import Any, Mapping

from repro.obs.events import TraceEvent, jsonable

#: Reservoir entries kept per histogram; below this every percentile is
#: exact, above it the reservoir is a deterministic uniform sample.
DEFAULT_RESERVOIR_SIZE = 4096

#: Distinct sim-time ticks tracked by :class:`MetricsSink` before further
#: *new* ticks are folded into the overflow counter (satellite: unbounded
#: per-tick Counters leaked memory on long simulator runs).
DEFAULT_TICK_CAP = 4096

#: The quantiles every summary reports.
SUMMARY_QUANTILES = (50.0, 95.0, 99.0)


class Histogram:
    """Streaming summary of one numeric quantity with tail percentiles.

    Running aggregates (count/total/min/max) are exact.  Percentiles come
    from a bounded reservoir filled by Vitter's algorithm R with a
    *seeded* ``random.Random``, so two runs observing the same sequence
    report identical percentiles -- determinism the trace CLI and the
    metrics snapshots rely on.  While ``count`` is within the
    reservoir capacity the percentiles are exact, not sampled.
    """

    __slots__ = ("count", "total", "min", "max", "_capacity", "_reservoir",
                 "_rng", "_sorted")

    def __init__(
        self,
        reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
        seed: int = 2002,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._capacity = reservoir_size
        self._reservoir: list[float] = []
        self._rng = random.Random(seed)
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
            self._sorted = None
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._reservoir[slot] = value
                self._sorted = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """The q-th percentile (``0 <= q <= 100``) of the retained sample,
        with linear interpolation between ranks; None when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if not self._reservoir:
            return None
        if self._sorted is None:
            self._sorted = sorted(self._reservoir)
        data = self._sorted
        rank = (q / 100.0) * (len(data) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(data) - 1)
        fraction = rank - lower
        return data[lower] + (data[upper] - data[lower]) * fraction

    def summary(self) -> dict[str, float | None]:
        """JSON-ready aggregate.  ``min``/``max`` and the percentiles are
        None (JSON null) when nothing was observed, so an empty histogram
        is distinguishable from one that observed zeros."""
        summary: dict[str, float | None] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        for q in SUMMARY_QUANTILES:
            summary[f"p{q:g}"] = self.percentile(q)
        return summary

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.3g})"


class MetricsSink:
    """Fold the event stream into counters and histograms.

    ``tick_cap`` bounds the number of *distinct* sim-time ticks tracked for
    the messages-per-tick histogram; messages on later, never-seen ticks
    are tallied in :attr:`tick_overflow` instead of growing the map.
    """

    def __init__(self, tick_cap: int = DEFAULT_TICK_CAP) -> None:
        if tick_cap < 1:
            raise ValueError("tick_cap must be >= 1")
        self.event_counts: collections.Counter[str] = collections.Counter()
        self.message_counts: collections.Counter[str] = collections.Counter()
        self.decision_counts: collections.Counter[str] = collections.Counter()
        self.hops_per_route = Histogram()
        self.detours_per_route = Histogram()
        self.queue_depth = Histogram()
        self.span_durations: dict[str, Histogram] = {}
        self.routes_delivered = 0
        self.routes_minimal = 0
        self.routes_failed = 0
        self.engine: dict[str, Any] = {}
        self.tick_cap = tick_cap
        self.tick_overflow = 0
        self._messages_per_tick: collections.Counter[int] = collections.Counter()

    # ------------------------------------------------------------------
    def record(self, event: TraceEvent) -> None:
        self.event_counts[event.kind] += 1
        data = event.data
        if event.kind == "protocol_msg":
            self.message_counts[str(data.get("msg", "?"))] += 1
            if "queue" in data:
                self.queue_depth.observe(data["queue"])
            if "time" in data:
                tick = int(data["time"])
                if tick in self._messages_per_tick or len(self._messages_per_tick) < self.tick_cap:
                    self._messages_per_tick[tick] += 1
                else:
                    self.tick_overflow += 1
        elif event.kind == "route_end":
            self.routes_delivered += 1
            self.hops_per_route.observe(data.get("hops", 0))
            self.detours_per_route.observe(data.get("detours", 0))
            if data.get("minimal"):
                self.routes_minimal += 1
        elif event.kind == "route_failed":
            self.routes_failed += 1
        elif event.kind == "extension_fired":
            self.decision_counts[str(data.get("decision", "?"))] += 1
        elif event.kind == "span_end":
            name = str(data.get("name", "?"))
            self.span_durations.setdefault(name, Histogram()).observe(
                data.get("duration", 0.0)
            )
        elif event.kind == "engine_run":
            self.engine = dict(data)

    # ------------------------------------------------------------------
    def messages_per_tick(self) -> Histogram:
        """Histogram of protocol messages sent per integer sim-time tick."""
        histogram = Histogram()
        for count in self._messages_per_tick.values():
            histogram.observe(count)
        return histogram

    def snapshot(self) -> dict[str, Any]:
        """The whole aggregate as a JSON-serializable dict."""
        return jsonable(
            {
                "events": dict(sorted(self.event_counts.items())),
                "protocol_messages": dict(sorted(self.message_counts.items())),
                "decisions": dict(sorted(self.decision_counts.items())),
                "routes": {
                    "delivered": self.routes_delivered,
                    "minimal": self.routes_minimal,
                    "sub_minimal": self.routes_delivered - self.routes_minimal,
                    "failed": self.routes_failed,
                    "hops": self.hops_per_route.summary(),
                    "detours": self.detours_per_route.summary(),
                },
                "protocol": {
                    "queue_depth": self.queue_depth.summary(),
                    "messages_per_tick": self.messages_per_tick().summary(),
                    "messages_per_tick_overflow": self.tick_overflow,
                },
                "spans": {
                    name: histogram.summary()
                    for name, histogram in sorted(self.span_durations.items())
                },
                "engine": self.engine,
            }
        )

    def to_prometheus(self, hot_counters: Mapping[str, int] | None = None) -> str:
        """The snapshot in Prometheus text exposition format.

        ``hot_counters`` optionally adds a tracer's :attr:`Tracer.hot
        <repro.obs.tracer.Tracer>` tallies to the export.
        """
        from repro.obs.prometheus import render_prometheus

        return render_prometheus(self.snapshot(), hot_counters=hot_counters)

    def to_table(self, with_timings: bool = True) -> str:
        """Aligned text rendering of the snapshot."""
        out = io.StringIO()

        def section(title: str, rows: list[tuple[str, str]]) -> None:
            if not rows:
                return
            out.write(f"{title}\n")
            width = max(len(label) for label, _ in rows)
            for label, value in rows:
                out.write(f"  {label:<{width}}  {value}\n")

        def tail(histogram: Histogram) -> str:
            if not histogram.count:
                return "n/a"
            p95 = histogram.percentile(95.0)
            assert p95 is not None and histogram.max is not None
            return (f"mean {histogram.mean:.2f} p95 {p95:g} "
                    f"max {histogram.max:g}")

        section(
            "events",
            [(kind, str(count)) for kind, count in sorted(self.event_counts.items())],
        )
        section(
            "protocol messages",
            [(kind, str(count)) for kind, count in sorted(self.message_counts.items())],
        )
        section(
            "decisions fired",
            [(kind, str(count)) for kind, count in sorted(self.decision_counts.items())],
        )
        if self.routes_delivered or self.routes_failed:
            rows = [
                ("delivered", str(self.routes_delivered)),
                ("minimal", str(self.routes_minimal)),
                ("sub-minimal", str(self.routes_delivered - self.routes_minimal)),
                ("failed", str(self.routes_failed)),
                ("hops/route", tail(self.hops_per_route)),
                ("detours/route", tail(self.detours_per_route)),
            ]
            section("routes", rows)
        if self.queue_depth.count:
            rows = [
                ("queue depth", tail(self.queue_depth)),
                ("msgs/tick", tail(self.messages_per_tick())),
            ]
            if self.tick_overflow:
                rows.append(("tick overflow", str(self.tick_overflow)))
            section("simulator", rows)
        if self.engine:
            section(
                "engine",
                [(key, f"{value:g}" if isinstance(value, (int, float)) else str(value))
                 for key, value in self.engine.items()],
            )
        if with_timings and self.span_durations:
            section(
                "spans",
                [
                    (name, f"x{h.count}  total {h.total * 1e3:.2f}ms  "
                           f"mean {h.mean * 1e3:.3f}ms  "
                           f"p95 {(h.percentile(95.0) or 0.0) * 1e3:.3f}ms")
                    for name, h in sorted(self.span_durations.items())
                ],
            )
        return out.getvalue().rstrip("\n")
