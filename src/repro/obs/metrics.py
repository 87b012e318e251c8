"""Metric values, one Prometheus vocabulary, and the one renderer.

:class:`Histogram` is the repo's one percentile function: a streaming
summary whose p50/p95/p99 come from a bounded, deterministically-sampled
reservoir (exact up to :data:`DEFAULT_RESERVOIR_SIZE` observations).

:class:`MetricStore` declares Prometheus families -- full name, type,
HELP text, optional label -- over values that live where they are
counted: a ``collections.Counter`` for a labelled counter, a
:class:`Histogram` (or a dict of them) for a summary, a callable read at
render time for gauges and derived values.  Every producer declares its
families once on its own store (``.families``); :func:`render_prometheus`
renders any sequence of stores as one text exposition (0.0.4), which is
the body of ``repro stats --prom``, ``repro serve-metrics`` and
``repro serve``'s ``/metrics``.

Metric names are stable API: dashboards depend on them.  Families by
the producer that declares them:

==========================================  =============================
metric                                      source
==========================================  =============================
*MetricsSink*
``repro_events_total{kind=}``               event counter
``repro_protocol_messages_total{msg=}``     per protocol message kind
``repro_decisions_total{decision=}``        safe-condition decisions fired
``repro_routes_total{outcome=}``            delivered / minimal /
                                            sub_minimal / failed
``repro_route_hops``                        summary; hops per leg
``repro_route_detours``                     summary; detours per leg
``repro_queue_depth``                       summary; queue at each send
``repro_messages_per_tick``                 summary; msgs per sim tick
``repro_messages_per_tick_overflow_total``  ticks dropped by the cap
``repro_span_duration_seconds{span=}``      summary per timing span
``repro_engine_now`` / ``_pending``         gauges; latest engine drain
``repro_engine_events_processed_total``     engine lifetime counter
*Tracer*
``repro_hot_counter_total{name=}``          ``Tracer.hot``
*Observatory*
``repro_live_sample{series=}``              gauge; latest per-tick sample
``repro_live_points{series=}``              gauge; retained points
``repro_live_tick``                         gauge; newest sampled tick
``repro_alert_active{rule=}``               gauge; 1 while breaching
``repro_alerts_fired_total{rule=}``         excursions per alert rule
*QueryPipeline*
``repro_serve_requests_total{outcome=}``    query outcomes
``repro_serve_arrived_total``               queries submitted: served +
                                            shed + bad_request + error
``repro_serve_retries_total``               staleness backoff retries
``repro_serve_faults_ingested_total``       fault events applied
``repro_serve_latency_seconds``             summary; submit to answer
``repro_serve_queue_depth``                 gauge; admitted, waiting
``repro_serve_staleness_generations``       gauge; snapshot lag
``repro_serve_breaker_open``                gauge; 1 while degraded
``repro_serve_breaker_trips_total``         breaker trips
``repro_serve_generation``                  gauge; engine generation
==========================================  =============================

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

``snapshot()`` returns the whole aggregate as a JSON-ready dict and
``to_table()`` renders it for terminals (``repro stats``).
"""

from __future__ import annotations

import collections
import io
import numbers
import random
from typing import Any, Iterable

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

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._capacity = DEFAULT_RESERVOIR_SIZE
        self._reservoir: list[float] = []
        self._rng = random.Random(2002)
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
        # One read of the cache: a scrape thread may run this while the
        # producing thread's observe() resets it.
        data = self._sorted
        if data is None:
            data = self._sorted = sorted(self._reservoir)
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


_METRIC_TYPES = ("counter", "gauge", "summary")


class MetricStore:
    """Prometheus families declared over values kept elsewhere.

    A family's ``source`` is the object that already holds its value --
    a number, a mapping of label value to number (a labelled family), a
    :class:`Histogram` or a mapping of them (a summary) -- or a
    zero-argument callable returning one, read at render time.  Nothing
    is copied when a value changes: producers keep bumping their own
    Counters and Histograms, and :func:`render_prometheus` reads each
    source once per scrape.
    """

    __slots__ = ("_families",)

    def __init__(self) -> None:
        self._families: list[tuple[str, str, str, str | None, Any]] = []

    def declare(
        self, name: str, metric_type: str, help_text: str, source: Any,
        label: str | None = None,
    ) -> None:
        """Add one family; rendered in declaration order."""
        if metric_type not in _METRIC_TYPES:
            raise ValueError(f"unknown metric type {metric_type!r}")
        self._families.append((name, metric_type, help_text, label, source))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, labels: str, value: Any) -> str:
    text = str(int(value)) if isinstance(value, numbers.Integral) else repr(float(value))
    return f"{name}{{{labels}}} {text}" if labels else f"{name} {text}"


def _summary(lines: list[str], name: str, labels: str, histogram: Histogram) -> None:
    # A quantile of an empty population has no value: a sample-free
    # summary emits only its zero _sum/_count pair.
    if histogram.count:
        prefix = f"{labels}," if labels else ""
        for q in SUMMARY_QUANTILES:
            lines.append(_sample(name, f'{prefix}quantile="{q / 100:g}"',
                                 histogram.percentile(q)))
    lines.append(_sample(f"{name}_sum", labels, histogram.total))
    lines.append(_sample(f"{name}_count", labels, histogram.count))


def render_prometheus(stores: Iterable[MetricStore]) -> str:
    """Render ``stores`` as one Prometheus text exposition (0.0.4).

    Label values are sorted and escaped; a labelled family with no series
    and a family whose source reads None are omitted; '' when nothing
    renders.  A family name declared twice raises ``ValueError``.

    The producers may be running on another thread: a labelled source is
    copied by one C-level ``sorted(mapping.items())`` before any Python
    code walks it, so a dict that grows mid-scrape cannot raise.
    """
    lines: list[str] = []
    seen: set[str] = set()
    for store in stores:
        for name, metric_type, help_text, label, source in store._families:
            if name in seen:
                raise ValueError(f"metric family {name!r} declared twice")
            seen.add(name)
            value = source() if callable(source) else source
            if value is None:
                continue
            if label is None:
                series = [("", value)]
            else:
                series = [(f'{label}="{_escape(str(key))}"', item)
                          for key, item in sorted(value.items())]
                if not series:
                    continue
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric_type}")
            for labels, item in series:
                if metric_type == "summary":
                    _summary(lines, name, labels, item)
                else:
                    lines.append(_sample(name, labels, item))
    return "\n".join(lines) + "\n" if lines else ""


class MetricsSink:
    """Fold the event stream into counters and histograms.

    :data:`DEFAULT_TICK_CAP` bounds the number of *distinct* sim-time ticks
    tracked for the messages-per-tick histogram; messages on later,
    never-seen ticks are tallied in :attr:`tick_overflow` instead of
    growing the map.
    """

    def __init__(self) -> None:
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
        self.tick_cap = DEFAULT_TICK_CAP
        self.tick_overflow = 0
        self._messages_per_tick: collections.Counter[int] = collections.Counter()
        self.families = families = MetricStore()
        families.declare("repro_events_total", "counter",
                         "Trace events recorded, by kind.",
                         self.event_counts, label="kind")
        families.declare("repro_protocol_messages_total", "counter",
                         "Distributed-protocol messages sent, by message kind.",
                         self.message_counts, label="msg")
        families.declare("repro_decisions_total", "counter",
                         "Safe-condition decisions fired, by decision rule.",
                         self.decision_counts, label="decision")
        families.declare("repro_routes_total", "counter",
                         "Routed legs, by outcome.", self._route_outcomes,
                         label="outcome")
        families.declare("repro_route_hops", "summary",
                         "Hops per delivered leg.", self.hops_per_route)
        families.declare("repro_route_detours", "summary",
                         "Detours per delivered leg.", self.detours_per_route)
        families.declare("repro_queue_depth", "summary",
                         "Engine queue depth sampled at each protocol send.",
                         self.queue_depth)
        families.declare("repro_messages_per_tick", "summary",
                         "Protocol messages per integer sim-time tick.",
                         self.messages_per_tick)
        families.declare(
            "repro_messages_per_tick_overflow_total", "counter",
            "Messages beyond the distinct-tick cap (not in the per-tick summary).",
            lambda: self.tick_overflow,
        )
        families.declare("repro_span_duration_seconds", "summary",
                         "Wall-clock duration of named timing spans.",
                         self.span_durations, label="span")
        families.declare("repro_engine_now", "gauge",
                         "Simulated time of the latest engine drain.",
                         lambda: self.engine.get("now"))
        families.declare("repro_engine_pending", "gauge",
                         "Events left pending after the latest engine drain.",
                         lambda: self.engine.get("pending"))
        families.declare("repro_engine_events_processed_total", "counter",
                         "Lifetime events processed by the engine.",
                         lambda: self.engine.get("events_processed"))

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
        # One C-level copy first: a scrape may run while record() adds ticks.
        for count in list(self._messages_per_tick.values()):
            histogram.observe(count)
        return histogram

    def _route_outcomes(self) -> dict[str, int]:
        delivered, minimal = self.routes_delivered, self.routes_minimal
        return {"delivered": delivered, "minimal": minimal,
                "sub_minimal": delivered - minimal, "failed": self.routes_failed}

    def snapshot(self) -> dict[str, Any]:
        """The whole aggregate as a JSON-serializable dict."""
        return jsonable(
            {
                "events": dict(sorted(self.event_counts.items())),
                "protocol_messages": dict(sorted(self.message_counts.items())),
                "decisions": dict(sorted(self.decision_counts.items())),
                "routes": {
                    **self._route_outcomes(),
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

    def to_table(self) -> str:
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
        if self.span_durations:
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
