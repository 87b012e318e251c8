"""Prometheus text exposition of a metrics (and optional profile) snapshot.

:func:`render_prometheus` maps :meth:`MetricsSink.snapshot()
<repro.obs.metrics.MetricsSink.snapshot>` onto the Prometheus text format
(version 0.0.4): counters for tallies, gauges for engine state, and
summaries (``{quantile="0.5"}`` series plus ``_sum``/``_count``) for every
histogram, so ``repro stats --prom`` output can be scraped into standard
dashboards or pushed through a Pushgateway unchanged.

Metric names are stable API: dashboards depend on them.

====================================  =======================================
metric                                source
====================================  =======================================
``repro_events_total{kind=}``         event counter
``repro_protocol_messages_total``     per message kind (``msg=`` label)
``repro_decisions_total{decision=}``  safe-condition decisions fired
``repro_routes_total{outcome=}``      delivered / minimal / sub_minimal / failed
``repro_route_hops``                  summary; hops per delivered leg
``repro_route_detours``               summary; detours per delivered leg
``repro_queue_depth``                 summary; engine queue at each send
``repro_messages_per_tick``           summary; protocol msgs per sim tick
``repro_messages_per_tick_overflow_total``  ticks dropped by the cap
``repro_span_duration_seconds{span=}``      summary per timing span
``repro_engine_now`` / ``_pending``   gauges; latest engine drain
``repro_engine_events_processed_total``     engine lifetime counter
``repro_hot_counter_total{name=}``    profiler hot-path counters
``repro_profile_section_seconds{section=}`` summary per profiled section
``repro_live_sample{series=}``        gauge; latest per-tick sample
``repro_live_points{series=}``        gauge; retained ring-buffer points
``repro_live_tick``                   gauge; newest sampled sim tick
``repro_alert_active{rule=}``         gauge; 1 while the rule breaches
``repro_alerts_fired_total{rule=}``   counter; excursions per alert rule
====================================  =======================================

The ``live``/``alert`` families come from :func:`render_timeseries` (a
:class:`~repro.obs.timeseries.SampleStore` plus optional
:class:`~repro.obs.alerts.AlertEngine`); :class:`~repro.obs.server.TelemetryApp`
concatenates them after the snapshot families on every ``/metrics``
scrape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.obs.alerts import AlertEngine
    from repro.obs.timeseries import SampleStore

#: The quantile labels exported for every summary, mapped to the summary
#: keys produced by :meth:`repro.obs.metrics.Histogram.summary`.
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _num(value: Any) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _series(name: str, labels: dict[str, str] | None, value: Any) -> str:
    if labels:
        rendered = ",".join(f'{k}="{_escape(str(v))}"' for k, v in labels.items())
        return f"{name}{{{rendered}}} {_num(value)}"
    return f"{name} {_num(value)}"


class ExpositionWriter:
    """Incrementally builds a Prometheus text-format exposition.

    Public so other exporters (the serve front end's ``/metrics``) can
    emit families with the same escaping/formatting discipline as the
    built-in renderers; call :meth:`text` for the final body.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def text(self) -> str:
        """The exposition body so far ('' when no family was emitted)."""
        if not self.lines:
            return ""
        return "\n".join(self.lines) + "\n"

    def header(self, name: str, metric_type: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {metric_type}")

    def counter_family(
        self, name: str, help_text: str, label: str, values: dict[str, Any]
    ) -> None:
        if not values:
            return
        self.header(name, "counter", help_text)
        for key, value in sorted(values.items()):
            self.lines.append(_series(name, {label: key}, value))

    def single(self, name: str, metric_type: str, help_text: str, value: Any) -> None:
        self.header(name, metric_type, help_text)
        self.lines.append(_series(name, None, value))

    def summary(
        self,
        name: str,
        summary: dict[str, Any],
        labels: dict[str, str] | None = None,
        scale: float = 1.0,
    ) -> None:
        """One label-set of a summary metric (header emitted separately).

        A sample-free summary -- ``count`` 0 or missing, which external
        snapshots may pair with ``null`` *or stale numbers* in the
        quantile keys -- emits only a zero ``_sum``/``_count`` pair: a
        quantile of an empty population has no value, and fabricating one
        (``Histogram.percentile`` returns None) poisons dashboards.
        """
        count = summary.get("count") or 0
        if count:
            for quantile, key in _QUANTILES:
                value = summary.get(key)
                if value is None:
                    continue
                quantile_labels = dict(labels or {})
                quantile_labels["quantile"] = quantile
                self.lines.append(_series(name, quantile_labels, value * scale))
        total = summary.get("total") or 0.0
        self.lines.append(_series(f"{name}_sum", labels, total * scale))
        self.lines.append(_series(f"{name}_count", labels, count))


def render_prometheus(
    snapshot: dict[str, Any],
    profile: dict[str, Any] | None = None,
    prefix: str = "repro",
) -> str:
    """Render a :class:`~repro.obs.metrics.MetricsSink` snapshot (and an
    optional :meth:`~repro.obs.prof.Profiler.snapshot`) as Prometheus text."""
    w = ExpositionWriter()
    w.counter_family(
        f"{prefix}_events_total", "Trace events recorded, by kind.",
        "kind", snapshot.get("events", {}),
    )
    w.counter_family(
        f"{prefix}_protocol_messages_total",
        "Distributed-protocol messages sent, by message kind.",
        "msg", snapshot.get("protocol_messages", {}),
    )
    w.counter_family(
        f"{prefix}_decisions_total",
        "Safe-condition decisions fired, by decision rule.",
        "decision", snapshot.get("decisions", {}),
    )

    routes = snapshot.get("routes", {})
    if routes:
        outcomes = {
            outcome: routes.get(outcome, 0)
            for outcome in ("delivered", "minimal", "sub_minimal", "failed")
        }
        w.counter_family(
            f"{prefix}_routes_total", "Routed legs, by outcome.",
            "outcome", outcomes,
        )
        w.header(f"{prefix}_route_hops", "summary", "Hops per delivered leg.")
        w.summary(f"{prefix}_route_hops", routes.get("hops", {}))
        w.header(f"{prefix}_route_detours", "summary", "Detours per delivered leg.")
        w.summary(f"{prefix}_route_detours", routes.get("detours", {}))

    protocol = snapshot.get("protocol", {})
    if protocol:
        w.header(f"{prefix}_queue_depth", "summary",
                 "Engine queue depth sampled at each protocol send.")
        w.summary(f"{prefix}_queue_depth", protocol.get("queue_depth", {}))
        w.header(f"{prefix}_messages_per_tick", "summary",
                 "Protocol messages per integer sim-time tick.")
        w.summary(f"{prefix}_messages_per_tick", protocol.get("messages_per_tick", {}))
        w.single(
            f"{prefix}_messages_per_tick_overflow_total", "counter",
            "Messages beyond the distinct-tick cap (not in the per-tick summary).",
            protocol.get("messages_per_tick_overflow", 0),
        )

    spans = snapshot.get("spans", {})
    if spans:
        name = f"{prefix}_span_duration_seconds"
        w.header(name, "summary", "Wall-clock duration of named timing spans.")
        for span, summary in sorted(spans.items()):
            w.summary(name, summary, labels={"span": span})

    engine = snapshot.get("engine", {})
    if engine:
        if "now" in engine:
            w.single(f"{prefix}_engine_now", "gauge",
                     "Simulated time of the latest engine drain.", engine["now"])
        if "pending" in engine:
            w.single(f"{prefix}_engine_pending", "gauge",
                     "Events left pending after the latest engine drain.",
                     engine["pending"])
        if "events_processed" in engine:
            w.single(f"{prefix}_engine_events_processed_total", "counter",
                     "Lifetime events processed by the engine.",
                     engine["events_processed"])

    if profile:
        w.counter_family(
            f"{prefix}_hot_counter_total",
            "Hot-path operations counted by the profiler.",
            "name", profile.get("hot_counters", {}),
        )
        sections = profile.get("sections_ns", {})
        if sections:
            name = f"{prefix}_profile_section_seconds"
            w.header(name, "summary", "Wall-clock duration of profiled sections.")
            for section, summary in sorted(sections.items()):
                w.summary(name, summary, labels={"section": section}, scale=1e-9)

    return "\n".join(w.lines) + "\n"


def render_timeseries(
    store: "SampleStore",
    alerts: "AlertEngine | None" = None,
    prefix: str = "repro",
) -> str:
    """Render live per-tick series (and alert state) as Prometheus text.

    One ``{series=...}`` labelled gauge sample per named series keeps the
    dotted series names (``net.carried``) out of the metric name, where
    Prometheus forbids them.
    """
    w = ExpositionWriter()
    last = store.last_row()
    if last:
        name = f"{prefix}_live_sample"
        w.header(name, "gauge", "Latest per-tick sample of each live series.")
        for series, value in last.items():
            w.lines.append(_series(name, {"series": series}, value))
        name = f"{prefix}_live_points"
        w.header(name, "gauge", "Ring-buffer points retained per live series.")
        for series in store.names():
            ts = store.get(series)
            w.lines.append(_series(name, {"series": series}, 0 if ts is None else len(ts)))
    tick = store.last_tick()
    if tick is not None:
        w.single(f"{prefix}_live_tick", "gauge", "Newest sampled simulated tick.", tick)
    if alerts is not None and alerts.rules:
        active = set(alerts.active)
        name = f"{prefix}_alert_active"
        w.header(name, "gauge", "1 while the alert rule is breaching, else 0.")
        for rule in sorted(r.name for r in alerts.rules):
            w.lines.append(_series(name, {"rule": rule}, rule in active))
        w.counter_family(
            f"{prefix}_alerts_fired_total",
            "Alert excursions (distinct firings) per rule.",
            "rule", alerts.counts(),
        )
    if not w.lines:
        return ""
    return "\n".join(w.lines) + "\n"
