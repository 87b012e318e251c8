"""Zero-dependency observability layer: tracing, metrics, timing spans.

Every router, protocol, and hot computation in this library can report what
it is doing through a :class:`~repro.obs.tracer.Tracer`:

- typed events (:mod:`repro.obs.events`) describe routing decisions
  (``hop``, ``detour``, ``block_hit``, ``extension_fired``), protocol
  traffic (``protocol_msg``, ``engine_run``), and timed sections
  (``span_start`` / ``span_end``);
- sinks (:mod:`repro.obs.sinks`) buffer events in memory or persist them
  as JSONL; the aggregating :class:`~repro.obs.metrics.MetricsSink` folds
  the stream into counters and histograms online;
- hot-path counters (``tracer.count("router.steps")``) tally into
  ``tracer.hot`` without entering the event stream;
- every producer (metrics sink, tracer, observatory, serve pipeline)
  declares its Prometheus families once on a
  :class:`~repro.obs.metrics.MetricStore` over the Counters and
  Histograms it already keeps, and :func:`~repro.obs.metrics.render_prometheus`
  renders any set of stores as one ``/metrics`` body;
- the default tracer is a no-op (:data:`~repro.obs.tracer.NULL_TRACER`),
  so uninstrumented runs pay only an ``enabled`` check per potential event
  or count.

Typical use::

    from repro.obs import MetricsSink, RingBufferSink, Tracer, use_tracer

    ring, metrics = RingBufferSink(), MetricsSink()
    with use_tracer(Tracer(ring, metrics)):
        router.route(source, dest)
    for event in ring:
        print(event)
    print(metrics.to_table())

``python -m repro trace`` and ``python -m repro stats`` expose the same
machinery from the command line.

On top of tracing sit the performance-observatory pieces:

- :mod:`repro.obs.metrics` -- the metric vocabulary table and the one
  Prometheus renderer (``repro stats --prom``, both ``/metrics``
  routes);
- every :class:`~repro.obs.metrics.Histogram` carries deterministic
  p50/p95/p99 percentiles from a bounded, seeded reservoir, the one
  percentile function in ``src/``.

And the flight recorder (:mod:`repro.obs.recorder` /
:mod:`repro.obs.replay`): install a :class:`FlightRecorder` and the
simulator captures every decision point with causal lineage into a
replayable, seekable log -- ``repro replay`` re-executes it and asserts
bit-identical event streams, ``--at`` time-travels, ``--lineage`` walks
ancestry, and ``--bisect`` binary-searches two logs to their first
divergent event.

The live-telemetry observatory turns all of this from post-mortem into
realtime (``repro top`` / ``repro serve-metrics``):

- :mod:`repro.obs.timeseries` -- a ring-buffer TSDB fed by a per-tick
  engine hook (:class:`TimeSeries`, :class:`SampleStore`,
  :class:`Observatory`); samples are keyed by the simulated clock, so a
  flight-recorded run replays to bit-identical series;
- :mod:`repro.obs.alerts` -- threshold / rate / ratio / stall rules
  evaluated per tick (convergence stall, retransmit storm, queue
  runaway, drop-rate SLO), latched into :class:`Alert` firings that land
  in chaos reports;
- :mod:`repro.obs.server` -- the one asyncio HTTP listener
  (:class:`HttpApp`, driven by :func:`run_app`) and its telemetry routes
  (:class:`TelemetryApp`: ``/metrics``, ``/series.json``, ``/healthz``,
  ``/readyz``), plus atomic push-to-file for headless CI;
- :mod:`repro.obs.dashboard` -- the ANSI sparkline panel behind
  ``repro top``.
"""

from repro.obs.alerts import (
    Alert,
    AlertEngine,
    AlertRule,
    RateRule,
    RatioRule,
    StallRule,
    ThresholdRule,
    convergence_stall,
    default_rules,
    drop_rate_slo,
    queue_runaway,
    retransmit_storm,
)
from repro.obs.dashboard import Dashboard, sparkline
from repro.obs.events import EVENT_KINDS, TraceEvent, jsonable
from repro.obs.metrics import Histogram, MetricsSink, MetricStore, render_prometheus
from repro.obs.recorder import (
    FlightRecorder,
    RecorderSink,
    ancestry,
    canonical,
    read_index,
    read_recording,
    render_lineage,
)
from repro.obs.replay import (
    DivergenceReport,
    ReplayResult,
    StateSnapshot,
    bisect_logs,
    bisect_streams,
    replay_events,
    replay_recording,
    state_at,
)
from repro.obs.server import HttpApp, TelemetryApp, atomic_write_text, run_app
from repro.obs.sinks import (
    JsonlDecodeError,
    JsonlSink,
    RingBufferSink,
    Sink,
    read_jsonl,
)
from repro.obs.timeseries import (
    SAMPLER_SERIES,
    Observatory,
    SampleStore,
    TickSampler,
    TimeSeries,
    get_observatory,
    set_observatory,
    use_observatory,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "Alert",
    "AlertEngine",
    "AlertRule",
    "Dashboard",
    "DivergenceReport",
    "EVENT_KINDS",
    "FlightRecorder",
    "Histogram",
    "HttpApp",
    "JsonlDecodeError",
    "JsonlSink",
    "MetricStore",
    "MetricsSink",
    "NULL_TRACER",
    "NullTracer",
    "Observatory",
    "RateRule",
    "RatioRule",
    "RecorderSink",
    "ReplayResult",
    "RingBufferSink",
    "SAMPLER_SERIES",
    "SampleStore",
    "Sink",
    "StallRule",
    "StateSnapshot",
    "TelemetryApp",
    "ThresholdRule",
    "TickSampler",
    "TimeSeries",
    "TraceEvent",
    "Tracer",
    "ancestry",
    "atomic_write_text",
    "bisect_logs",
    "bisect_streams",
    "canonical",
    "convergence_stall",
    "default_rules",
    "drop_rate_slo",
    "get_observatory",
    "get_tracer",
    "jsonable",
    "queue_runaway",
    "read_index",
    "read_jsonl",
    "read_recording",
    "render_lineage",
    "render_prometheus",
    "replay_events",
    "replay_recording",
    "retransmit_storm",
    "run_app",
    "set_observatory",
    "set_tracer",
    "sparkline",
    "use_observatory",
    "use_tracer",
]
