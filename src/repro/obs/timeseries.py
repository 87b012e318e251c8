"""Per-tick time series: a zero-dependency ring-buffer TSDB.

Three layers, all deterministic:

- :class:`TimeSeries` -- one bounded ``(tick, value)`` series.  At
  capacity it decimates in place (keeping every second retained sample)
  and doubles its acceptance stride, so memory stays O(capacity) while
  the series keeps covering the whole run at progressively coarser
  resolution.  The retained set is a pure function of the append
  sequence.
- :class:`SampleStore` -- a lock-guarded bag of named series sharing one
  tick domain, safe to snapshot from the metrics server thread while the
  simulation thread appends.
- :class:`TickSampler` / :class:`Observatory` -- the bridge to the
  simulator: a :meth:`~repro.simulator.engine.Engine.set_tick_hook`
  callback that reads engine/network counters (all deterministic
  simulator state, keyed by the simulated clock) into a store and feeds
  the alert engine.  A flight-recorded chaos run and its replay therefore
  produce bit-identical series.

A module-level slot (:func:`use_observatory`) mirrors the tracer
registry: :meth:`MeshNetwork.run` resolves it through the
cached instrumentation flags, so any protocol run inside the context
manager is sampled without the call site threading an observatory
through.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.obs.metrics import MetricStore

if TYPE_CHECKING:
    from repro.obs.alerts import AlertEngine, AlertRule
    from repro.obs.metrics import MetricsSink
    from repro.simulator.network import MeshNetwork

#: Series every :class:`TickSampler` emits (stable names; the metrics
#: server exposes them as ``repro_live_sample{series="..."}``).
SAMPLER_SERIES = (
    "engine.tick",
    "engine.pending",
    "engine.events",
    "net.carried",
    "net.dropped",
    "net.lost",
    "net.duplicated",
    "net.retried",
    "net.links_up",
    "net.faulty",
)


#: Points each :class:`SampleStore` series retains before decimating.
SERIES_CAPACITY = 512


class TimeSeries:
    """A bounded series of ``(tick, value)`` pairs.

    Appending at an existing last tick *replaces* the last value (the
    engine's terminal drain sample lands on the same tick as the final
    boundary), so ticks are strictly increasing.  Once ``capacity``
    retained points exist, every second one is dropped and the acceptance
    stride doubles: from then on only every ``stride``-th appended tick is
    retained, keeping the buffer in ``[capacity // 2, capacity]`` points
    spread over the full run.  Decimation depends only on the append
    sequence -- replaying the same appends rebuilds the identical buffer.
    """

    __slots__ = ("name", "capacity", "ticks", "values", "stride", "_seen")

    def __init__(self, name: str, capacity: int = SERIES_CAPACITY):
        if capacity < 8:
            raise ValueError(f"capacity must be at least 8 (got {capacity})")
        self.name = name
        self.capacity = int(capacity)
        self.ticks: list[float] = []
        self.values: list[float] = []
        self.stride = 1
        self._seen = 0

    def append(self, tick: float, value: float) -> None:
        ticks = self.ticks
        if ticks and tick == ticks[-1]:
            self.values[-1] = value
            return
        seen = self._seen
        self._seen = seen + 1
        if seen % self.stride:
            return
        ticks.append(tick)
        self.values.append(value)
        if len(ticks) >= self.capacity:
            # Keep even positions: retained seen-indices stay exactly the
            # multiples of the doubled stride.
            del ticks[1::2]
            del self.values[1::2]
            self.stride *= 2

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def last(self) -> float | None:
        return self.values[-1] if self.values else None

    @property
    def last_tick(self) -> float | None:
        return self.ticks[-1] if self.ticks else None

    def at_or_before(self, tick: float) -> tuple[float, float] | None:
        """The latest retained ``(tick, value)`` at or before ``tick``
        (linear scan from the end; alert windows are short)."""
        ticks = self.ticks
        for i in range(len(ticks) - 1, -1, -1):
            if ticks[i] <= tick:
                return ticks[i], self.values[i]
        return None

    def bounds(self) -> tuple[float, float]:
        """(min, max) over the retained values; (0, 0) when empty."""
        if not self.values:
            return 0.0, 0.0
        return min(self.values), max(self.values)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ticks": list(self.ticks),
            "values": list(self.values),
            "stride": self.stride,
        }


class SampleStore:
    """Named time series over one shared tick domain, thread-safe.

    The simulation thread appends (one row per tick boundary); the
    metrics server thread snapshots.  All mutation and all copying reads
    happen under one lock; :meth:`get` hands the live series back for the
    single-threaded alert path, which runs inside the tick hook on the
    simulation thread.
    """

    def __init__(self):
        self.capacity = SERIES_CAPACITY
        self._series: dict[str, TimeSeries] = {}
        self._lock = threading.Lock()

    def append(self, tick: float, row: Mapping[str, float]) -> None:
        """Record one sample per named series, all at the same tick."""
        with self._lock:
            series = self._series
            for name, value in row.items():
                ts = series.get(name)
                if ts is None:
                    ts = series[name] = TimeSeries(name, self.capacity)
                ts.append(tick, value)

    def get(self, name: str) -> TimeSeries | None:
        with self._lock:
            return self._series.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def last_tick(self) -> float | None:
        with self._lock:
            ticks = [ts.last_tick for ts in self._series.values() if ts.ticks]
            return max(ticks) if ticks else None

    def last_row(self) -> dict[str, float]:
        """The most recent value of every series (not necessarily all from
        the same tick once decimation strides diverge)."""
        with self._lock:
            return {
                name: ts.values[-1]
                for name, ts in sorted(self._series.items())
                if ts.values
            }

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready copy: ``{"series": {name: {ticks, values, stride}}}``."""
        with self._lock:
            return {
                "series": {
                    name: ts.to_dict() for name, ts in sorted(self._series.items())
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())


class TickSampler:
    """Reads engine/network health counters into a :class:`SampleStore`.

    Everything sampled is deterministic simulator state -- queue depth
    and the O(1) network running totals -- so series depend only on the
    event sequence.  ``metrics`` (an optional
    :class:`~repro.obs.metrics.MetricsSink`) adds per-protocol
    ``msg.<kind>`` counts.  Nothing is sampled until :meth:`bind`.
    """

    __slots__ = ("store", "network", "metrics", "_link_totals")

    def __init__(self, store: SampleStore, metrics: "MetricsSink | None"):
        self.store = store
        self.network: "MeshNetwork | None" = None
        self.metrics = metrics
        self._link_totals = None  # resolved lazily: avoids an import cycle

    def bind(self, network: "MeshNetwork") -> None:
        self.network = network

    def __call__(self, tick: float) -> None:
        link_totals = self._link_totals
        if link_totals is None:
            from repro.simulator.channels import link_totals

            self._link_totals = link_totals
        network = self.network
        if network is None:
            return
        engine = network.engine
        links = link_totals(network)
        row = {
            "engine.tick": float(tick),
            "engine.pending": float(engine.pending),
            "engine.events": float(engine.events_processed),
            "net.carried": float(links["carried"]),
            "net.dropped": float(links["dropped"]),
            "net.lost": float(links["lost"]),
            "net.duplicated": float(links["duplicated"]),
            "net.retried": float(links["retried"]),
            "net.links_up": float(links["links_up"]),
            "net.faulty": float(len(network.faulty)),
        }
        if self.metrics is not None:
            for kind, count in self.metrics.message_counts.items():
                row[f"msg.{kind}"] = float(count)
        self.store.append(tick, row)


class Observatory:
    """One live-telemetry unit: store + sampler + alert engine.

    Construct unbound, then :meth:`watch` a network (or pass it to
    ``ChaosRunner(observatory=...)`` / ``verify_convergence`` and let the
    runner bind it).  It samples once per simulated tick.  Alert firings
    stay on the observatory and are never trace events, so a
    flight-recorded run's event stream (and therefore its replay) is
    identical with or without an observatory attached.  :attr:`families`
    exports the latest samples and the alert state (``repro_live_*`` /
    ``repro_alert_*``).
    """

    def __init__(
        self,
        rules: "tuple[AlertRule, ...] | None" = None,
        metrics: "MetricsSink | None" = None,
    ):
        from repro.obs.alerts import AlertEngine, default_rules

        self.store = SampleStore()
        self.sampler = TickSampler(self.store, metrics)
        self.alerts: AlertEngine = AlertEngine(
            default_rules() if rules is None else rules
        )
        #: Called after each sample + alert pass (``repro top`` hangs its
        #: redraw here).  Must not mutate simulator state.
        self.on_sample: "Callable[[float], None] | None" = None
        # Dotted series names stay in a label: Prometheus forbids them in
        # metric names.  Every store read takes SampleStore's lock.
        store, alerts = self.store, self.alerts
        self.families = families = MetricStore()
        families.declare("repro_live_sample", "gauge",
                         "Latest per-tick sample of each live series.",
                         store.last_row, label="series")
        families.declare("repro_live_points", "gauge",
                         "Ring-buffer points retained per live series.",
                         lambda: {name: len(store.get(name)) for name in store.names()},
                         label="series")
        families.declare("repro_live_tick", "gauge",
                         "Newest sampled simulated tick.", store.last_tick)
        families.declare("repro_alert_active", "gauge",
                         "1 while the alert rule is breaching, else 0.",
                         lambda: {rule.name: rule.name in alerts.active
                                  for rule in alerts.rules},
                         label="rule")
        families.declare("repro_alerts_fired_total", "counter",
                         "Alert excursions (distinct firings) per rule.",
                         alerts.counts, label="rule")

    def watch(self, network: "MeshNetwork") -> "Observatory":
        """Bind the sampler to ``network`` and install the engine tick
        hook (idempotent; re-watching rebinds without clearing series)."""
        self.sampler.bind(network)
        network.engine.set_tick_hook(self._on_tick, 1.0)
        return self

    def _on_tick(self, tick: float) -> None:
        self.sampler(tick)
        self.alerts.evaluate(tick, self.store)
        if self.on_sample is not None:
            self.on_sample(tick)

    @property
    def firing(self) -> tuple[str, ...]:
        """Names of currently-active alert rules."""
        return self.alerts.active

    def healthz(self) -> dict[str, Any]:
        """The ``/healthz`` body: ok unless an alert rule is active."""
        firing = self.alerts.active
        return {
            "status": "alerting" if firing else "ok",
            "tick": self.store.last_tick(),
            "series": len(self.store),
            "alerts": [a.jsonable() for a in self.alerts.firings],
            "firing": list(firing),
        }


# ----------------------------------------------------------------------
# Ambient observatory slot (mirrors the tracer registry)
# ----------------------------------------------------------------------
_observatory: Observatory | None = None


def get_observatory() -> Observatory | None:
    """The ambient observatory, or None (the default: no sampling)."""
    return _observatory


def set_observatory(observatory: Observatory | None) -> Observatory | None:
    """Install the ambient observatory; returns the previous one."""
    global _observatory
    previous = _observatory
    _observatory = observatory
    return previous


@contextmanager
def use_observatory(observatory: Observatory) -> Iterator[Observatory]:
    """Sample every ``MeshNetwork.run`` inside the block into
    ``observatory`` (each run re-binds the sampler to its network)."""
    previous = set_observatory(observatory)
    try:
        yield observatory
    finally:
        set_observatory(previous)
