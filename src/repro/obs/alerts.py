"""Alert rules over live time series.

Rules are pure predicates over a :class:`~repro.obs.timeseries.SampleStore`
-- each :meth:`~AlertRule.check` returns the breaching value or None --
evaluated by an :class:`AlertEngine` once per sampled tick.  A rule fires
after ``for_ticks`` consecutive breaching samples and stays latched until
a non-breaching sample resolves it (one :class:`Alert` per excursion, not
per tick).

Four rule shapes cover the built-in health checks:

- :class:`ThresholdRule` -- latest value vs a constant
  (``queue-runaway``: pending event depth past a hard ceiling;
  ``convergence-stall``: the sim clock past the deadline by which a
  healthy run has drained).
- :class:`RateRule` -- rate of change over a trailing tick window.
- :class:`RatioRule` -- delta-over-window of one series relative to
  another, optionally net of an ``offset`` series (``retransmit-storm``:
  retries into *live* links -- retried minus dropped -- dominate carried
  traffic; ``drop-rate-slo``: chaos losses exceed the loss budget).
- :class:`StallRule` -- activity without progress: one counter advancing
  while another is frozen over the window.

The built-in thresholds are calibrated against this simulator's hardened
protocol, whose baseline includes a long benign tail: senders retransmit
into permanently-dead initial-fault neighbours (counted as both retried
and dropped) with exponential backoff until they give up.  Raw
retried-without-carried is therefore *normal*, which is why the storm
rule subtracts dropped from retried and why the stall check is a
deadline on the sim clock rather than a traffic-shape heuristic.

Firings are first-class trace events (kind ``"alert"``), but only through
a tracer handed to the engine explicitly -- never the ambient one.  A
flight recording's replay rebuilds the run from the recipe alone, which
says nothing about observatories, so alert events in the recorded stream
would make every replay diverge.  Chaos reports instead carry the firings
directly (:class:`~repro.chaos.verify.ConvergenceReport` ``.alerts``).
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.obs.timeseries import SampleStore, TimeSeries
    from repro.obs.tracer import Tracer

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


@dataclass(frozen=True)
class Alert:
    """One firing: a rule crossed into breach at ``tick``."""

    rule: str
    series: str
    tick: float
    value: float
    message: str

    def jsonable(self) -> dict[str, Any]:
        return asdict(self)

    def __str__(self) -> str:
        return f"[{self.rule}] t={self.tick:g}: {self.message}"


def _window_delta(series: "TimeSeries | None", window: float) -> tuple[float, float] | None:
    """(delta, span) of ``series`` over its trailing ``window`` ticks.

    None until the series covers a full window, so rules stay quiet
    during warm-up instead of firing on a half-formed view.
    """
    if series is None or len(series) < 2:
        return None
    now = series.ticks[-1]
    anchor = series.at_or_before(now - window)
    if anchor is None:
        return None
    then_tick, then_value = anchor
    span = now - then_tick
    if span <= 0:
        return None
    return series.values[-1] - then_value, span


class AlertRule:
    """Base rule: name, watched series, and the consecutive-breach gate."""

    def __init__(self, name: str, series: str, *, for_ticks: int = 1, description: str = ""):
        if for_ticks < 1:
            raise ValueError(f"for_ticks must be >= 1 (got {for_ticks})")
        self.name = name
        self.series = series
        self.for_ticks = int(for_ticks)
        self.description = description

    def check(self, store: "SampleStore") -> float | None:
        """The breaching value, or None when healthy."""
        raise NotImplementedError

    def describe(self, value: float) -> str:
        return self.description or f"{self.series} breached ({value:g})"


class ThresholdRule(AlertRule):
    """Latest sample of one series compared against a constant."""

    def __init__(
        self,
        name: str,
        series: str,
        op: str,
        threshold: float,
        *,
        for_ticks: int = 1,
        description: str = "",
    ):
        super().__init__(name, series, for_ticks=for_ticks, description=description)
        self._op = _OPS[op]
        self.op = op
        self.threshold = float(threshold)

    def check(self, store: "SampleStore") -> float | None:
        ts = store.get(self.series)
        if ts is None or not ts.values:
            return None
        value = ts.values[-1]
        return value if self._op(value, self.threshold) else None

    def describe(self, value: float) -> str:
        return (
            self.description
            or f"{self.series} = {value:g} ({self.op} {self.threshold:g})"
        )


class RateRule(AlertRule):
    """Rate of change (delta per tick) over a trailing window."""

    def __init__(
        self,
        name: str,
        series: str,
        op: str,
        threshold: float,
        *,
        window: float = 8.0,
        for_ticks: int = 1,
        description: str = "",
    ):
        super().__init__(name, series, for_ticks=for_ticks, description=description)
        self._op = _OPS[op]
        self.op = op
        self.threshold = float(threshold)
        self.window = float(window)

    def check(self, store: "SampleStore") -> float | None:
        delta = _window_delta(store.get(self.series), self.window)
        if delta is None:
            return None
        rate = delta[0] / delta[1]
        return rate if self._op(rate, self.threshold) else None

    def describe(self, value: float) -> str:
        return (
            self.description
            or f"{self.series} rate {value:g}/tick ({self.op} {self.threshold:g})"
        )


class RatioRule(AlertRule):
    """Delta of one series relative to another's over the same window.

    ``floor`` is the minimum numerator delta worth alerting on: a window
    with two retries and one carried message is noise, not a storm.
    ``offset`` names a series whose window delta is subtracted from the
    numerator's before the floor and ratio checks -- the storm rule uses
    it to discount retries that went into down links (every such retry
    also increments dropped), leaving only retries into live channels.
    """

    def __init__(
        self,
        name: str,
        numerator: str,
        denominator: str,
        threshold: float,
        *,
        window: float = 8.0,
        floor: float = 4.0,
        offset: str | None = None,
        for_ticks: int = 1,
        description: str = "",
    ):
        super().__init__(name, numerator, for_ticks=for_ticks, description=description)
        self.denominator = denominator
        self.threshold = float(threshold)
        self.window = float(window)
        self.floor = float(floor)
        self.offset = offset

    def check(self, store: "SampleStore") -> float | None:
        num = _window_delta(store.get(self.series), self.window)
        den = _window_delta(store.get(self.denominator), self.window)
        if num is None or den is None:
            return None
        amount = num[0]
        if self.offset is not None:
            off = _window_delta(store.get(self.offset), self.window)
            if off is None:
                return None
            amount -= off[0]
        if amount < self.floor:
            return None
        ratio = amount / max(den[0], 1.0)
        return ratio if ratio > self.threshold else None

    def describe(self, value: float) -> str:
        if self.description:
            return self.description
        numerator = self.series
        if self.offset is not None:
            numerator = f"({self.series} - {self.offset})"
        return (
            f"{numerator}/{self.denominator} ratio {value:.2f} over "
            f"{self.window:g} ticks (> {self.threshold:g})"
        )


class StallRule(AlertRule):
    """Activity on one series while another makes no progress.

    Breaches when the activity series moved by at least ``floor`` over
    the window but the progress series did not: sim time is passing,
    work (whatever ``activity`` counts) keeps happening, and nothing
    lands.  Size ``floor`` above the benign churn of the system being
    watched -- in this simulator, retries into permanently-dead initial
    faults make small retried-without-carried windows part of every
    healthy run.
    """

    def __init__(
        self,
        name: str,
        progress: str,
        activity: str,
        *,
        window: float = 8.0,
        floor: float = 1.0,
        for_ticks: int = 1,
        description: str = "",
    ):
        super().__init__(name, progress, for_ticks=for_ticks, description=description)
        self.activity = activity
        self.window = float(window)
        self.floor = float(floor)

    def check(self, store: "SampleStore") -> float | None:
        progress = _window_delta(store.get(self.series), self.window)
        activity = _window_delta(store.get(self.activity), self.window)
        if progress is None or activity is None:
            return None
        if activity[0] >= self.floor and progress[0] <= 0:
            return activity[0]
        return None

    def describe(self, value: float) -> str:
        return (
            self.description
            or f"{self.series} frozen for {self.window:g} ticks while "
            f"{self.activity} advanced by {value:g}"
        )


# ----------------------------------------------------------------------
# Built-in rules
#
# Calibration (measured on hardened chaos runs, sides 16-32, up to 24
# initial faults, loss up to 8%, crash/revive schedules): benign runs
# converge by t~2500 even at 45% loss, and their live-retry ratio --
# (retried - dropped) / carried over 32 ticks -- never exceeded 0.21,
# while sustained >=30% loss pushes it past 0.55.  Raw retried/carried
# does NOT separate: doomed retries into initial faults give benign
# windows ratios up to 32.
# ----------------------------------------------------------------------
def convergence_stall(deadline: float = 4096.0) -> ThresholdRule:
    """The run is still draining past its convergence deadline.

    Every benign scenario in the calibration sweep -- including 45%
    message loss -- drained by tick ~2500 (the give-up tail of retries
    into permanently-dead neighbours dominates, and its backoff schedule
    is fixed).  A run still ticking at ``deadline`` is being actively
    prevented from converging, e.g. by crash/revive flapping that keeps
    restarting formation waves.  Tune the deadline to the workload when
    yours legitimately runs longer.
    """
    return ThresholdRule(
        "convergence-stall", "engine.tick", ">", deadline,
        description=f"still draining past the convergence deadline ({deadline:g} ticks)",
    )


def retransmit_storm(
    ratio: float = 0.35, window: float = 32.0, floor: float = 16.0
) -> RatioRule:
    """Retries into *live* links dominate the carried traffic.

    Retries aimed at dead neighbours increment ``net.dropped`` alongside
    ``net.retried``, so ``retried - dropped`` counts only retransmissions
    that reached a live channel -- the loss-recovery kind that a storm is
    made of, not the benign give-up tail.
    """
    return RatioRule(
        "retransmit-storm", "net.retried", "net.carried", ratio,
        window=window, floor=floor, offset="net.dropped",
    )


#: Pending-event ceiling of :func:`queue_runaway`.
QUEUE_RUNAWAY_DEPTH = 50_000.0


def queue_runaway(for_ticks: int = 3) -> ThresholdRule:
    """Pending event depth past a hard ceiling for several ticks.

    The side-96 formation workload peaks under 1k pending events; 50k
    means a feedback loop is flooding the queue faster than it drains.
    """
    return ThresholdRule(
        "queue-runaway", "engine.pending", ">", QUEUE_RUNAWAY_DEPTH, for_ticks=for_ticks
    )


def drop_rate_slo(ratio: float = 0.25, window: float = 32.0, floor: float = 16.0) -> RatioRule:
    """Chaos losses exceed the loss budget relative to carried traffic."""
    return RatioRule(
        "drop-rate-slo", "net.lost", "net.carried", ratio,
        window=window, floor=floor,
    )


def default_rules() -> tuple[AlertRule, ...]:
    """The standard health checks every observatory starts with."""
    return (convergence_stall(), retransmit_storm(), queue_runaway(), drop_rate_slo())


class AlertEngine:
    """Evaluates rules once per sampled tick and latches firings."""

    def __init__(self, rules: "tuple[AlertRule, ...] | list[AlertRule]" = (), tracer: "Tracer | None" = None):
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {sorted(names)}")
        self.rules = tuple(rules)
        self.tracer = tracer
        self.firings: list[Alert] = []
        self._streaks: dict[str, int] = {name: 0 for name in names}
        self._active: set[str] = set()

    def evaluate(self, tick: float, store: "SampleStore") -> list[Alert]:
        """One evaluation pass; returns the alerts that fired this tick."""
        fired: list[Alert] = []
        for rule in self.rules:
            value = rule.check(store)
            name = rule.name
            if value is None:
                self._streaks[name] = 0
                if name in self._active:
                    self._active.discard(name)
                    if self.tracer is not None and self.tracer.enabled:
                        self.tracer.emit("alert", rule=name, state="resolved", tick=tick)
                continue
            streak = self._streaks[name] + 1
            self._streaks[name] = streak
            if streak < rule.for_ticks or name in self._active:
                continue
            self._active.add(name)
            alert = Alert(name, rule.series, float(tick), float(value), rule.describe(value))
            self.firings.append(alert)
            fired.append(alert)
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit(
                    "alert", rule=name, state="firing", tick=tick,
                    series=rule.series, value=float(value), message=alert.message,
                )
        return fired

    @property
    def active(self) -> tuple[str, ...]:
        """Currently-breaching rule names, in rule order."""
        return tuple(rule.name for rule in self.rules if rule.name in self._active)

    def fired(self, name: str | None = None) -> bool:
        """Whether any alert (or the named rule) ever fired."""
        if name is None:
            return bool(self.firings)
        return any(alert.rule == name for alert in self.firings)

    def counts(self) -> dict[str, int]:
        """Total firings per rule (zero-filled; feeds the Prometheus
        ``repro_alerts_fired_total`` family)."""
        out = {rule.name: 0 for rule in self.rules}
        for alert in self.firings:
            out[alert.rule] = out.get(alert.rule, 0) + 1
        return out
