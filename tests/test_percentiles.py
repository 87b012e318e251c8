"""Percentile histograms: correctness, determinism, and the tick cap."""

import numpy as np
import pytest

from repro.obs import MetricsSink, Tracer
from repro.obs import metrics
from repro.obs.metrics import Histogram


class TestPercentileCorrectness:
    def test_known_uniform_distribution(self):
        h = Histogram()
        for value in range(1, 101):
            h.observe(value)
        assert h.percentile(0.0) == 1.0
        assert h.percentile(100.0) == 100.0
        assert h.percentile(50.0) == pytest.approx(50.5)
        assert h.percentile(95.0) == pytest.approx(95.05)
        assert h.percentile(99.0) == pytest.approx(99.01)

    def test_order_independent(self):
        ordered, shuffled = Histogram(), Histogram()
        values = list(range(1, 101))
        rng = np.random.default_rng(3)
        for value in values:
            ordered.observe(value)
        for value in rng.permutation(values):
            shuffled.observe(float(value))
        for q in (50.0, 95.0, 99.0):
            assert ordered.percentile(q) == pytest.approx(shuffled.percentile(q))

    def test_single_value(self):
        h = Histogram()
        h.observe(42.0)
        assert h.percentile(50.0) == 42.0
        assert h.percentile(99.0) == 42.0

    def test_interpolates_between_ranks(self):
        h = Histogram()
        for value in (0.0, 10.0):
            h.observe(value)
        assert h.percentile(50.0) == pytest.approx(5.0)
        assert h.percentile(25.0) == pytest.approx(2.5)

    def test_out_of_range_rejected(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1.0)
        with pytest.raises(ValueError):
            h.percentile(100.5)

    def test_exact_within_reservoir_capacity(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_RESERVOIR_SIZE", 1000)
        h = Histogram()
        for value in range(1000):
            h.observe(value)
        assert h.percentile(50.0) == pytest.approx(499.5)

    def test_summary_carries_percentiles(self):
        h = Histogram()
        for value in range(1, 101):
            h.observe(value)
        summary = h.summary()
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["p99"] == pytest.approx(99.01)
        assert summary["min"] == 1.0 and summary["max"] == 100.0


class TestEmptyHistogram:
    def test_summary_is_null_not_zero(self):
        """Satellite fix: an empty histogram must be distinguishable from
        one that observed zeros."""
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["min"] is None
        assert summary["max"] is None
        assert summary["p50"] is None and summary["p95"] is None and summary["p99"] is None

    def test_zero_observation_is_not_null(self):
        h = Histogram()
        h.observe(0.0)
        summary = h.summary()
        assert summary["min"] == 0.0 and summary["max"] == 0.0
        assert summary["p50"] == 0.0

    def test_empty_percentile_is_none(self):
        assert Histogram().percentile(50.0) is None

    def test_table_renders_empty_routes_without_crashing(self):
        sink = MetricsSink()
        tracer = Tracer(sink)
        tracer.emit("route_failed", at=(0, 0), reason="stuck")
        table = sink.to_table()
        assert "routes" in table
        assert "n/a" in table  # empty hops histogram rendered explicitly


class TestReservoirSampling:
    def test_deterministic_under_seed(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_RESERVOIR_SIZE", 64)
        a, b = Histogram(), Histogram()
        for value in range(10_000):
            a.observe(value)
            b.observe(value)
        for q in (50.0, 95.0, 99.0):
            assert a.percentile(q) == b.percentile(q)

    def test_reservoir_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_RESERVOIR_SIZE", 64)
        h = Histogram()
        for value in range(10_000):
            h.observe(value)
        assert len(h._reservoir) == 64
        assert h.count == 10_000

    def test_sampled_percentiles_stay_close(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_RESERVOIR_SIZE", 512)
        h = Histogram()
        for value in range(20_000):
            h.observe(value)
        assert h.percentile(50.0) == pytest.approx(10_000, rel=0.15)
        assert h.percentile(95.0) == pytest.approx(19_000, rel=0.15)


class TestTickCap:
    """Satellite fix: the per-tick Counter must not grow without bound."""

    def _emit(self, sink: MetricsSink, ticks: int):
        tracer = Tracer(sink)
        for tick in range(ticks):
            tracer.emit("protocol_msg", msg="esl", time=tick, queue=1)

    def test_distinct_ticks_capped(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_TICK_CAP", 10)
        sink = MetricsSink()
        self._emit(sink, 25)
        assert len(sink._messages_per_tick) == 10
        assert sink.tick_overflow == 15
        assert sink.message_counts["esl"] == 25  # totals stay exact

    def test_known_ticks_still_counted_past_cap(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_TICK_CAP", 2)
        sink = MetricsSink()
        tracer = Tracer(sink)
        for tick in (0, 1, 2, 0, 1):
            tracer.emit("protocol_msg", msg="esl", time=tick, queue=0)
        assert sink._messages_per_tick == {0: 2, 1: 2}
        assert sink.tick_overflow == 1

    def test_overflow_in_snapshot_and_table(self, monkeypatch):
        monkeypatch.setattr(metrics, "DEFAULT_TICK_CAP", 4)
        sink = MetricsSink()
        self._emit(sink, 9)
        snapshot = sink.snapshot()
        assert snapshot["protocol"]["messages_per_tick_overflow"] == 5
        assert "tick overflow" in sink.to_table()

    def test_no_overflow_under_cap(self):
        sink = MetricsSink()
        self._emit(sink, 50)
        assert sink.tick_overflow == 0
        assert sink.snapshot()["protocol"]["messages_per_tick_overflow"] == 0
