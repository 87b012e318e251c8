"""Prometheus text exposition: format validity and stable metric names."""

import re
import sys
import threading
import time

import pytest

from repro.obs import (
    MetricsSink,
    MetricStore,
    Observatory,
    ThresholdRule,
    Tracer,
    render_prometheus,
)
from tests import promtext

# One sample line of the 0.0.4 text format: name{labels} value
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" -?[0-9.eE+-]+(\.[0-9]+)?$"
)
_HELP = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$")
_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$")


def _populated_sink() -> MetricsSink:
    sink = MetricsSink()
    tracer = Tracer(sink)
    tracer.emit("route_start", router="WuRouter", source=(0, 0), dest=(5, 5))
    tracer.emit("route_end", source=(0, 0), dest=(5, 5), hops=10, minimal=True,
                detours=0)
    tracer.emit("extension_fired", decision="case_1", at=(1, 1))
    for tick in range(4):
        tracer.emit("protocol_msg", msg="esl", time=tick, queue=tick + 1)
    tracer.emit("engine_run", now=4.0, pending=0, events_processed=9)
    with tracer.span("experiment"):
        pass
    return sink


def _render(sink: MetricsSink) -> str:
    return render_prometheus([sink.families])


def _parse(text: str) -> list[str]:
    """Validate every line against the exposition format; return samples."""
    assert text.endswith("\n")
    samples = []
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP"):
            assert _HELP.match(line), line
        elif line.startswith("# TYPE"):
            assert _TYPE.match(line), line
        else:
            assert _SAMPLE.match(line), line
            samples.append(line)
    return samples


class TestFormat:
    def test_every_line_valid(self):
        _parse(_render(_populated_sink()))

    def test_every_sample_has_help_and_type(self):
        text = _render(_populated_sink())
        declared = {m.group(1) for m in re.finditer(r"# TYPE (\S+)", text)}
        for sample in _parse(text):
            name = re.match(r"[a-zA-Z0-9_:]+", sample).group(0)
            base = re.sub(r"_(sum|count)$", "", name)
            assert name in declared or base in declared, sample

    def test_summary_carries_quantiles_sum_count(self):
        text = _render(_populated_sink())
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'repro_route_hops{{quantile="{quantile}"}}' in text
        assert "repro_route_hops_sum 10" in text
        assert "repro_route_hops_count 1" in text

    def test_empty_summary_omits_quantiles_keeps_count(self):
        sink = MetricsSink()
        Tracer(sink).emit("route_failed", at=(0, 0), reason="stuck")
        text = _render(sink)
        assert 'repro_route_hops{quantile' not in text
        assert "repro_route_hops_count 0" in text

    def test_label_escaping(self):
        sink = MetricsSink()
        Tracer(sink).emit("protocol_msg", msg='odd"name\\x', time=0, queue=0)
        text = _render(sink)
        assert 'msg="odd\\"name\\\\x"' in text

    def test_empty_snapshot_renders_nothing_but_stays_valid(self):
        text = _render(MetricsSink())
        _parse(text)


class TestStableNames:
    """Metric names are API: dashboards depend on them."""

    def test_core_metric_names(self):
        text = _render(_populated_sink())
        for name in (
            "repro_events_total",
            "repro_protocol_messages_total",
            "repro_decisions_total",
            "repro_routes_total",
            "repro_route_hops",
            "repro_route_detours",
            "repro_queue_depth",
            "repro_messages_per_tick",
            "repro_messages_per_tick_overflow_total",
            "repro_span_duration_seconds",
            "repro_engine_now",
            "repro_engine_pending",
            "repro_engine_events_processed_total",
        ):
            assert f"# TYPE {name} " in text, name

    def test_route_outcome_labels(self):
        text = _render(_populated_sink())
        for outcome in ("delivered", "minimal", "sub_minimal", "failed"):
            assert f'repro_routes_total{{outcome="{outcome}"}}' in text

    def test_span_label(self):
        text = _render(_populated_sink())
        assert 'repro_span_duration_seconds_count{span="experiment"} 1' in text


class TestPromtextRoundTrip:
    """Everything we render must survive the strict test parser."""

    def test_sink_render_parses(self):
        families = promtext.parse(_render(_populated_sink()))
        assert "repro_events_total" in families
        assert families["repro_route_hops"].type == "summary"

    def test_label_escaping_round_trips(self):
        sink = MetricsSink()
        gnarly = 'odd"name\\x\nsecond line'
        Tracer(sink).emit("protocol_msg", msg=gnarly, time=0, queue=0)
        families = promtext.parse(_render(sink))
        labels = {
            sample.label_dict["msg"]
            for sample in families["repro_protocol_messages_total"].samples
        }
        assert gnarly in labels

    def test_timeseries_render_parses(self):
        observatory = Observatory(rules=(ThresholdRule("deep", "q", ">", 10.0),))
        for tick, value in enumerate([1.0, 20.0]):
            observatory.store.append(float(tick), {"q": value})
            observatory.alerts.evaluate(float(tick), observatory.store)
        families = promtext.parse(render_prometheus([observatory.families]))
        assert {"repro_live_sample", "repro_live_points", "repro_live_tick",
                "repro_alert_active", "repro_alerts_fired_total"} <= set(families)

    def test_type_headers_unique_in_combined_export(self):
        tracer = Tracer()
        tracer.count("router.steps", 1)
        text = render_prometheus([_populated_sink().families, tracer.families])
        # parse() raises on duplicate # TYPE lines; double-check the raw text.
        promtext.parse(text)
        types = re.findall(r"# TYPE (\S+)", text)
        assert len(types) == len(set(types))

    def test_render_is_deterministic(self):
        sink = _populated_sink()
        assert _render(sink) == _render(sink)


class TestProfileExport:
    def test_hot_counters_and_sections(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        tracer.count("router.steps", 42)
        with tracer.span("stats.routing"):
            pass
        text = render_prometheus([metrics.families, tracer.families])
        _parse(text)
        assert 'repro_hot_counter_total{name="router.steps"} 42' in text
        assert "# TYPE repro_span_duration_seconds summary" in text
        assert 'repro_span_duration_seconds_count{span="stats.routing"} 1' in text

    def test_no_profile_no_profile_metrics(self):
        text = _render(_populated_sink())
        assert "repro_hot_counter_total" not in text
        text = render_prometheus([_populated_sink().families, Tracer().families])
        assert "repro_hot_counter_total" not in text


class TestMetricStore:
    def test_family_declared_by_two_stores_raises(self):
        with pytest.raises(ValueError, match="repro_hot_counter_total"):
            render_prometheus([Tracer().families, Tracer().families])

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="histogram"):
            MetricStore().declare("x", "histogram", "X.", 1)

    def test_none_read_omits_family(self):
        store = MetricStore()
        store.declare("a", "gauge", "A.", lambda: None)
        store.declare("b", "gauge", "B.", lambda: 2.5)
        assert render_prometheus([store]) == "# HELP b B.\n# TYPE b gauge\nb 2.5\n"
        assert render_prometheus([]) == ""


class TestScrapeRace:
    def test_render_while_a_thread_adds_ticks(self):
        """A scrape copies live dicts before walking them: a thread adding
        new ticks mid-render must not raise ``dictionary changed size``."""
        sink = MetricsSink()
        sink.tick_cap = 1 << 30
        tracer = Tracer(sink)

        def produce():
            for tick in range(50_000):
                tracer.emit("protocol_msg", msg="esl", time=tick, queue=0)

        interval = sys.getswitchinterval()
        thread = threading.Thread(target=produce)
        renders = 0
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            deadline = time.monotonic() + 10.0
            while thread.is_alive() and time.monotonic() < deadline:
                sink.snapshot()
                render_prometheus([sink.families, tracer.families])
                renders += 1
        finally:
            thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert renders > 0
        assert sink.event_counts["protocol_msg"] == 50_000
