"""Frozen ``/metrics`` bodies, and the serve counters' identity on a scrape.

Three exposition bodies are pinned against ``tests/data/exposition_*.txt``:

- ``stats`` -- ``repro stats --prom`` on a small chaos scenario;
- ``telemetry`` -- a :class:`~repro.obs.server.TelemetryApp` over a fixed
  metrics sink, tracer and observatory (``repro serve-metrics``);
- ``serve`` -- a :class:`~repro.serve.http.ServeApp` after a fixed
  query and fault sequence (``repro serve``).

Each golden pins the family order, every ``# HELP`` / ``# TYPE`` line,
every label set and every sample value, except the values of the timing
summaries in :data:`TIMED`, which follow the wall clock and are masked
as ``*``.  Families in :data:`ADDED` were added after the goldens were
frozen and are skipped, so the goldens hold across that addition.

Regenerate (only when a metric is renamed on purpose) with::

    PYTHONPATH=src python -m tests.test_exposition --write
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from repro.cli import main
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.obs import MetricsSink, Observatory, TelemetryApp, ThresholdRule, Tracer
from repro.serve import QueryPipeline, RoutingService, ServeApp
from repro.serve import pipeline as pipeline_module
from tests.promtext import parse

DATA = Path(__file__).parent / "data"
#: Summaries timed by the wall clock: their sample values are masked.
TIMED = {"repro_span_duration_seconds", "repro_serve_latency_seconds"}
#: Families added after the goldens were frozen.
ADDED = {"repro_serve_arrived_total", "repro_http_rejected_total"}


def normalise(body: str) -> str:
    """``body`` with :data:`ADDED` families dropped and :data:`TIMED`
    sample values masked."""
    lines, family = [], None
    for line in body.splitlines():
        if line.startswith("# "):
            family = line.split()[2]
        if family in ADDED:
            continue
        if family in TIMED and not line.startswith("#"):
            line = line.rsplit(" ", 1)[0] + " *"
        lines.append(line)
    return "\n".join(lines) + "\n"


def stats_body() -> str:
    lines: list[str] = []
    code = main(
        ["stats", "--side", "16", "--faults", "10", "--routes", "10",
         "--chaos", "0.03", "--seed", "5", "--prom"],
        out=lines.append,
    )
    assert code == 0
    return "\n".join(lines) + "\n"


def telemetry_body() -> str:
    metrics = MetricsSink()
    tracer = Tracer(metrics)
    tracer.emit("route_start", router="WuRouter", source=(0, 0), dest=(5, 5))
    tracer.emit("route_end", source=(0, 0), dest=(5, 5), hops=10, minimal=True,
                detours=0)
    tracer.emit("route_end", source=(0, 0), dest=(3, 4), hops=9, minimal=False,
                detours=1)
    tracer.emit("route_failed", at=(2, 2), reason="stuck")
    tracer.emit("extension_fired", decision="case_1", at=(1, 1))
    tracer.emit("extension_fired", decision='odd"name\\x', at=(1, 2))
    for tick in range(6):
        tracer.emit("protocol_msg", msg="esl" if tick % 2 else "boundary",
                    time=tick // 2, queue=tick + 1)
    tracer.emit("engine_run", now=4.0, pending=2, events_processed=9)
    with tracer.span("experiment"):
        pass
    tracer.count("sim.messages", 7)
    tracer.count("router.steps", 3)
    observatory = Observatory(
        rules=(ThresholdRule("deep", "q", ">", 10.0),
               ThresholdRule("calm", "r", ">", 1e9)),
    )
    for tick, value in enumerate([1.0, 20.0, 3.0, 30.0]):
        observatory.store.append(float(tick), {"q": value, "r": value * 2})
        observatory.alerts.evaluate(float(tick), observatory.store)
    app = TelemetryApp(observatory=observatory, metrics=metrics, tracer=tracer)
    return app.render_metrics()


async def _serve_scenario() -> ServeApp:
    """Two answers, a bad request, an expired query, one fault, one more
    answer, then a query shed at admission by the drained pipeline.

    No heartbeat runs (it waits an hour): the breaker stays closed, and
    the fault publishes its snapshot as it is ingested, so every counter
    and gauge is a function of the sequence alone.
    """
    mesh = Mesh2D(12, 12)
    faults = uniform_faults(mesh, 6, np.random.default_rng(3), forbidden={mesh.center})
    service = RoutingService(mesh, faults)
    pipeline = QueryPipeline(service)
    app = ServeApp(service, pipeline)
    await pipeline.start()
    try:
        assert (await pipeline.submit((0, 0), (11, 11))).status == "ok"
        assert (await pipeline.submit(
            (0, 0), (11, 11), model="mcc", want_path=False)).status == "ok"
        assert (await pipeline.submit((0, 0), (99, 99))).status == "bad_request"
        assert (await pipeline.submit(
            (0, 0), (11, 11), deadline_s=0.0)).status == "deadline_exceeded"
        pipeline.ingest_fault("crash", mesh.center)
        assert (await pipeline.submit((11, 0), (0, 11))).status == "ok"
    finally:
        await pipeline.drain()
    assert (await pipeline.submit((0, 0), (1, 1))).status == "overloaded"
    return app


def serve_body() -> str:
    with mock.patch.object(pipeline_module, "HEARTBEAT_S", 3600.0):
        return asyncio.run(_serve_scenario()).render_metrics()


BODIES = {"stats": stats_body, "telemetry": telemetry_body, "serve": serve_body}


def _golden(name: str) -> Path:
    return DATA / f"exposition_{name}.txt"


class TestFrozenExposition:
    def test_stats_prom(self):
        assert normalise(stats_body()) == _golden("stats").read_text()

    def test_telemetry_app(self):
        assert normalise(telemetry_body()) == _golden("telemetry").read_text()

    def test_serve_app(self):
        assert normalise(serve_body()) == _golden("serve").read_text()

    def test_bodies_parse_strictly(self):
        for make in BODIES.values():
            parse(make())


class TestServeCounters:
    def test_arrived_reconciles_on_scrape(self):
        families = parse(serve_body())
        arrived = families["repro_serve_arrived_total"].samples[0].value
        outcomes = {
            sample.label_dict["outcome"]: sample.value
            for sample in families["repro_serve_requests_total"].samples
        }
        assert arrived == 6
        assert arrived == sum(outcomes[outcome] for outcome in (
            "served", "shed_overload", "shed_deadline", "bad_request", "error",
        ))


if __name__ == "__main__":  # pragma: no cover - regenerates the goldens
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_exposition --write")
    for name, make in BODIES.items():
        _golden(name).write_text(normalise(make()))
        print(f"wrote {_golden(name)}")
