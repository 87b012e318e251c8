"""Asyncio HTTP front end for the routing service (``repro serve``).

:class:`ServeApp` is the routing service's route table on the shared
:class:`~repro.obs.server.HttpApp` listener (one request per
connection, stdlib only):

- ``GET /query?source=x,y&dest=x,y[&model=block|mcc][&path=0]`` -- one
  routability answer.  Status mirrors the pipeline's overload
  semantics: 200 ``ok``, 400 ``bad_request``, 429 ``overloaded`` (shed
  at admission), 503 while draining, 504 ``deadline_exceeded``.
- ``POST /fault?event=crash|inject|revive&coord=x,y`` -- fault
  ingestion through the incremental engine; 200 with the
  :class:`~repro.faults.incremental.UpdateReport`, 400 for a malformed
  event or a coordinate outside the mesh, 409 when the event does not
  apply (node already faulty / not faulty).
- ``GET /healthz`` -- liveness + breaker state (always 200 while the
  process serves; ``status`` flips to ``degraded`` when the breaker is
  open).
- ``GET /readyz`` -- readiness: 200 while accepting, 503 once shutdown
  began (load balancers stop routing; in-flight work still finishes).
- ``GET /metrics`` -- Prometheus text: the pipeline's ``repro_serve_*``
  families (outcome and arrival counters, latency summary, queue and
  breaker gauges), declared on ``QueryPipeline.families``, then the
  listener's ``repro_http_rejected_total``, rendered by the shared
  :func:`~repro.obs.metrics.render_prometheus`.

Graceful shutdown (:func:`~repro.obs.server.run_app` wires
SIGTERM/SIGINT): flip ``/readyz`` to 503, drain the pipeline within a
bounded grace period, close the listener, exit 0.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.server import HttpApp, Response, json_response
from repro.serve.pipeline import QueryPipeline
from repro.serve.service import RoutingService

__all__ = ["ServeApp"]

_STATUS_BY_RESULT = {
    "ok": 200,
    "bad_request": 400,
    "overloaded": 429,
    "deadline_exceeded": 504,
    "error": 500,
}
_EVENTS = ("crash", "inject", "revive")


def _parse_coord(text: str) -> tuple[int, int]:
    x, y = text.split(",")
    return (int(x), int(y))


def _param(
    query: dict[str, list[str]], name: str, parse: Callable[[str], Any],
    default: Any = None,
) -> Any:
    values = query.get(name)
    if not values:
        if default is not None:
            return default
        raise ValueError(f"missing required parameter {name!r}")
    try:
        return parse(values[-1])
    except (ValueError, TypeError):
        raise ValueError(f"malformed parameter {name}={values[-1]!r}") from None


def _bad_request(error: str) -> Response:
    return json_response(400, {"status": "bad_request", "error": error})


_DRAINING = json_response(503, {"status": "overloaded", "error": "draining"})


class ServeApp(HttpApp):
    """The served endpoints bound to one service + pipeline pair."""

    def __init__(
        self, service: RoutingService, pipeline: QueryPipeline, **listener: Any
    ):
        super().__init__(**listener)
        self.service = service
        self.pipeline = pipeline
        self.metric_stores = [pipeline.families]
        self.routes = {
            "/query": ("GET", self._query),
            "/fault": ("POST", self._fault),
            "/healthz": ("GET", self._healthz),
            "/readyz": ("GET", self._readyz),
            "/metrics": ("GET", self._metrics),
        }

    async def start(self) -> "ServeApp":
        await self.pipeline.start()
        await super().start()
        return self

    async def drain(self, grace_s: float) -> bool:
        return await self.pipeline.drain(grace_s)

    def readiness(self) -> dict[str, Any]:
        return {**super().readiness(), "queue_depth": self.pipeline.queue_depth}

    # -- routes --------------------------------------------------------
    async def _query(self, query: dict[str, list[str]]) -> Response:
        if not self.ready:
            self.pipeline.count_rejected("shed_overload")
            return _DRAINING
        try:
            source = _param(query, "source", _parse_coord)
            dest = _param(query, "dest", _parse_coord)
            model = _param(query, "model", str, default="block")
            want_path = bool(_param(query, "path", int, default=1))
            deadline_ms = _param(query, "deadline_ms", float, default=0.0)
        except ValueError as error:
            self.pipeline.count_rejected("bad_requests")
            return _bad_request(str(error))
        result = await self.pipeline.submit(
            source, dest, model=model, want_path=want_path,
            deadline_s=deadline_ms / 1e3 if deadline_ms > 0 else None,
        )
        code = _STATUS_BY_RESULT.get(result.status, 500)
        return json_response(code, result.jsonable())

    async def _fault(self, query: dict[str, list[str]]) -> Response:
        if not self.ready:
            return _DRAINING
        try:
            event = _param(query, "event", str)
            coord = _param(query, "coord", _parse_coord)
        except ValueError as error:
            return _bad_request(str(error))
        if event not in _EVENTS:
            return _bad_request(f"unknown event {event!r} (use {', '.join(_EVENTS)})")
        mesh = self.service.mesh
        if not mesh.in_bounds(coord):
            return _bad_request(f"{coord} is outside the {mesh.n}x{mesh.m} mesh")
        try:
            report = self.pipeline.ingest_fault(event, coord)
        except ValueError as error:
            # Inapplicable, not malformed: e.g. crashing an already-faulty
            # node.  409 so blind retries don't read as client bugs.
            return json_response(409, {"status": "conflict", "error": str(error)})
        rect = report.affected_rect
        return json_response(200, {
            "status": "ok",
            "event": report.event,
            "coord": list(report.coord),
            "generation": report.generation,
            "affected_cells": report.affected_cells,
            "affected_fraction": report.affected_fraction,
            "affected_rect": [rect.xmin, rect.xmax, rect.ymin, rect.ymax],
            "full_rebuild": report.full_rebuild,
        })

    async def _healthz(self, query: dict[str, list[str]]) -> Response:
        breaker = self.pipeline.breaker.state()
        return json_response(200, {
            "status": "degraded" if breaker["open"] else "ok",
            "breaker": breaker,
            "generation": self.service.generation,
            "staleness": self.service.staleness(),
            "requests": self.requests,
        })
