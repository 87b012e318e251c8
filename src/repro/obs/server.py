"""One asyncio HTTP listener for every served surface.

:class:`HttpApp` is a deliberately small HTTP/1.1 server over
``asyncio.start_server`` (stdlib only, one request per connection).  It
owns the plumbing both verbs share: request framing (a malformed or
oversized head gets 400 / 413 / 414 / 431 with a JSON body, never a
dropped connection, and counts in ``repro_http_rejected_total{code=}``
on every app's ``/metrics``), a route table (a handler that raises is
answered 500), a built-in ``/readyz``, the ``/metrics`` body rendered
from the app's metric stores, an in-flight count and a bounded graceful
shutdown; :func:`run_app` drives it.  Subclasses supply routes and
stores: :class:`TelemetryApp` for ``repro serve-metrics`` and
:class:`~repro.serve.http.ServeApp` for ``repro serve``.

``GET /readyz`` is readiness, distinct from health: 200 while the app
accepts work, 503 once shutdown began.  A load balancer stops routing on
the 503 while ``/healthz`` keeps reporting liveness, which is what makes
graceful shutdown observable: flip readiness, drain in-flight work, then
exit 0.

For headless CI, :func:`atomic_write_text` publishes a body via a
same-directory temp file and ``os.replace``, so a reader never observes
a torn file.
"""

from __future__ import annotations

import asyncio
import collections
import json
import logging
import os
import signal
import tempfile
from http import HTTPStatus
from typing import TYPE_CHECKING, Any, Awaitable, Callable
from urllib.parse import parse_qs, urlsplit

from repro.obs.metrics import MetricStore, render_prometheus

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsSink
    from repro.obs.timeseries import Observatory
    from repro.obs.tracer import Tracer

__all__ = ["HttpApp", "TelemetryApp", "atomic_write_text", "run_app"]

#: ``(status code, encoded body, content type)``.
Response = tuple[int, bytes, str]
Handler = Callable[[dict[str, list[str]]], Awaitable[Response]]

PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"
# Longest request or header line accepted (the stdlib server's bound);
# also the largest Content-Length, since no route reads a body.
_LINE_LIMIT = 1 << 16
# Most header lines accepted (the bound http.client uses).
_MAX_HEADERS = 100
_log = logging.getLogger(__name__)

def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary; parent directories are created.
    """
    target = os.path.abspath(os.fspath(path))
    directory = os.path.dirname(target)
    if directory:
        os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".write")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def json_response(code: int, body: dict[str, Any]) -> Response:
    return code, json.dumps(body, sort_keys=True).encode("utf-8"), "application/json"


class _BadRequest(Exception):
    """``(status code, error)`` for a request head the listener rejects."""


class HttpApp:
    """The asyncio listener: framing, routing, readiness, bounded drain.

    Subclasses fill :attr:`routes` (ordered; the order is the one a 404
    lists) and :attr:`metric_stores` (the ``/metrics`` body, rendered by
    :func:`~repro.obs.metrics.render_prometheus` ahead of the listener's
    own :attr:`families`), and may override :meth:`drain` to finish
    their own backlog.  ``port=0`` binds an ephemeral port; read
    ``.port`` after :meth:`start`.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 grace_s: float = 5.0, notice_s: float = 0.0):
        self.host = host
        self.port = port
        self.grace_s = grace_s
        self.notice_s = notice_s
        self.ready = False
        self.requests = 0
        self.routes: dict[str, tuple[str, Handler]] = {}
        self.metric_stores: list[MetricStore] = []
        # Heads rejected by framing never reach a route: count them here.
        self.rejected: collections.Counter[int] = collections.Counter()
        self.families = MetricStore()
        self.families.declare(
            "repro_http_rejected_total", "counter",
            "Request heads the listener rejected before routing, by status.",
            self.rejected, label="code",
        )
        self._server: asyncio.AbstractServer | None = None
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    @property
    def inflight(self) -> int:
        """Open client connections, each one request being read or served."""
        return len(self._connections)

    def url(self, path: str) -> str:
        return f"http://{self.host}:{self.port}{path}"

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "HttpApp":
        if self._server is not None:
            raise RuntimeError("listener already started")
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=_LINE_LIMIT
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self.ready = True
        return self

    async def drain(self, grace_s: float) -> bool:
        """Finish the app's own backlog within ``grace_s``; none by default."""
        return True

    async def shutdown(self) -> bool:
        """Graceful: unready first, then drain, then close the listener.

        The listener stays open while draining so pollers observe the
        ``/readyz`` 503; ``notice_s`` holds that window open even when
        nothing is in flight, so load balancers can stop routing first.
        Connections still open ``grace_s`` later (a stalled client too)
        are aborted.  Returns True when the backlog and every connection
        finished within the grace period.
        """
        self.ready = False
        if self.notice_s > 0:
            await asyncio.sleep(self.notice_s)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.grace_s
        drained = await self.drain(self.grace_s)
        if self._connections:
            _, pending = await asyncio.wait(
                list(self._connections), timeout=max(0.0, deadline - loop.time())
            )
            drained = drained and not pending
        if self._server is not None:
            self._server.close()
            for task, writer in list(self._connections.items()):
                writer.transport.abort()
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        return drained

    # -- built-in routes -----------------------------------------------
    def readiness(self) -> dict[str, Any]:
        """The ``/readyz`` body."""
        status = "ready" if self.ready else "draining"
        return {"status": status, "ready": self.ready, "inflight": self.inflight}

    async def _readyz(self, query: dict[str, list[str]]) -> Response:
        return json_response(200 if self.ready else 503, self.readiness())

    def render_metrics(self) -> str:
        """The ``/metrics`` body: every family of :attr:`metric_stores`,
        then the listener's own."""
        return (render_prometheus([*self.metric_stores, self.families])
                or "# no telemetry sources attached\n")

    # The body is encoded to bytes before the head is written, so
    # Content-Length is measured on the final byte string.
    async def _metrics(self, query: dict[str, list[str]]) -> Response:
        return 200, self.render_metrics().encode("utf-8"), PROMETHEUS_TYPE

    # -- request handling ----------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            try:
                head = await self._read_head(reader)
            except _BadRequest as rejected:
                code, error = rejected.args
                self.rejected[code] += 1
                self._respond(writer, json_response(code, {
                    "status": "bad_request", "error": error,
                }))
                # Lingering close: closing with unread request bytes resets
                # the connection, which can destroy the answer in transit.
                writer.write_eof()
                while await asyncio.wait_for(reader.read(_LINE_LIMIT), 1.0):
                    pass
                return
            if head is not None:  # None: connected and left without a request
                self.requests += 1
                self._respond(writer, await self._dispatch(*head))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            pass  # client went away or stalled; nothing more to answer
        finally:
            del self._connections[task]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader, code: int, what: str) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the line overran the reader's limit
            raise _BadRequest(code, f"{what} longer than {_LINE_LIMIT} bytes") from None

    async def _read_head(self, reader: asyncio.StreamReader) -> tuple[str, str] | None:
        """``(method, target)`` of the next request, with any body consumed."""
        request_line = await self._read_line(reader, 414, "request line")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(400, f"malformed request line {request_line[:80]!r}")
        content_length = 0
        headers = 0
        while True:  # drain headers; we only need Content-Length
            line = await self._read_line(reader, 431, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            headers += 1
            if headers > _MAX_HEADERS:
                raise _BadRequest(431, f"more than {_MAX_HEADERS} header lines")
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise _BadRequest(400, f"malformed Content-Length {value[:80]!r}")
                content_length = int(value)
                if content_length > _LINE_LIMIT:
                    raise _BadRequest(413, f"body longer than {_LINE_LIMIT} bytes")
        if content_length:
            await reader.readexactly(content_length)
        return parts[0], parts[1]

    async def _dispatch(self, method: str, target: str) -> Response:
        split = urlsplit(target)
        route = self.routes.get(split.path)
        if route is None:
            return json_response(404, {
                "error": f"unknown path {split.path!r}", "paths": list(self.routes),
            })
        allowed, handler = route
        if method != allowed:
            return json_response(405, {"error": f"use {allowed} {split.path}"})
        try:
            return await handler(parse_qs(split.query))
        except Exception as error:  # the listener outlives a failing route
            _log.exception("%s %s failed", method, split.path)
            return json_response(500, {"status": "error", "error": repr(error)})

    @staticmethod
    def _respond(writer: asyncio.StreamWriter, response: Response) -> None:
        code, body, content_type = response
        writer.write(
            f"HTTP/1.1 {code} {HTTPStatus(code).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode("latin-1") + body
        )


class TelemetryApp(HttpApp):
    """Live telemetry from an observatory and/or a metrics sink.

    - ``GET /metrics`` -- Prometheus text 0.0.4: the
      :class:`~repro.obs.metrics.MetricsSink` families, the tracer's hot
      counters, then the observatory's live per-tick series and alert
      state;
    - ``GET /series.json`` -- every ring buffer plus alert firings;
    - ``GET /healthz`` -- 200 ``{"status": "ok"}``, or 503
      ``{"status": "alerting", ...}`` while any alert rule breaches, so a
      poller (or CI) turns alert regressions into failures.

    The simulation runs on another thread and never blocks on a scrape.
    A scrape reads the observatory's series under :class:`SampleStore`'s
    lock; the sink's Counters and dicts are not locked, so the renderer
    copies each with one C-level call before walking it (a Python loop
    over a dict that the run grows raises ``RuntimeError``).  Families
    of one body may therefore be read a few events apart.
    """

    def __init__(
        self,
        observatory: "Observatory | None" = None,
        metrics: "MetricsSink | None" = None,
        tracer: "Tracer | None" = None,
        **listener: Any,
    ):
        super().__init__(**listener)
        self.observatory = observatory
        self.metrics = metrics
        self.tracer = tracer
        self.metric_stores = [
            source.families for source in (metrics, tracer, observatory)
            if source is not None
        ]
        self.routes = {
            "/metrics": ("GET", self._metrics),
            "/series.json": ("GET", self._series),
            "/healthz": ("GET", self._healthz),
            "/readyz": ("GET", self._readyz),
        }

    def series_json(self) -> dict[str, Any]:
        """The ``/series.json`` body: every ring buffer plus alert state."""
        if self.observatory is None:
            return {"series": {}, "alerts": [], "firing": []}
        payload = self.observatory.store.snapshot()
        payload["alerts"] = [a.jsonable() for a in self.observatory.alerts.firings]
        payload["firing"] = list(self.observatory.alerts.active)
        return payload

    async def _series(self, query: dict[str, list[str]]) -> Response:
        return json_response(200, self.series_json())

    async def _healthz(self, query: dict[str, list[str]]) -> Response:
        if self.observatory is None:
            return json_response(200, {"status": "ok", "alerts": [], "firing": []})
        body = self.observatory.healthz()
        return json_response(503 if body["status"] == "alerting" else 200, body)


async def run_app(
    app: HttpApp,
    *,
    ttl_s: float | None = None,
    work: Callable[[asyncio.Event], Awaitable[None]] | None = None,
) -> bool:
    """Serve until stopped, then shut ``app`` down gracefully.

    Without ``work`` the app serves until SIGTERM/SIGINT or ``ttl_s``.
    With it, ``work(stop)`` runs while the app serves and shutdown
    follows when it returns; ``stop`` is set by the signals, so the work
    can cut a wait short.  Returns whether the drain finished within the
    grace period.  Every return is a *graceful* stop: a drain that had to
    abandon stragglers still shuts down, it just reports False.
    """
    await app.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-main thread or unsupported platform
    try:
        await asyncio.wait_for(stop.wait() if work is None else work(stop), ttl_s)
    except asyncio.TimeoutError:
        pass
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        drained = await app.shutdown()
    return drained
