"""Asyncio query pipeline: admission control, deadlines, a breaker.

:class:`QueryPipeline` is the robustness shell around
:class:`~repro.serve.service.RoutingService`.  Three defences keep it
answering under load instead of collapsing:

- **Admission control.**  A bounded queue between :meth:`submit` and the
  worker pool; when it is full the request is shed immediately with an
  explicit ``overloaded`` result -- the client learns in O(1) that the
  service chose not to queue it, rather than discovering it by timeout.
- **Deadline budgets.**  Every request carries an absolute deadline
  (``deadline_s`` from submission).  A worker that pops an
  already-expired request sheds it (``deadline_exceeded``) without
  paying for the answer.
- **A circuit breaker.**  A heartbeat task samples queue depth and
  shed/arrival deltas into the
  :class:`~repro.serve.service.ServiceBreaker`; while the breaker is
  open, workers force the degraded tier (block-model answers, no path
  witnesses), which is what lets the backlog drain.

:meth:`QueryPipeline.ingest_fault` publishes the event's snapshot before
it returns (a refresh only copies the engine's delta-maintained grids),
so every answer the workers serve is for the engine's current
generation, with ``staleness`` 0.
"""

from __future__ import annotations

import asyncio
import collections
from dataclasses import dataclass, field
from typing import Any

from repro.mesh.geometry import Coord
from repro.obs.metrics import Histogram, MetricStore
from repro.serve.service import QueryAnswer, QueryError, RoutingService, ServiceBreaker

__all__ = ["QueryPipeline", "QueryRequest", "QueryResult"]

#: Seconds between the heartbeat's breaker evaluations.
HEARTBEAT_S = 0.010

#: ``repro_serve_requests_total`` outcome labels and the counters they read.
_OUTCOMES = (
    ("served", "served"),
    ("shed_overload", "shed_overload"),
    ("shed_deadline", "shed_deadline"),
    ("degraded", "degraded"),
    ("bad_request", "bad_requests"),
    ("error", "errors"),
)


@dataclass(frozen=True)
class QueryRequest:
    """One admitted query with its absolute deadline (loop time)."""

    source: Coord
    dest: Coord
    model: str
    want_path: bool
    deadline: float
    submitted: float


@dataclass(frozen=True)
class QueryResult:
    """Terminal outcome of one submitted query.

    ``status`` is the overload-semantics contract: ``ok`` (answer
    attached), ``overloaded`` (shed at admission -- queue full or
    draining), ``deadline_exceeded`` (expired before a worker reached
    it), ``bad_request`` (malformed), ``error`` (unexpected failure).
    """

    status: str
    answer: QueryAnswer | None = None
    error: str | None = None
    latency_s: float = field(default=0.0)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def jsonable(self) -> dict[str, Any]:
        body: dict[str, Any] = {"status": self.status, "latency_ms": self.latency_s * 1e3}
        if self.answer is not None:
            body["answer"] = self.answer.jsonable()
        if self.error is not None:
            body["error"] = self.error
        return body


class QueryPipeline:
    """Bounded-queue worker pool answering queries against one service."""

    def __init__(
        self,
        service: RoutingService,
        *,
        queue_limit: int = 256,
        workers: int = 4,
        deadline_s: float = 0.050,
        max_staleness: int | None = None,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.service = service
        self.queue_limit = queue_limit
        self.workers = workers
        self.deadline_s = deadline_s
        self.max_staleness = max_staleness
        self.breaker = ServiceBreaker()
        self.latency = Histogram()
        self.counters: collections.Counter[str] = collections.Counter()
        self.accepting = False
        self._queue: asyncio.Queue | None = None
        self._tasks: list[asyncio.Task] = []
        self.families = self._declare_families()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "QueryPipeline":
        if self._tasks:
            raise RuntimeError("pipeline already started")
        self._queue = asyncio.Queue(self.queue_limit)
        self.accepting = True
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]
        self._tasks.append(asyncio.create_task(self._heartbeat(), name="serve-heartbeat"))
        return self

    async def drain(self, grace_s: float = 5.0) -> bool:
        """Stop admitting, finish the backlog (bounded), stop the tasks.

        Returns True when every queued or in-flight request completed
        within the grace period; either way the pipeline is stopped
        afterwards, and the stragglers are answered ``overloaded``
        (``"draining"``) and counted as ``shed_overload``.
        """
        self.accepting = False
        drained = True
        if self._queue is not None:
            try:
                await asyncio.wait_for(self._queue.join(), timeout=grace_s)
            except asyncio.TimeoutError:
                drained = False
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        while self._queue is not None and not self._queue.empty():
            _, future = self._queue.get_nowait()
            self._shed_draining(future)
        return drained

    def _shed_draining(self, future: asyncio.Future) -> None:
        if not future.done():
            self.counters["shed_overload"] += 1
            future.set_result(QueryResult(status="overloaded", error="draining"))

    # -- submission ----------------------------------------------------
    async def submit(
        self,
        source: Coord,
        dest: Coord,
        *,
        model: str = "block",
        want_path: bool = True,
        deadline_s: float | None = None,
    ) -> QueryResult:
        """Admit (or shed) one query and await its result."""
        if self._queue is None:
            raise RuntimeError("pipeline not started")
        loop = asyncio.get_running_loop()
        self.counters["arrived"] += 1
        if not self.accepting:
            self.counters["shed_overload"] += 1
            return QueryResult(status="overloaded", error="draining")
        now = loop.time()
        request = QueryRequest(
            source=source, dest=dest, model=model, want_path=want_path,
            deadline=now + (deadline_s if deadline_s is not None else self.deadline_s),
            submitted=now,
        )
        future: asyncio.Future[QueryResult] = loop.create_future()
        try:
            self._queue.put_nowait((request, future))
        except asyncio.QueueFull:
            self.counters["shed_overload"] += 1
            return QueryResult(status="overloaded", error="queue full")
        return await future

    def count_rejected(self, outcome: str) -> None:
        """Count a query the front end answered before :meth:`submit`: it
        arrived, and ``outcome`` is its counter -- ``"bad_requests"`` for a
        malformed one (e.g. an unparsable coordinate), ``"shed_overload"``
        for one refused while shutting down -- so the outcome counters
        still sum to ``arrived``."""
        self.counters["arrived"] += 1
        self.counters[outcome] += 1

    def ingest_fault(self, event: str, coord: Coord) -> Any:
        """Apply one fault event and publish its generation.

        Both steps are synchronous: the O(affected) engine update, then
        the snapshot refresh, so no query runs in between.
        """
        report = self.service.apply_fault(event, coord)
        self.counters["faults_ingested"] += 1
        return report

    # -- internals -----------------------------------------------------
    async def _worker(self) -> None:
        assert self._queue is not None
        while True:
            request, future = await self._queue.get()
            try:
                if not future.done():
                    future.set_result(await self._process(request))
            except asyncio.CancelledError:  # drain ran out of grace
                self._shed_draining(future)
                raise
            except Exception as error:  # defensive: a worker must not die
                self.counters["errors"] += 1
                if not future.done():
                    future.set_result(QueryResult(status="error", error=repr(error)))
            finally:
                self._queue.task_done()

    async def _process(self, request: QueryRequest) -> QueryResult:
        loop = asyncio.get_running_loop()
        if loop.time() >= request.deadline:
            self.counters["shed_deadline"] += 1
            return QueryResult(status="deadline_exceeded", error="expired in queue")
        try:
            answer = self.service.answer(
                request.source, request.dest, model=request.model,
                want_path=request.want_path, max_staleness=self.max_staleness,
                degraded=self.breaker.open,
            )
        except QueryError as error:
            self.counters["bad_requests"] += 1
            return QueryResult(status="bad_request", error=str(error))
        latency = loop.time() - request.submitted
        self.latency.observe(latency)
        self.counters["served"] += 1
        if answer.degraded:
            self.counters["degraded"] += 1
        return QueryResult(status="ok", answer=answer, latency_s=latency)

    async def _heartbeat(self) -> None:
        while True:
            await asyncio.sleep(HEARTBEAT_S)
            self.pulse()

    def pulse(self) -> bool:
        """One breaker evaluation over the current load signals."""
        shed = self.counters["shed_overload"] + self.counters["shed_deadline"]
        return self.breaker.observe({
            "serve.queue_depth": self.queue_depth / self.queue_limit,
            "serve.arrived": float(self.counters["arrived"]),
            "serve.shed": float(shed),
        })

    # -- reporting -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted queries waiting for a worker."""
        return self._queue.qsize() if self._queue is not None else 0

    def _declare_families(self) -> MetricStore:
        """The ``repro_serve_*`` families, read from :attr:`counters`,
        :attr:`latency`, the breaker and the service at render time."""
        counters, breaker, service = self.counters, self.breaker, self.service
        store = MetricStore()
        store.declare("repro_serve_requests_total", "counter",
                      "Query pipeline outcomes, by disposition.",
                      lambda: {label: counters[key] for label, key in _OUTCOMES},
                      label="outcome")
        store.declare("repro_serve_arrived_total", "counter",
                      "Queries submitted: served + shed_overload + "
                      "shed_deadline + bad_request + error.",
                      lambda: counters["arrived"])
        store.declare("repro_serve_faults_ingested_total", "counter",
                      "Fault events applied through the incremental engine.",
                      lambda: counters["faults_ingested"])
        store.declare("repro_serve_latency_seconds", "summary",
                      "Submit-to-answer latency of served queries.", self.latency)
        store.declare("repro_serve_queue_depth", "gauge",
                      "Admitted queries waiting for a worker.",
                      lambda: self.queue_depth)
        store.declare("repro_serve_staleness_generations", "gauge",
                      "Generations the published snapshot lags the engine.",
                      service.staleness)
        store.declare("repro_serve_breaker_open", "gauge",
                      "1 while the degraded-mode circuit breaker is open.",
                      lambda: breaker.open)
        store.declare("repro_serve_breaker_trips_total", "counter",
                      "Times the circuit breaker tripped to degraded mode.",
                      lambda: breaker.trips)
        store.declare("repro_serve_generation", "gauge",
                      "Current fault-engine generation.",
                      lambda: service.generation)
        return store

    def stats(self) -> dict[str, Any]:
        arrived = self.counters["arrived"]
        shed = self.counters["shed_overload"] + self.counters["shed_deadline"]
        served = self.counters["served"]
        return {
            "counters": dict(self.counters),
            "queue_depth": self.queue_depth,
            "queue_limit": self.queue_limit,
            "accepting": self.accepting,
            "shed_fraction": shed / arrived if arrived else 0.0,
            "degraded_fraction": (
                self.counters["degraded"] / served if served else 0.0
            ),
            "error_fraction": (
                self.counters["errors"] / arrived if arrived else 0.0
            ),
            "latency": self.latency.summary(),
            "breaker": self.breaker.state(),
            "service": self.service.stats(),
        }
