"""Asyncio query pipeline: admission control, deadlines, backoff.

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
  paying for the answer; retries never sleep past the deadline.
- **Backoff on staleness.**  With ``max_staleness`` set, a snapshot too
  far behind the engine raises inside the service; the worker retries
  with exponential backoff (waiting out the refresher), and when the
  deadline budget runs out it serves the *stale* snapshot anyway -- a
  degraded answer whose ``staleness`` field says exactly how far behind
  it was, never a silent wrong answer and never an error.

A heartbeat task samples queue depth, shed/arrival deltas, and snapshot
staleness into the :class:`~repro.serve.service.ServiceBreaker`; while
the breaker is open, workers force the degraded tier (block-model
answers, no path witnesses), which is what lets the backlog drain.  The
refresher coalesces fault bursts into one snapshot publication; a
refresh only copies the engine's delta-maintained grids, so it has no
cheaper tier.
"""

from __future__ import annotations

import asyncio
import collections
from dataclasses import dataclass, field
from typing import Any

from repro.mesh.geometry import Coord
from repro.obs.metrics import Histogram
from repro.parallel.cache import StaleArtifactError
from repro.serve.service import QueryAnswer, QueryError, RoutingService, ServiceBreaker

__all__ = ["QueryPipeline", "QueryRequest", "QueryResult"]


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
    retries: int = 0
    latency_s: float = field(default=0.0)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def jsonable(self) -> dict[str, Any]:
        body: dict[str, Any] = {"status": self.status, "retries": self.retries,
                                "latency_ms": self.latency_s * 1e3}
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
        max_staleness: int | None = 4,
        backoff_base_s: float = 0.001,
        backoff_cap_s: float = 0.016,
        refresh_delay_s: float = 0.002,
        heartbeat_s: float = 0.010,
        breaker: ServiceBreaker | None = None,
        latency: Histogram | None = None,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.service = service
        # The pipeline owns refresh cadence: ingestion stays O(affected)
        # and the refresher coalesces bursts into one snapshot rebuild.
        service.auto_refresh = False
        self.queue_limit = queue_limit
        self.workers = workers
        self.deadline_s = deadline_s
        self.max_staleness = max_staleness
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.refresh_delay_s = refresh_delay_s
        self.heartbeat_s = heartbeat_s
        self.breaker = breaker if breaker is not None else ServiceBreaker()
        self.latency = latency if latency is not None else Histogram()
        self.counters: collections.Counter[str] = collections.Counter()
        self.accepting = False
        self._queue: asyncio.Queue | None = None
        self._dirty: asyncio.Event | None = None
        self._tasks: list[asyncio.Task] = []

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "QueryPipeline":
        if self._tasks:
            raise RuntimeError("pipeline already started")
        self._queue = asyncio.Queue(self.queue_limit)
        self._dirty = asyncio.Event()
        self.accepting = True
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]
        self._tasks.append(asyncio.create_task(self._refresher(), name="serve-refresher"))
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

    def ingest_fault(self, event: str, coord: Coord) -> Any:
        """Apply one fault event; the refresher picks up the new generation.

        The engine update itself is synchronous and O(affected); snapshot
        publication is deferred (coalesced), so a burst of events costs
        one rebuild, and queries in the gap see an honest ``staleness``.
        """
        report = self.service.apply_fault(event, coord)
        self.counters["faults_ingested"] += 1
        if self._dirty is not None:
            self._dirty.set()
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
        degraded = self.breaker.open
        retries = 0
        backoff = self.backoff_base_s
        while True:
            try:
                answer = self.service.answer(
                    request.source, request.dest, model=request.model,
                    want_path=request.want_path,
                    max_staleness=None if degraded else self.max_staleness,
                    degraded=degraded,
                )
                break
            except QueryError as error:
                self.counters["bad_requests"] += 1
                return QueryResult(status="bad_request", error=str(error))
            except StaleArtifactError:
                if self._dirty is not None:
                    self._dirty.set()  # make sure a refresh is coming
                delay = min(backoff, request.deadline - loop.time())
                if delay <= 0:
                    # Budget exhausted: degrade to the stale snapshot
                    # rather than shed -- the answer carries its honest
                    # generation and staleness.
                    answer = self.service.answer(
                        request.source, request.dest, model=request.model,
                        want_path=request.want_path, max_staleness=None,
                        degraded=True,
                    )
                    self.counters["stale_served"] += 1
                    break
                retries += 1
                self.counters["retries"] += 1
                await asyncio.sleep(delay)
                backoff = min(backoff * 2, self.backoff_cap_s)
        latency = loop.time() - request.submitted
        self.latency.observe(latency)
        self.counters["served"] += 1
        if answer.degraded:
            self.counters["degraded"] += 1
        if answer.staleness > 0:
            self.counters["stale_answers"] += 1
        return QueryResult(status="ok", answer=answer, retries=retries, latency_s=latency)

    async def _refresher(self) -> None:
        assert self._dirty is not None
        while True:
            await self._dirty.wait()
            self._dirty.clear()
            # Coalesce: let a burst of ingest_fault calls land before
            # paying for one snapshot rebuild covering all of them.
            await asyncio.sleep(self.refresh_delay_s)
            self.service.refresh()

    async def _heartbeat(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_s)
            self.pulse()

    def pulse(self) -> bool:
        """One breaker evaluation over the current load signals."""
        qsize = self._queue.qsize() if self._queue is not None else 0
        shed = self.counters["shed_overload"] + self.counters["shed_deadline"]
        return self.breaker.observe({
            "serve.queue_depth": qsize / self.queue_limit,
            "serve.arrived": float(self.counters["arrived"]),
            "serve.shed": float(shed),
            "serve.staleness": float(self.service.staleness()),
            "serve.degraded": float(self.counters["degraded"]),
        })

    # -- reporting -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        arrived = self.counters["arrived"]
        shed = self.counters["shed_overload"] + self.counters["shed_deadline"]
        served = self.counters["served"]
        return {
            "counters": dict(self.counters),
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
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
