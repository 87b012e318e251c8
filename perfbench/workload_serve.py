"""``serve_read`` and ``serve_churn``: the serving layer under two mixes.

Both stand up a :class:`~repro.serve.service.RoutingService` (block and
MCC models) behind a :class:`~repro.serve.pipeline.QueryPipeline` in
this process and replay a seeded open-loop schedule (see
:mod:`openloop`) through ``QueryPipeline.submit`` and
``QueryPipeline.ingest_fault``.  Each mix serves one fixed network; the
seed draws the traffic and the fault events.

- ``serve_read``: 64x64 mesh, 40 faults, ~200 queries/s with path
  witnesses, 90 % from a hot set of 250 pairs whose witnesses set-up
  warms, ~1 fault event every 2 s.
- ``serve_churn``: 200x200 mesh, 400 faults, ~400 verdict-only queries/s
  over uniform pairs plus ~50 crash/revive events/s.

Correctness, checked after the timed window: every snapshot the service
published is captured (as a digest of its grids) through
``RoutingService.refresh``; for a seeded sample of answers the grids at
the answer's claimed generation are rebuilt from scratch from the
schedule's fault events and must match the published snapshot, a
minimal verdict must be backed by ``batch_minimal_path_exists`` on that
grid, and a witness must be exactly D (D+2 when sub-minimal) hops long,
start and end at the endpoints and cross no blocked node.
"""

from __future__ import annotations

import asyncio
import hashlib
import selectors
import statistics
import time
from collections import Counter
from typing import Callable

import numpy as np

from common import HostSpeed, Outcome, SetupClock, peak_rss_mb, percentile, settle
from openloop import Mix, Schedule, drive, make_schedule
from spans import SpanRecorder, metric_name

from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import batch_minimal_path_exists
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.geometry import manhattan_distance
from repro.serve.pipeline import QueryPipeline
from repro.serve.service import RoutingService

MIXES = {
    "serve_read": Mix(side=64, faults=40, qps=200.0, want_path=True, fault_rate=0.5,
                      hot_pairs=250, hot_share=0.9),
    "serve_churn": Mix(side=200, faults=400, qps=400.0, want_path=False, fault_rate=50.0),
}
#: Pipeline settings.  The deadline sits far above any latency a healthy
#: run shows, so a shed query means overload, not a tight budget.
PIPELINE = dict(queue_limit=256, workers=4, deadline_s=0.5, max_staleness=4)
#: Answers re-checked per run, drawn from at most this many generations.
CHECK_ANSWERS = 1000
CHECK_GENERATIONS = 40

LAYERS = (
    ("repro.serve.service:RoutingService.answer", "serve.service.answer"),
    ("repro.serve.service:RoutingService.refresh", "serve.service.refresh"),
    ("repro.faults.incremental:IncrementalFaultEngine.apply", "faults.incremental.apply"),
    ("repro.core.conditions:safe_source_decision", "core.conditions"),
    ("repro.core.extensions:extension1_decision", "core.extensions.ext1"),
    ("repro.core.extensions:extension2_decision", "core.extensions.ext2"),
    ("repro.core.extensions:extension3_decision", "core.extensions.ext3"),
    ("repro.core.routing:route_with_decision", "core.routing.witness"),
    ("repro.core.boundaries:CanonicalBoundaryMap.build", "core.boundaries.build"),
    ("repro.core.safety:compute_safety_levels", "core.safety"),
)
#: Answer strategies, as ``serve.cascade.rung_<label>`` counters.
RUNGS = ("definition3", "extension1", "extension2", "extension3",
         "extension1-sub-minimal", "none")


def grid_digest(grid: np.ndarray | None) -> str | None:
    return None if grid is None else hashlib.sha1(np.packbits(grid).tobytes()).hexdigest()


class Published:
    """Digests of every snapshot the service published, by generation."""

    def __init__(self, service: RoutingService):
        self.blocked: dict[int, str] = {}
        self.mcc: dict[int, str] = {}
        self.capture(service.snapshot())
        refresh = service.refresh

        def capturing_refresh(*args, **kwargs):
            snapshot = refresh(*args, **kwargs)
            self.capture(snapshot)
            return snapshot

        service.refresh = capturing_refresh

    def capture(self, snapshot) -> None:
        if snapshot.generation not in self.blocked:
            self.blocked[snapshot.generation] = grid_digest(snapshot.blocked)
        if snapshot.mcc_blocked is not None and snapshot.generation not in self.mcc:
            self.mcc[snapshot.generation] = grid_digest(snapshot.mcc_blocked)


def build_service(schedule: Schedule, mix: Mix) -> RoutingService:
    """One set-up: the service on the initial faults, hot witnesses warm."""
    service = RoutingService(schedule.mesh, schedule.initial_faults, mcc_model=True)
    for source, dest in schedule.hot:
        service.answer(source, dest, model="block", want_path=mix.want_path)
    return service


def serve(service: RoutingService, schedule: Schedule, mix: Mix, pace: Callable[[], float],
          recorder: SpanRecorder | None = None):
    """Replay ``schedule``, paced by ``pace`` (see :func:`openloop.drive`),
    through a fresh pipeline on ``service``."""
    published = Published(service)
    pipeline = QueryPipeline(service, **PIPELINE)
    due_by_source: dict[int, float] | None = None
    waits: list[float] = []
    if recorder is not None:
        due_by_source = {}
        timed_answer = RoutingService.answer

        def answer(self, source, dest, **kwargs):
            due = due_by_source.pop(id(source), None)
            if due is not None:
                waits.append(time.monotonic() - due)
            return timed_answer(self, source, dest, **kwargs)

        recorder.patch_attribute(RoutingService, "answer", answer)

    async def main():
        await pipeline.start()
        try:
            return await drive(pipeline, schedule, mix.want_path, pace, due_by_source)
        finally:
            await pipeline.drain()

    settle()
    if recorder is None:
        replay = asyncio.run(main())
    else:
        replay = run_traced_loop(main, recorder)
    return replay, pipeline, published, waits


def run_traced_loop(main, recorder: SpanRecorder):
    """Run ``main`` on a loop whose waiting and callbacks are spans.

    Time blocked in the selector is ``asyncio.idle``; each callback the
    loop runs is ``loadgen`` when it steps the schedule-replay task and
    ``serve.pipeline`` otherwise (admission, workers, refresher,
    heartbeat); the loop's own bookkeeping outside both stays in the
    root span and is reported as unattributed.
    """
    enter, exit_ = recorder.enter, recorder.exit

    class TimedSelector(selectors.DefaultSelector):
        def select(self, timeout=None):
            enter("asyncio.idle")
            try:
                return super().select(timeout)
            finally:
                exit_()

    handle_run = asyncio.events.Handle._run
    replay_task: list[asyncio.Task] = []

    def timed_run(handle):
        owner = getattr(handle._callback, "__self__", None)
        enter("loadgen" if replay_task and owner is replay_task[0] else "serve.pipeline")
        try:
            handle_run(handle)
        finally:
            exit_()

    async def traced_main():
        replay_task.append(asyncio.current_task())
        return await main()

    recorder.patch_attribute(asyncio.events.Handle, "_run", timed_run)
    loop = asyncio.SelectorEventLoop(TimedSelector())
    try:
        recorder.enter("serve.window")
        try:
            return loop.run_until_complete(traced_main())
        finally:
            recorder.exit()
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.close()


def check_answers(schedule: Schedule, replay, published: Published, mix: Mix,
                  seed: int) -> list[str]:
    """Re-check a seeded sample of answers against from-scratch grids."""
    answered = [r.answer for r in replay.results if r is not None and r.ok]
    generations = sorted({a.generation for a in answered})
    rng = np.random.default_rng(seed)
    if len(generations) > CHECK_GENERATIONS:
        generations = sorted(rng.choice(generations, CHECK_GENERATIONS, replace=False).tolist())
    chosen = set(generations)
    pool = [a for a in answered if a.generation in chosen]
    if len(pool) > CHECK_ANSWERS:
        pool = [pool[i] for i in sorted(rng.choice(len(pool), CHECK_ANSWERS, replace=False))]

    problems: list[str] = []
    grids: dict[tuple[int, str], np.ndarray] = {}
    for generation in generations:
        faults = schedule.faults_at(generation)
        blocked = build_faulty_blocks(schedule.mesh, faults).unusable
        grids[generation, "block"] = blocked
        if published.blocked.get(generation) != grid_digest(blocked):
            problems.append(f"generation {generation}: published block grid differs from a rebuild")
        if generation in published.mcc:
            mcc = build_mccs(schedule.mesh, faults, MCCType.TYPE_ONE).blocked
            grids[generation, "mcc"] = mcc
            if published.mcc[generation] != grid_digest(mcc):
                problems.append(f"generation {generation}: published MCC grid differs from a rebuild")

    for answer in pool:
        grid = grids.get((answer.generation, answer.model_used))
        label = f"{answer.source}->{answer.dest} {answer.model_used} @{answer.generation}"
        if grid is None:
            problems.append(f"{label}: no published snapshot for the claimed generation")
            continue
        if answer.verdict == "blocked-endpoint":
            if not (grid[answer.source] or grid[answer.dest]):
                problems.append(f"{label}: blocked-endpoint but both endpoints are free")
            continue
        if answer.minimal and not batch_minimal_path_exists(
            grid, answer.source, np.array([answer.dest])
        )[0]:
            problems.append(f"{label}: minimal verdict but no minimal path exists")
        witness_expected = (
            mix.want_path and answer.routable and answer.model_used == "block"
            and not answer.degraded
        )
        if witness_expected:
            problems += check_witness(label, answer, grids[answer.generation, "block"])
    return problems


def check_witness(label: str, answer, blocked: np.ndarray) -> list[str]:
    path = answer.path
    if path is None:
        return [f"{label}: routable answer without a witness"]
    hops = manhattan_distance(answer.source, answer.dest) + (0 if answer.minimal else 2)
    problems = []
    if len(path) - 1 != hops or path[0] != answer.source or path[-1] != answer.dest:
        problems.append(f"{label}: witness of {len(path) - 1} hops, expected {hops}")
    if any(abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1 for a, b in zip(path, path[1:])):
        problems.append(f"{label}: witness makes a non-adjacent hop")
    if any(blocked[node] for node in path):
        problems.append(f"{label}: witness crosses a blocked node")
    return problems


def summarize(replay) -> dict[str, float]:
    results = replay.results
    ok = [r for r in results if r is not None and r.ok]
    latencies = [replay.latency_s[i] for i, r in enumerate(results) if r is not None and r.ok]
    return {
        "answers": len(ok),
        "failed_queries": len(results) - len(ok),
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p95_ms": percentile(latencies, 95) * 1e3,
        "query_p99_ms": percentile(latencies, 99) * 1e3,
        "goodput_qps": len(ok) / replay.wall_s,
        "degraded_fraction": sum(r.answer.degraded for r in ok) / max(1, len(ok)),
        "stale_fraction": sum(r.answer.staleness > 0 for r in ok) / max(1, len(ok)),
        "fault_p99_ms": percentile(replay.fault_latency_s, 99) * 1e3,
        "lateness_p99_ms": percentile(replay.lateness_s, 99) * 1e3,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    mix = MIXES[workload]
    schedule = make_schedule(mix, seed, seconds)
    host = HostSpeed()
    setup = SetupClock(lambda: build_service(schedule, mix), host)
    with host:
        service = setup.before()
        # The open loop runs in reference-speed time: while the host runs
        # slower its arrivals are spread out as much, so the program is as
        # busy as at the reference speed.  Queueing makes an open loop's
        # tail grow faster than the host slows (the p95 of serve_read as
        # timed grew with the square of the slowdown); a pace fixed from the
        # set-up's samples missed the window's speed by up to 12 %, and
        # moved the p95 by as much again.
        window, (replay, _, published, _) = host.time(
            lambda: serve(service, schedule, mix, host.recent_slowdown)
        )
        generation = service.engine.generation
        service = None
        setup.after()
    # The program's memory: set-up and window, before the checks rebuild grids.
    peak_mb = peak_rss_mb()
    violations = check_answers(schedule, replay, published, mix, seed)
    if generation != len(schedule.events):
        violations.append("engine generation does not count the applied fault events")
    stats = summarize(replay)
    attempted = len(schedule.queries) + len(schedule.events)
    failed = stats["failed_queries"] + len(violations)
    outcome = Outcome(attempted=attempted, failed=failed, violations=violations)
    # Query latency is CPU work on one thread (witness builds, refreshes,
    # the event loop) plus queueing behind it: scaled to the reference
    # host speed by the mean of the samples taken through the replay.
    slowdown = host.slowdown(window.first, window.last)
    outcome.end_to_end = {
        "setup_s": setup.median_s,
        "peak_rss_mb": peak_mb,
        "throughput_per_s": stats["goodput_qps"] * replay.stretch,  # per reference second
        "latency_p50_ms": stats["query_p50_ms"] / slowdown,
        "latency_tail_ms": stats["query_p95_ms"] / slowdown,
    }
    units = {"answers": "count", "goodput_qps": "1/s", "fault_p99_ms": "ms",
             "lateness_p99_ms": "ms", "query_p50_ms": "ms", "query_p95_ms": "ms",
             "query_p99_ms": "ms"}
    outcome.report = {name: (stats[name], units.get(name, "ratio")) for name in (
        "query_p50_ms", "query_p95_ms", "query_p99_ms", "goodput_qps", "degraded_fraction",
        "stale_fraction", "fault_p99_ms", "lateness_p99_ms", "answers")}
    outcome.report["error_rate"] = (failed / attempted, "ratio")
    outcome.report["host_slowdown"] = (slowdown, "x")
    outcome.report["schedule_stretch"] = (replay.stretch, "x")
    if trace:
        # The traced replay takes no host-speed samples (it keeps the
        # untraced replay's mean pace); neither does the CPU time it is
        # compared with.
        untraced_cpu_s = replay.cpu_s - window.chunk_s
        outcome.layers = traced_layers(workload, schedule, mix, replay.stretch, untraced_cpu_s)
    return outcome


def traced_layers(workload: str, schedule: Schedule, mix: Mix, stretch: float,
                  untraced_cpu_s: float) -> dict[str, float]:
    service = build_service(schedule, mix)
    witness_before = dict(service.stats()["witness_cache"])
    recorder = SpanRecorder()
    for target, name in LAYERS:
        recorder.instrument(target, name)
    refreshes, degraded = service.refreshes, service.degraded_refreshes
    try:
        replay, pipeline, _, waits = serve(service, schedule, mix, lambda: stretch, recorder)
    finally:
        recorder.uninstall()
    stats = summarize(replay)
    witness = service.stats()["witness_cache"]
    hits = witness["hits"] - witness_before["hits"]
    misses = witness["misses"] - witness_before["misses"]
    answers = [r.answer for r in replay.results if r is not None and r.ok]
    rungs = Counter(answer.strategy for answer in answers)
    reports = replay.reports
    counters = pipeline.counters

    def p(name: str, q: float, scale: float) -> float:
        return percentile(recorder.durations.get(name, []), q) * scale

    layers = {
        metric_name("core.routing.witness", "calls"): recorder.count("core.routing.witness"),
        metric_name("core.routing.witness", "p99_ms"): p("core.routing.witness", 99, 1e3),
        metric_name("core.boundaries.build", "calls"): recorder.count("core.boundaries.build"),
        "serve.service.witness_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        metric_name("serve.service.answer", "p50_us"): p("serve.service.answer", 50, 1e6),
        metric_name("serve.service.answer", "p99_us"): p("serve.service.answer", 99, 1e6),
        metric_name("serve.service.refresh", "p99_ms"): p("serve.service.refresh", 99, 1e3),
        metric_name("serve.service.refresh", "count"): service.refreshes - refreshes,
        "serve.service.degraded_refreshes": service.degraded_refreshes - degraded,
        metric_name("faults.incremental.apply", "p99_ms"): p("faults.incremental.apply", 99, 1e3),
        "faults.incremental.affected_cells_mean": (
            statistics.fmean(r.affected_cells for r in reports) if reports else 0.0
        ),
        "faults.incremental.full_rebuilds": sum(r.full_rebuild for r in reports),
        "serve.pipeline.queue_wait_p50_ms": percentile(waits, 50) * 1e3,
        "serve.pipeline.queue_wait_p99_ms": percentile(waits, 99) * 1e3,
        "serve.pipeline.shed": counters["shed_overload"] + counters["shed_deadline"],
        "serve.pipeline.retries": counters["retries"],
        "serve.pipeline.stale_served": counters["stale_served"],
        "serve.breaker.trips": pipeline.breaker.trips,
        "loadgen.lateness_p99_ms": stats["lateness_p99_ms"],
        "error_rate": stats["failed_queries"] / max(1, len(replay.results)),
        "degraded_fraction": stats["degraded_fraction"],
        "stale_fraction": stats["stale_fraction"],
        "fault_p99_ms": stats["fault_p99_ms"],
        "query_p99_ms": stats["query_p99_ms"],
        "trace.wall_s": recorder.durations["serve.window"][0],
        "trace.unattributed_s": recorder.busy("serve.window"),
        "trace.overhead_pct": 100.0 * (replay.cpu_s / untraced_cpu_s - 1.0),
        **recorder.busy_metrics(
            [name for _, name in LAYERS] + ["asyncio.idle", "loadgen", "serve.pipeline"]
        ),
    }
    for rung in RUNGS:
        layers["serve.cascade.rung_" + rung.replace("-", "_")] = rungs.get(rung, 0)
    recorder.write(workload)
    return layers
