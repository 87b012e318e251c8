"""Closed-loop load generator: QPS ramps under live fault churn.

:func:`run_qps_sweep` is the body of ``benchmarks/check_serve_slo.py``:
it stands up a :class:`~repro.serve.service.RoutingService` +
:class:`~repro.serve.pipeline.QueryPipeline` in-process (no HTTP -- the
sweep measures the serving pipeline, not socket overhead), then drives
staged QPS ramps while a seeded :class:`~repro.chaos.ChaosSchedule`
injects crash/revive events *between* queries.  Each stage records
p50/p95/p99 submit-to-answer latency and the degraded/shed/stale/error
fractions, so throughput and tail latency under fault churn are
benchmarked, CI-gated numbers.

Query pairs, model mix, and the chaos schedule all derive from one
seed; wall-clock latencies naturally vary run to run, which is why the
CI gate bounds them generously (p99 budget + shed ceiling) instead of
comparing exact values.
"""

from __future__ import annotations

import asyncio
from typing import Any, Sequence

import numpy as np

from repro.chaos.schedule import ChaosSchedule
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.obs.metrics import Histogram
from repro.serve.pipeline import QueryPipeline
from repro.serve.service import RoutingService

__all__ = ["run_qps_sweep"]

#: (queries-per-second, query count) per ramp stage.
DEFAULT_STAGES = ((500, 150), (2000, 300), (8000, 450))
QUICK_STAGES = ((500, 60), (2000, 120), (8000, 180))
#: Share of queries asked under the MCC fault model (the rest: blocks).
MCC_FRACTION = 0.25
#: The pipeline every sweep drives; every query asks for a path witness.
DEADLINE_S = 0.050
MAX_STALENESS = 2
QUEUE_LIMIT = 128
WORKERS = 4


def run_qps_sweep(
    side: int = 24,
    faults: int = 16,
    seed: int = 2002,
    *,
    stages: Sequence[tuple[float, int]] = DEFAULT_STAGES,
    chaos_events: int = 12,
) -> dict[str, Any]:
    """Run the staged sweep; returns the per-stage + total report dict."""
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(seed)
    initial = uniform_faults(mesh, faults, rng, forbidden={mesh.center})
    service = RoutingService(mesh, initial)

    # Endpoints drawn from nodes usable at t0; chaos may disable some
    # mid-run, which is the point -- those queries come back
    # ``blocked-endpoint`` on an honest generation, not as errors.
    usable = [
        (x, y) for x in range(side) for y in range(side)
        if not service.engine.unusable[x, y]
    ]
    total_queries = sum(count for _, count in stages)
    picks = rng.integers(0, len(usable), size=(total_queries, 2))
    models = rng.random(total_queries) < MCC_FRACTION
    schedule = ChaosSchedule.random(
        mesh, rng, events=chaos_events, horizon=max(2.0, float(total_queries)),
        revive_fraction=0.5, forbidden=set(initial),
    )
    # Map each chaos event's tick in [0, horizon) onto a query index, so
    # fault churn lands mid-stage regardless of wall-clock speed.
    events_by_index: dict[int, list] = {}
    horizon = max(schedule.horizon, 1.0)
    for event in schedule:
        index = min(int(event.time / horizon * total_queries), total_queries - 1)
        events_by_index.setdefault(index, []).append(event)

    async def _sweep() -> dict[str, Any]:
        pipeline = QueryPipeline(
            service, queue_limit=QUEUE_LIMIT, workers=WORKERS,
            deadline_s=DEADLINE_S, max_staleness=MAX_STALENESS,
        )
        await pipeline.start()
        loop = asyncio.get_running_loop()
        stage_reports = []
        cursor = 0
        try:
            for qps, count in stages:
                before = dict(pipeline.counters)
                tasks: list[asyncio.Task] = []
                start = loop.time()
                for i in range(count):
                    target = start + i / qps
                    delay = target - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    index = cursor + i
                    for event in events_by_index.get(index, ()):
                        try:
                            pipeline.ingest_fault(event.action, event.coord)
                        except ValueError:
                            pass  # already applied by block formation
                    a, b = picks[index]
                    tasks.append(asyncio.create_task(pipeline.submit(
                        usable[a], usable[b],
                        model="mcc" if models[index] else "block",
                        want_path=True,
                    )))
                results = await asyncio.gather(*tasks)
                cursor += count
                latency = Histogram()  # exact up to its 4,096-entry reservoir
                for r in results:
                    if r.ok:
                        latency.observe(r.latency_s)
                shed = sum(
                    r.status in ("overloaded", "deadline_exceeded") for r in results
                )
                errors = sum(r.status == "error" for r in results)
                degraded = sum(
                    1 for r in results if r.ok and r.answer.degraded
                )
                stale = sum(
                    1 for r in results if r.ok and r.answer.staleness > 0
                )
                delta = {
                    k: pipeline.counters[k] - before.get(k, 0)
                    for k in pipeline.counters
                }
                stage_reports.append({
                    "qps": qps,
                    "queries": count,
                    "ok": latency.count,
                    "shed": shed,
                    "errors": errors,
                    "degraded": degraded,
                    "stale": stale,
                    "shed_fraction": shed / count,
                    "degraded_fraction": degraded / count,
                    "error_fraction": errors / count,
                    "retries": delta.get("retries", 0),
                    **{key: None if latency.count == 0 else latency.percentile(q) * 1e3
                       for key, q in (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99))},
                })
        finally:
            await pipeline.drain(5.0)
        return {
            "config": {
                "side": side, "faults": faults, "seed": seed,
                "stages": [list(s) for s in stages],
                "chaos_events": chaos_events, "mcc_fraction": MCC_FRACTION,
                "deadline_ms": DEADLINE_S * 1e3, "max_staleness": MAX_STALENESS,
                "queue_limit": QUEUE_LIMIT, "workers": WORKERS,
            },
            "stages": stage_reports,
            "totals": pipeline.stats(),
        }

    return asyncio.run(_sweep())
