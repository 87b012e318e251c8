"""Routing as a service: async query serving over live fault state.

The serving layer the engines were built for -- it answers the paper's
question ("is (s, d) minimally routable, and by which strategy?") over
HTTP against an :class:`~repro.faults.incremental.IncrementalFaultEngine`
that keeps absorbing fault arrivals and revivals underneath it, and it
is designed robustness-first: every failure mode has an explicit,
observable response instead of a collapse.

- :mod:`repro.serve.service` -- :class:`RoutingService`: immutable
  generation-fenced snapshots (never a torn read), the Def-3/Ext-1/2/3
  decision cascade, cached path witnesses, degradation tiers, and the
  alert-rule-driven :class:`ServiceBreaker`;
- :mod:`repro.serve.pipeline` -- :class:`QueryPipeline`: bounded-queue
  admission control, per-request deadline budgets, exponential-backoff
  retry for transiently-stale snapshots, heartbeat-fed breaker;
- :mod:`repro.serve.http` -- :class:`ServeApp`: the service's routes
  (``/query``, ``/fault``, ``/healthz``, ``/readyz``, ``/metrics``) on
  the one asyncio listener, :class:`~repro.obs.server.HttpApp`, that
  ``repro serve-metrics`` also runs on; :func:`run_app` serves it until
  SIGTERM/SIGINT and drains gracefully;
- :mod:`repro.serve.loadgen` -- :func:`run_qps_sweep`: the closed-loop
  QPS-ramp-under-chaos generator behind the CI latency gate
  (``benchmarks/check_serve_slo.py``).
"""

from repro.obs.server import run_app
from repro.serve.http import ServeApp
from repro.serve.loadgen import run_qps_sweep
from repro.serve.pipeline import QueryPipeline, QueryRequest, QueryResult
from repro.serve.service import (
    QueryAnswer,
    QueryError,
    RoutingService,
    ServeSnapshot,
    ServiceBreaker,
    default_breaker_rules,
)

__all__ = [
    "QueryAnswer",
    "QueryError",
    "QueryPipeline",
    "QueryRequest",
    "QueryResult",
    "RoutingService",
    "ServeApp",
    "ServeSnapshot",
    "ServiceBreaker",
    "default_breaker_rules",
    "run_app",
    "run_qps_sweep",
]
