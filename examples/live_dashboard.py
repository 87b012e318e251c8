"""Live telemetry: per-tick series, alert rules, and a scrape endpoint.

A chaos run normally reports only its final verdict.  This example
attaches an ``Observatory`` so the run streams per-tick health series
into a ring-buffer TSDB while it executes:

- a ``TelemetryApp`` exposes the live store over HTTP (``/metrics`` in
  Prometheus text format, ``/series.json``, ``/healthz``) the whole
  time the simulation runs on a worker thread, driven by ``run_app``
  (the same listener and driver behind ``repro serve-metrics``);
- the default alert rules watch the series (convergence deadline,
  live-retry storms, queue runaway, drop-rate SLO) and any firing lands
  in the chaos report;
- at the end, the collected series render as an ANSI sparkline
  dashboard — the same panel ``python -m repro top`` redraws live.

Run:  python examples/live_dashboard.py [seed]
"""

import asyncio
import sys
import urllib.request

import numpy as np

from repro.chaos import ChannelFaultPlan, ChaosSchedule, verify_convergence
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.obs import Dashboard, Observatory, TelemetryApp, run_app


def main(seed: int = 7) -> None:
    mesh = Mesh2D(16, 16)
    rng = np.random.default_rng(seed)
    faults = uniform_faults(mesh, 10, rng)
    plan = ChannelFaultPlan(drop=0.08, duplicate=0.02, seed=seed)
    schedule = ChaosSchedule.random(mesh, rng, events=6, forbidden=set(faults))
    print(f"{mesh}: {len(faults)} faults, {plan.describe()}, "
          f"{len(schedule)} chaos events\n")

    # -- 1. Run the chaos workload under a live observatory -----------
    observatory = Observatory()  # default alert rules, 512-point series
    app = TelemetryApp(observatory=observatory)
    scraped = {}

    def fetch(path: str) -> str:
        with urllib.request.urlopen(app.url(path), timeout=5) as rsp:
            return rsp.read().decode("utf-8")

    async def work(stop: asyncio.Event) -> None:
        print(f"scrape endpoint up at {app.url('/metrics')}")
        scraped["report"] = await asyncio.to_thread(
            verify_convergence,
            mesh, faults, plan, schedule, seed=seed, observatory=observatory,
        )
        # The listener is still live: scrape the finished run's metrics.
        scraped["metrics"] = await asyncio.to_thread(fetch, "/metrics")
        scraped["healthz"] = await asyncio.to_thread(fetch, "/healthz")

    asyncio.run(run_app(app, work=work))
    report, exposition, health = (
        scraped["report"], scraped["metrics"], scraped["healthz"]
    )

    live = [s for s in exposition.splitlines() if s.startswith("repro_live_sample")]
    print(f"scraped {len(live)} live series samples; healthz: {health}\n")

    # -- 2. The alert verdict is part of the chaos report -------------
    print(report.summary())
    for alert in report.alerts:
        print(f"  ! [{alert.rule}] t={alert.tick:g} {alert.message}")
    if not report.alerts:
        print("  no alerts: the run stayed inside the benign envelope")

    # -- 3. Render the collected series as the `repro top` panel ------
    print()
    print(Dashboard(observatory, width=48, color=False).render())
    if not report.ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
