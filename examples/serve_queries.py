"""Routing as a service, end to end: queries, churn, degradation, drain.

Boots the full serving stack in-process -- a :class:`RoutingService`
(generation-fenced snapshots over the incremental fault engine), the
:class:`QueryPipeline` (bounded-queue admission, deadline budgets, a
degraded-mode breaker), and the :class:`ServeApp` HTTP front end --
then plays a client against it over real sockets:

- routability queries before and after live fault ingestion, showing the
  verdict/strategy/generation/staleness fields of each answer;
- a burst far beyond the queue bound, showing explicit ``429 overloaded``
  shedding instead of collapse;
- the degraded tier: with the circuit breaker forced open, MCC queries
  fall back to block-model answers marked ``degraded``;
- a graceful shutdown, with ``/readyz`` flipping to 503 while in-flight
  work drains.

Everything runs on one asyncio loop -- the "client" uses raw
``asyncio.open_connection`` so the example needs nothing but the
standard library.

Run:  python examples/serve_queries.py [seed]
"""

import asyncio
import json
import sys

import numpy as np

from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.serve import QueryPipeline, RoutingService, ServeApp


async def http(host, port, target, method="GET"):
    """One tiny HTTP/1.1 exchange; returns (status, parsed JSON body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
        "Connection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return status, json.loads(body) if body else {}


def show(tag, payload):
    answer = payload.get("answer", {})
    print(
        f"  {tag:<28} {payload.get('status', '?'):>9}  "
        f"verdict={answer.get('verdict', '-'):<24} "
        f"strategy={answer.get('strategy', '-'):<22} "
        f"gen={answer.get('generation', '-')} "
        f"stale={answer.get('staleness', '-')} "
        f"degraded={answer.get('degraded', '-')}"
    )


async def run(seed: int) -> None:
    mesh = Mesh2D(16, 16)
    faults = uniform_faults(mesh, 10, np.random.default_rng(seed),
                            forbidden={mesh.center})
    service = RoutingService(mesh, faults)
    pipeline = QueryPipeline(service, queue_limit=8, workers=2)
    app = ServeApp(service, pipeline, notice_s=0.2)
    await app.start()
    host, port = app.host, app.port
    print(f"{mesh}: {len(faults)} faults, serving on {app.url('/query')}\n")

    print("fresh answers (generation 0):")
    _, payload = await http(host, port, "/query?source=0,0&dest=15,15")
    show("corner to corner", payload)
    _, payload = await http(host, port, "/query?source=0,0&dest=15,15&model=mcc")
    show("same pair, MCC model", payload)

    print("\ningest a crash at the centre, query again:")
    status, report = await http(
        host, port, "/fault?event=crash&coord=8,8", method="POST")
    print(f"  POST /fault -> {status}, generation {report['generation']}, "
          f"{report['affected_cells']} cells recomputed")
    _, payload = await http(host, port, "/query?source=0,0&dest=15,15")
    show("corner to corner", payload)

    print("\na burst 10x the queue bound (admission control, not collapse):")
    responses = await asyncio.gather(*(
        http(host, port, f"/query?source=0,{y % 16}&dest=15,{(y * 7) % 16}")
        for y in range(80)
    ))
    outcomes = {}
    for status, _ in responses:
        outcomes[status] = outcomes.get(status, 0) + 1
    print(f"  HTTP outcomes: {dict(sorted(outcomes.items()))} "
          "(429 = shed with an explicit 'overloaded')")

    print("\nbreaker forced open (degraded tier):")
    pipeline.breaker.open = True
    _, payload = await http(host, port, "/query?source=0,0&dest=15,15&model=mcc")
    show("MCC query, breaker open", payload)
    _, health = await http(host, port, "/healthz")
    print(f"  /healthz status: {health['status']!r} (alive, honest about it)")
    pipeline.breaker.open = False

    print("\ngraceful shutdown:")
    shutdown = asyncio.create_task(app.shutdown())
    await asyncio.sleep(0.05)  # inside the notice window
    status, ready = await http(host, port, "/readyz")
    print(f"  /readyz during drain -> {status} {ready['status']!r}")
    await shutdown
    stats = pipeline.stats()
    print(f"  drained: {stats['counters'].get('served', 0)} served, "
          f"{stats['counters'].get('shed_overload', 0)} shed, "
          f"{stats['counters'].get('degraded', 0)} degraded, "
          f"final generation {service.generation}")


def main(seed: int = 7) -> None:
    asyncio.run(run(seed))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
