"""Seeded open-loop load for the serve workloads.

:func:`make_schedule` draws everything a serve run sends -- query pairs,
fault models, Poisson arrival times and the crash/revive fault events --
before any timing starts: the network, the fault log and (for a mix with
a hot set) the hot pairs and the cold queries from ``NETWORK_SEED``, the
rest of the traffic from the workload seed.  :func:`drive` then
replays the schedule against a :class:`~repro.serve.pipeline.QueryPipeline`
from one asyncio task in one thread, with no sockets: each arrival is
sent when it is due whether or not earlier queries have been answered,
and every query and fault event is timed from its *scheduled* time, so
a stall in the program also delays everything due behind it.  How late
the generator itself ran is recorded per arrival.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D


#: Seed of every mix's initial fault pattern and fault log (and of the
#: hot pairs and cold queries when there is a hot set): the network and
#: its churn are fixed, while the run's seed draws the rest of the traffic.
NETWORK_SEED = 2002
#: Share of queries asking for the MCC model.
MCC_SHARE = 0.25
#: Share of fault events that revive a node the schedule crashed.
REVIVE_SHARE = 0.5


@dataclass(frozen=True)
class Mix:
    """One serve traffic mix."""

    side: int
    faults: int
    qps: float
    want_path: bool
    fault_rate: float  # crash/revive events per second
    hot_pairs: int = 0  # size of the hot pair set (0: uniform pairs only)
    hot_share: float = 0.0  # share of queries drawn from the hot set


@dataclass
class Schedule:
    """Everything one run sends, in arrival order.

    ``arrivals`` holds ``(offset_s, kind, index)`` with ``kind`` 0 for a
    query (``queries[index]``) and 1 for a fault event (``events[index]``).
    ``hot`` lists the hot pairs whose witnesses set-up warms.
    """

    mesh: Mesh2D
    initial_faults: list[tuple[int, int]]
    queries: list[tuple[tuple[int, int], tuple[int, int], str]]
    events: list[tuple[str, tuple[int, int]]]
    arrivals: list[tuple[float, int, int]]
    hot: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)

    def faults_at(self, generation: int) -> list[tuple[int, int]]:
        """The fault set after the first ``generation`` fault events."""
        faults = set(self.initial_faults)
        for action, coord in self.events[:generation]:
            if action == "crash":
                faults.add(coord)
            else:
                faults.discard(coord)
        return sorted(faults)


def _arrival_times(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """``round(rate * seconds)`` sorted uniform offsets in ``[0, seconds)``:
    a Poisson process of ``rate`` conditioned on its expected count, so
    every seed sends the same number of arrivals."""
    return np.sort(rng.uniform(0.0, seconds, size=round(rate * seconds)))


def make_schedule(mix: Mix, seed: int, seconds: float) -> Schedule:
    """Draw one run's inputs: the mix's network, fault log and (with a hot
    set) query log from ``NETWORK_SEED``, then the traffic from ``seed``."""
    mesh = Mesh2D(mix.side, mix.side)
    network = np.random.default_rng(NETWORK_SEED)
    initial = uniform_faults(mesh, mix.faults, network)
    usable = np.argwhere(~build_faulty_blocks(mesh, initial).unusable)
    rng = np.random.default_rng(seed)

    def random_pairs(source: np.random.Generator, count: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        rows = source.integers(0, len(usable), size=(count, 2))
        rows[:, 1] = np.where(rows[:, 0] == rows[:, 1], (rows[:, 1] + 1) % len(usable), rows[:, 1])
        return [
            (tuple(map(int, usable[a])), tuple(map(int, usable[b]))) for a, b in rows
        ]

    def exact_share(source: np.random.Generator, candidates: np.ndarray, share: float,
                    total: int) -> set[int]:
        """``share`` of ``total`` items, drawn from ``candidates``: a fixed
        count, so a percentile of a two-population mix does not move with
        how many of each population one seed happened to draw."""
        picked = min(len(candidates), round(share * total))
        return set(source.choice(candidates, size=picked, replace=False).tolist())

    def models(source: np.random.Generator, pairs: list) -> list[str]:
        """The fault model each pair asks for.  The service maintains
        type-one MCCs only, the MCC model of quadrant I/III destinations,
        so MCC queries go to such pairs."""
        same_quadrant = np.array(
            [i for i, (s, d) in enumerate(pairs) if (d[0] - s[0]) * (d[1] - s[1]) >= 0],
            dtype=np.int64,
        )
        mcc = exact_share(source, same_quadrant, MCC_SHARE, len(pairs))
        return ["mcc" if i in mcc else "block" for i in range(len(pairs))]

    if mix.hot_pairs:
        # A fixed query log: the hot pairs, and the cold (once-seen) queries
        # -- pair, fault model and arrival time -- belong to the mix, so
        # every run pays for the same witness builds at the same moments.
        # The seed draws the hot traffic: when each hot query arrives, and
        # which hot pair and fault model it asks for.
        hot = random_pairs(network, mix.hot_pairs)
        cold_times = _arrival_times(network, mix.qps * (1 - mix.hot_share), seconds)
        cold_pairs = random_pairs(network, len(cold_times))
        hot_times = _arrival_times(rng, mix.qps * mix.hot_share, seconds)
        hot_asked = [hot[i] for i in rng.integers(0, len(hot), size=len(hot_times))]
        timed = sorted(
            list(zip(cold_times, cold_pairs, models(network, cold_pairs)))
            + list(zip(hot_times, hot_asked, models(rng, hot_asked))),
            key=lambda entry: entry[0],
        )
        query_times = [t for t, _, _ in timed]
        queries = [(s, d, model) for _, (s, d), model in timed]
    else:
        hot = []
        query_times = _arrival_times(rng, mix.qps, seconds)
        pairs = random_pairs(rng, len(query_times))
        queries = [(s, d, model) for (s, d), model in zip(pairs, models(rng, pairs))]

    # The fault log belongs to the mix, the time of each event included:
    # crash a node that is not faulty, or revive one the log crashed;
    # initial faults stay (permanently dead hardware).
    events_rng = network
    event_times = _arrival_times(network, mix.fault_rate, seconds)
    faulty = set(initial)
    crashed: list[tuple[int, int]] = []
    events: list[tuple[str, tuple[int, int]]] = []
    for _ in event_times:
        if crashed and events_rng.random() < REVIVE_SHARE:
            coord = crashed.pop(int(events_rng.integers(0, len(crashed))))
            faulty.discard(coord)
            events.append(("revive", coord))
            continue
        while True:
            flat = int(events_rng.integers(0, mesh.size))
            coord = (flat // mesh.m, flat % mesh.m)
            if coord not in faulty:
                break
        faulty.add(coord)
        crashed.append(coord)
        events.append(("crash", coord))

    arrivals = [(float(t), 0, i) for i, t in enumerate(query_times)]
    arrivals += [(float(t), 1, i) for i, t in enumerate(event_times)]
    arrivals.sort()
    return Schedule(mesh, sorted(initial), queries, events, arrivals, hot)


@dataclass
class Replay:
    """What :func:`drive` observed, indexed like the schedule."""

    results: list[Any]
    latency_s: list[float]
    fault_latency_s: list[float]
    reports: list[Any]
    lateness_s: list[float]
    wall_s: float = 0.0
    cpu_s: float = 0.0  # process CPU time over the replay
    stretch: float = 1.0  # wall seconds the schedule took per schedule second


async def drive(pipeline, schedule: Schedule, want_path: bool,
                pace: Callable[[], float] = lambda: 1.0,
                due_by_source: dict | None = None) -> Replay:
    """Send the schedule open-loop through ``pipeline``; await every answer.

    The gap before each arrival is its gap in the schedule times
    ``pace()``, called as the previous arrival is sent: with ``pace``
    reporting how much slower than the reference the host has run lately,
    the same load keeps the program as busy as at the reference speed
    while the host's speed drifts.  ``due_by_source`` (traced run only)
    maps ``id(source)`` of each query in flight to its scheduled time, so
    a wrapper around the service can measure how long the query waited
    before it was answered.
    """
    loop = asyncio.get_running_loop()
    replay = Replay(
        results=[None] * len(schedule.queries),
        latency_s=[0.0] * len(schedule.queries),
        fault_latency_s=[],
        reports=[],
        lateness_s=[],
    )

    async def query(index: int, due: float) -> None:
        source, dest, model = schedule.queries[index]
        source = (source[0], source[1])  # a fresh object per request
        if due_by_source is not None:
            due_by_source[id(source)] = due
        result = await pipeline.submit(source, dest, model=model, want_path=want_path)
        replay.latency_s[index] = loop.time() - due
        replay.results[index] = result

    tasks = []
    cpu = time.process_time()
    start = loop.time() + 0.005
    due, at = start, 0.0  # when the previous arrival was due, and its offset
    for offset, kind, index in schedule.arrivals:
        due += (offset - at) * pace()
        at = offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        replay.lateness_s.append(loop.time() - due)
        if kind == 0:
            tasks.append(loop.create_task(query(index, due)))
        else:
            action, coord = schedule.events[index]
            replay.reports.append(pipeline.ingest_fault(action, coord))
            replay.fault_latency_s.append(loop.time() - due)
    await asyncio.gather(*tasks)
    replay.stretch = (due - start) / at if at > 0 else 1.0
    replay.wall_s = loop.time() - start
    replay.cpu_s = time.process_time() - cpu
    return replay
