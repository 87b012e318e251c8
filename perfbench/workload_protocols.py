"""``protocols``: the message-passing simulator under chaos.

Each iteration is one :func:`~repro.chaos.verify.verify_convergence`
call on a 96x96 mesh with 1 % initial faults, a seeded
:class:`~repro.chaos.plan.ChannelFaultPlan` (1 % drop, 0.5 % duplicate)
and a :class:`~repro.chaos.schedule.ChaosSchedule` of 8 crash/revive
events: the hardened dynamic-update protocol runs through the chaos,
stabilizes, and its distributed state is compared with the batch
oracles.  ``converge_s`` is the wall time of that call, from
``ChaosRunner`` construction to the verified report.  A run builds its
``INSTANCES`` instances before timing starts and converges each of them
in a fixed number of interleaved passes for its
``--seconds``; each convergence is scaled to the reference host speed by
the host-speed samples taken while it ran (see :class:`common.HostSpeed`),
and each instance keeps its median scaled time.

Correctness: every report must be ``ConvergenceReport.ok``.
"""

from __future__ import annotations

import statistics

import numpy as np

from common import HostSpeed, Outcome, SetupClock, Timing, peak_rss_mb, repeat_count, settle
from spans import SpanRecorder

import repro.chaos.verify as chaos_verify
from repro.chaos import ChannelFaultPlan, ChaosSchedule
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D

SIDE = 96
FAULT_SHARE = 0.01
CHAOS_EVENTS = 8
INSTANCES = 4
#: Seed of the instances' faults and chaos schedules: with those drawn
#: per run seed, the slowest of four instances moved by 25 % between
#: seeds -- the instances' size, not the program's speed.
INSTANCE_SEED = 2002
MIN_PASSES = 3
#: One pass with its host-speed samples, in seconds at the reference speed.
PASS_S = 5.5

LAYERS = (
    ("repro.chaos.verify:verify_convergence", "chaos.verify", None),
    ("repro.chaos.runner:ChaosRunner.__init__", "chaos.runner", None),
    ("repro.chaos.runner:ChaosRunner.run", "chaos.runner", None),
    ("repro.simulator.network:MeshNetwork.run", "simulator.network.run", None),
    ("repro.simulator.protocols.reliable:stabilize_network",
     "simulator.protocols.reliable.stabilize", "repro.chaos.runner"),
    ("repro.faults.blocks:build_faulty_blocks", "chaos.verify.oracle", "repro.chaos.verify"),
    ("repro.core.safety:compute_safety_levels", "chaos.verify.oracle", "repro.chaos.verify"),
    ("repro.core.batched:batch_is_safe", "chaos.verify.oracle", "repro.chaos.verify"),
    ("repro.faults.coverage:batch_minimal_path_exists", "chaos.verify.oracle", "repro.chaos.verify"),
)


def make_instance(seed: int, index: int, side: int = SIDE):
    """One chaos instance: (mesh, faults, plan, schedule).  The faults and
    the crash/revive schedule are instance ``index`` of a fixed set (from
    ``INSTANCE_SEED``); ``seed`` draws which messages the lossy channels
    drop or duplicate."""
    rng = np.random.default_rng([INSTANCE_SEED, index + 1])
    mesh = Mesh2D(side, side)
    faults = uniform_faults(mesh, round(FAULT_SHARE * mesh.size), rng)
    schedule = ChaosSchedule.random(mesh, rng, events=CHAOS_EVENTS, forbidden=set(faults))
    plan_seed = int(np.random.default_rng([seed, index + 1]).integers(2**31))
    plan = ChannelFaultPlan(drop=0.01, duplicate=0.005, seed=plan_seed)
    return mesh, faults, plan, schedule


def converge(instance, index: int):
    mesh, faults, plan, schedule = instance
    plan.reset()  # an instance may run again in a later pass
    # Looked up at call time, so the traced run's wrapper is the one called.
    return chaos_verify.verify_convergence(mesh, faults, plan, schedule, seed=index)


def measure(instances, passes: int, host: HostSpeed) -> tuple[list[list[Timing]], list]:
    """``passes`` passes over the instances; returns each instance's
    timings and every report."""
    per_instance: list[list[Timing]] = [[] for _ in instances]
    reports: list = []
    for _ in range(passes):
        for index, instance in enumerate(instances):
            timing, report = host.time(lambda: converge(instance, index))
            per_instance[index].append(timing)
            reports.append(report)
    return per_instance, reports


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    instances = [make_instance(seed, k) for k in range(INSTANCES)]
    # Set-up: one chaos convergence on a 32x32 mesh warms the simulator,
    # protocol and oracle code paths.
    warm = make_instance(seed, -1, side=32)
    host = HostSpeed()
    setup = SetupClock(lambda: converge(warm, 0), host)
    with host:
        setup.before()
        settle()
        per_instance, reports = measure(
            instances, repeat_count(seconds, PASS_S, MIN_PASSES), host
        )
        setup.after()
    # Each instance's median over the passes, at the reference speed and as timed.
    scaled = [statistics.median(map(host.scaled, timings)) for timings in per_instance]
    wall = [statistics.median(timing.work_s for timing in timings) for timings in per_instance]
    violations = [
        f"run {k}: {report.summary()}" for k, report in enumerate(reports) if not report.ok
    ]
    messages = sum(report.outcome.stats.messages for report in reports[: len(instances)])
    outcome = Outcome(attempted=len(reports), failed=len(violations), violations=violations)
    outcome.end_to_end = {
        "setup_s": setup.median_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": messages / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": max(scaled) * 1e3,
    }
    outcome.report = {
        "host_slowdown": (host.slowdown(), "x"),
        "converge_s (as timed)": (statistics.median(wall), "s"),
        "convergences": (len(reports), "count"),
        "messages_per_s (as timed)": (messages / sum(wall), "1/s"),
        "error_rate": (len(violations) / len(reports), "ratio"),
    }
    if trace:
        outcome.layers = traced_layers(instances, sum(wall))
    return outcome


def traced_layers(instances, untraced_pass_s: float) -> dict[str, float]:
    """One pass over the instances under timing wrappers."""
    recorder = SpanRecorder()
    for target, name, where in LAYERS:
        recorder.instrument(target, name, where)
    settle()
    try:
        recorder.enter("protocols.pass")
        reports = [converge(instance, index) for index, instance in enumerate(instances)]
        wall = recorder.exit()
    finally:
        recorder.uninstall()
    stats = [report.outcome.stats for report in reports]
    layers = {
        f"simulator.network.{field}": sum(getattr(s, field) for s in stats)
        for field in ("messages", "events", "dropped", "lost", "duplicated", "retried")
    }
    layers.update({
        "chaos.runner.reconverge_events": sum(r.outcome.reconverge_events for r in reports),
        "error_rate": sum(not r.ok for r in reports) / len(reports),
        "trace.wall_s": wall,
        "trace.unattributed_s": recorder.busy("protocols.pass"),
        "trace.overhead_pct": 100.0 * (wall / untraced_pass_s - 1.0),
        **recorder.busy_metrics(name for _, name, _ in LAYERS),
    })
    recorder.write("protocols")
    return layers
