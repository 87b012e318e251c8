"""Built-in benchmark workloads: the substrate's hot paths plus
figure-scale macro sweeps.

Every workload is deterministic under its seed and scales down under
``--quick`` (CI smoke) while keeping the same shape, so quick and full
runs regress on the same code paths.  Discovery adds more workloads from
``benchmarks/bench_*.py`` (see :mod:`repro.bench.registry`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.bench.registry import BenchRegistry


def _scenario(side: int, fault_count: int, seed: int):
    from repro.faults.injection import uniform_faults
    from repro.mesh.topology import Mesh2D

    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(seed)
    faults = uniform_faults(mesh, fault_count, rng, forbidden={mesh.center})
    return mesh, faults, rng


def _size(config: Any, full: int, quick: int) -> int:
    return quick if getattr(config, "quick", False) else full


def builtin_registry() -> BenchRegistry:
    """A fresh registry holding every built-in workload."""
    registry = BenchRegistry()

    # -- micro: one substrate operation per run -----------------------
    def esl_setup(config):
        from repro.faults.blocks import build_faulty_blocks

        side = _size(config, 120, 64)
        mesh, faults, _ = _scenario(side, side * side // 200, config.seed)
        return mesh, build_faulty_blocks(mesh, faults).unusable

    @registry.register(
        "micro.esl_compute", setup=esl_setup,
        description="full ESL grid from the blocked-node grid (vectorised scans)",
    )
    def run_esl(state):
        from repro.core.safety import compute_safety_levels

        mesh, blocked = state
        return compute_safety_levels(mesh, blocked)

    def faults_setup(config):
        side = _size(config, 120, 64)
        mesh, faults, _ = _scenario(side, side * side // 200, config.seed)
        return mesh, faults

    @registry.register(
        "micro.block_formation", setup=faults_setup,
        description="Definition 1 fixpoint + component extraction",
    )
    def run_blocks(state):
        from repro.faults.blocks import build_faulty_blocks

        mesh, faults = state
        return build_faulty_blocks(mesh, faults)

    @registry.register(
        "micro.mcc_formation", setup=faults_setup,
        description="Definition 2 labelling (type one) + component extraction",
    )
    def run_mccs(state):
        from repro.faults.mcc import MCCType, build_mccs

        mesh, faults = state
        return build_mccs(mesh, faults, MCCType.TYPE_ONE)

    def route_setup(config):
        from repro.core.boundaries import BoundaryMap
        from repro.core.conditions import is_safe
        from repro.core.routing import WuRouter
        from repro.core.safety import compute_safety_levels
        from repro.faults.blocks import build_faulty_blocks

        side = _size(config, 120, 64)
        mesh, faults, _ = _scenario(side, side * side // 250, config.seed)
        blocks = build_faulty_blocks(mesh, faults)
        levels = compute_safety_levels(mesh, blocks.unusable)
        router = WuRouter(mesh, blocks, boundary_map=BoundaryMap.for_blocks(blocks))
        source = mesh.center
        dest = next(
            (side - 1 - i, side - 1 - i)
            for i in range(side // 2)
            if not blocks.unusable[(side - 1 - i, side - 1 - i)]
            and is_safe(levels, source, (side - 1 - i, side - 1 - i))
        )
        router.route(source, dest)  # warm the canonical boundary cache
        return router, source, dest

    @registry.register(
        "micro.wu_single_route", setup=route_setup,
        description="one long safe-pair route under Wu's protocol",
    )
    def run_route(state):
        router, source, dest = state
        return router.route(source, dest)

    # -- macro: figure-scale sweeps and batches -----------------------
    @registry.register(
        "macro.fig9_sweep", kind="macro",
        description="Figure 9 condition sweep (Extension 1 vs optimal) at bench scale",
        repeats=3, quick_repeats=1,
    )
    def run_fig9(state):
        from repro.experiments import ExperimentConfig
        from repro.experiments.figures import fig9_extension1

        config = state  # BenchConfig threaded through (no setup)
        scale = (32, 2, 5) if config.quick else (48, 3, 8)
        return fig9_extension1(
            ExperimentConfig.scaled(*scale, seed=config.seed)
        )

    def _conditions_sweep(config: Any, workers: int):
        from repro.experiments import ExperimentConfig
        from repro.experiments.figures import fig9_extension1

        scale = (32, 2, 5) if config.quick else (48, 3, 8)
        return fig9_extension1(
            ExperimentConfig.scaled(*scale, seed=config.seed), workers=workers
        )

    @registry.register(
        "macro.conditions_serial", kind="macro",
        description="condition sweep, run(workers=1): cross-pattern kernels, both models",
        repeats=3, quick_repeats=1,
    )
    def run_conditions_serial(state):
        return _conditions_sweep(state, workers=1)

    @registry.register(
        "macro.conditions_parallel", kind="macro",
        description="condition sweep, run(workers=2): process-pool pattern fan-out",
        repeats=3, quick_repeats=1,
    )
    def run_conditions_parallel(state):
        return _conditions_sweep(state, workers=2)

    def _pattern_engine_config(config: Any):
        """Many small dense meshes: the block-model sweep as one lockstep
        array program per fault count."""
        import dataclasses

        from repro.experiments import ExperimentConfig

        patterns = 64 if config.quick else 128
        base = ExperimentConfig.scaled(
            40, patterns, 15, seed=config.seed
        )
        return dataclasses.replace(
            base,
            fault_counts=tuple(4 * count for count in base.fault_counts),
            strategy_pivot_levels=1,
        )

    @registry.register(
        "macro.conditions_batched_patterns", kind="macro",
        description="fig9 block-model sweep, whole fault-count batches stacked "
                    "into (batch, n, m) grids and decided in one array pass",
        repeats=3, quick_repeats=1,
    )
    def run_conditions_batched_patterns(state):
        from repro.experiments.figures import fig9_block_metrics
        from repro.experiments.runner import ConditionExperiment

        experiment = ConditionExperiment(
            _pattern_engine_config(state), metrics_factory=fig9_block_metrics
        )
        return experiment.run(
            "fig9", "conditions, pattern-engine sweep",
            backend=getattr(state, "backend", "numpy"),
        )

    @registry.register(
        "macro.protocol_formation", kind="macro",
        description="distributed block formation + ESL propagation on one scenario",
        repeats=3, quick_repeats=1,
    )
    def run_protocols(state):
        from repro.faults.blocks import build_faulty_blocks
        from repro.simulator.protocols import (
            run_block_formation,
            run_safety_propagation,
        )

        config = state
        side = _size(config, 32, 20)
        mesh, faults, _ = _scenario(side, side * side // 50, config.seed)
        blocks = build_faulty_blocks(mesh, faults)
        run_block_formation(mesh, faults)
        return run_safety_propagation(mesh, blocks.unusable)

    # -- sim: message-passing simulator ------------------------------
    def sim_formation_setup(config):
        from repro.faults.blocks import build_faulty_blocks

        side = _size(config, 96, 40)
        mesh, faults, _ = _scenario(side, side * side // 40, config.seed)
        unusable = build_faulty_blocks(mesh, faults).unusable
        return mesh, faults, unusable

    def _run_formation(state):
        from repro.simulator.protocols import (
            run_block_formation,
            run_safety_propagation,
        )

        mesh, faults, unusable = state
        run_block_formation(mesh, faults)
        return run_safety_propagation(mesh, unusable)

    @registry.register(
        "sim.formation_large", kind="macro", setup=sim_formation_setup,
        description="large-mesh block formation + ESL propagation "
                    "(tick-bucket scheduler, zero-copy delivery)",
        repeats=10, quick_repeats=3,
    )
    def run_sim_formation(state):
        return _run_formation(state)

    @registry.register(
        "sim.formation_recorded", kind="macro", setup=sim_formation_setup,
        description="sim.formation_large with a flight recorder installed "
                    "(recorder-on overhead vs sim.formation_large)",
        repeats=10, quick_repeats=3,
    )
    def run_sim_formation_recorded(state):
        from repro.obs import FlightRecorder, use_tracer

        with use_tracer(FlightRecorder()):
            return _run_formation(state)

    @registry.register(
        "obs.sampling_on", kind="macro", setup=sim_formation_setup,
        description="sim.formation_large with the telemetry observatory "
                    "sampling every tick (sampling overhead vs sim.formation_large)",
        repeats=10, quick_repeats=3,
    )
    def run_obs_sampling_on(state):
        from repro.obs import Observatory, use_observatory

        with use_observatory(Observatory(rules=())):
            return _run_formation(state)

    # -- faults: delta maintenance vs full rebuild per event ----------
    def fault_events_setup(config):
        from repro.faults.injection import injection_events
        from repro.mesh.topology import Mesh2D

        # The issue's headline scenario: 64x64 sparse (~1% faults) with a
        # quarter of the arrivals followed by a revival.  Both workloads
        # consume the identical event stream, so their p50 ratio *is* the
        # per-event maintenance speedup.
        side = _size(config, 64, 32)
        mesh = Mesh2D(side, side)
        rng = np.random.default_rng(config.seed)
        count = _size(config, 40, 14)
        return mesh, injection_events(mesh, count, rng, revive_fraction=0.25)

    @registry.register(
        "faults.incremental_update", setup=fault_events_setup,
        description="blocks + ESLs delta-maintained per fault event "
                    "(O(affected) frontier + line rescans)",
        repeats=10, quick_repeats=3,
    )
    def run_incremental_update(state):
        from repro.faults.incremental import IncrementalFaultEngine

        mesh, events = state
        engine = IncrementalFaultEngine(mesh)
        for action, coord in events:
            engine.apply(action, coord)
        if engine.full_rebuilds:
            raise RuntimeError(
                f"defensive full rebuild fired {engine.full_rebuilds}x"
            )
        return engine.generation

    @registry.register(
        "faults.full_rebuild", setup=fault_events_setup,
        description="blocks + ESLs rebuilt from scratch after every fault "
                    "event (the seed behaviour, same event stream)",
        repeats=10, quick_repeats=3,
    )
    def run_full_rebuild(state):
        from repro.core.safety import compute_safety_levels
        from repro.faults.blocks import build_faulty_blocks

        mesh, events = state
        alive: set = set()
        for action, coord in events:
            if action == "inject":
                alive.add(coord)
            else:
                alive.discard(coord)
            blocks = build_faulty_blocks(mesh, sorted(alive))
            compute_safety_levels(mesh, blocks.unusable)
        return len(alive)

    def dynamic_setup(config):
        from repro.faults.injection import injection_sequence
        from repro.mesh.topology import Mesh2D

        side = _size(config, 48, 24)
        mesh = Mesh2D(side, side)
        rng = np.random.default_rng(config.seed)
        count = _size(config, 32, 12)
        return mesh, injection_sequence(mesh, count, rng, source=mesh.center)

    @registry.register(
        "sim.dynamic_injection", kind="macro", setup=dynamic_setup,
        description="live fault-injection sequence with incremental ESL ripples",
        repeats=10, quick_repeats=3,
    )
    def run_dynamic_injection(state):
        from repro.simulator.protocols.dynamic_update import DynamicMesh

        mesh, faults = state
        dynamic = DynamicMesh(mesh)
        for fault in faults:
            dynamic.inject_fault(fault)
        return dynamic.total_messages

    def chaos_setup(config):
        from repro.mesh.topology import Mesh2D

        side = _size(config, 32, 16)
        return Mesh2D(side, side)

    @registry.register(
        "sim.chaos_recovery", kind="macro", setup=chaos_setup,
        description="hardened protocols under 5% loss + crash/revive schedule, "
                    "verified against the batch oracles",
        repeats=3, quick_repeats=1,
    )
    def run_chaos_recovery(state):
        from repro.chaos import ChannelFaultPlan, ChaosSchedule, verify_convergence
        from repro.faults.injection import uniform_faults

        mesh = state
        rng = np.random.default_rng(2002)
        faults = uniform_faults(mesh, mesh.size // 40, rng)
        plan = ChannelFaultPlan(drop=0.05, duplicate=0.02, corrupt=0.01, seed=11)
        schedule = ChaosSchedule.random(mesh, rng, events=8, forbidden=set(faults))
        report = verify_convergence(
            mesh, faults, plan, schedule, sample_pairs=16, seed=5
        )
        if not report.ok:
            raise RuntimeError(f"chaos recovery diverged: {report.summary()}")
        return report.outcome.stats.messages

    def batch_setup(config):
        from repro.core.safety import compute_safety_levels
        from repro.faults.blocks import build_faulty_blocks

        side = _size(config, 64, 40)
        mesh, faults, rng = _scenario(side, side * side // 100, config.seed)
        blocks = build_faulty_blocks(mesh, faults)
        levels = compute_safety_levels(mesh, blocks.unusable)
        free = [c for c in mesh.nodes() if not blocks.unusable[c]]
        count = 30 if config.quick else 120
        pairs = []
        while len(pairs) < count:
            src = free[int(rng.integers(len(free)))]
            dst = free[int(rng.integers(len(free)))]
            if src != dst:
                pairs.append((src, dst))
        return mesh, blocks, levels, pairs

    @registry.register(
        "macro.route_batch", kind="macro", setup=batch_setup,
        description="a batch of random routes through the decision cascade",
        repeats=3, quick_repeats=1,
    )
    def run_batch(state):
        from repro.core.conditions import DecisionKind
        from repro.core.extensions import extension1_decision
        from repro.core.routing import WuRouter, route_with_decision
        from repro.routing.detour import DetourRouter
        from repro.routing.router import RoutingError

        mesh, blocks, levels, pairs = state
        blocked = blocks.unusable
        router = WuRouter(mesh, blocks)
        fallback = DetourRouter(mesh, blocks)
        delivered = 0
        for src, dst in pairs:
            decision = extension1_decision(mesh, levels, blocked, src, dst)
            try:
                if decision.kind is DecisionKind.UNSAFE:
                    fallback.route(src, dst)
                else:
                    route_with_decision(router, decision, blocked=blocked)
                delivered += 1
            except RoutingError:
                pass
        return delivered

    @registry.register(
        "serve.qps_sweep", kind="macro",
        description="closed-loop QPS ramp against the routing service "
        "under chaos fault churn (admission control + degradation live)",
        repeats=2, quick_repeats=1,
    )
    def run_serve_sweep(state):
        from repro.serve.loadgen import DEFAULT_STAGES, QUICK_STAGES, run_qps_sweep

        config = state  # BenchConfig threaded through (no setup)
        quick = getattr(config, "quick", False)
        return run_qps_sweep(
            side=_size(config, 32, 16),
            faults=_size(config, 24, 10),
            seed=config.seed,
            stages=QUICK_STAGES if quick else DEFAULT_STAGES,
            chaos_events=_size(config, 12, 8),
        )

    return registry
