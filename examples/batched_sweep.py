"""Batched pattern engine: thousands of fault patterns in lockstep.

Two stops:

1. drive the cross-pattern kernels directly -- stack 2000 fault patterns
   into one ``(batch, n, m)`` grid, form every pattern's faulty blocks and
   label its type-one MCCs in a handful of array ops each, and decide
   Definition 3 / Extension 1 for a
   destination batch across all patterns at once (the ESLs they consult
   are read on demand from the blocked grid);
2. run the fig9 sweep, whose curves run on those kernels under both fault
   models (faulty blocks, and type-one MCCs for the "a" curves); then run
   fig10 on the same config, which takes its fault patterns and the
   existence curves from the artifact cache fig9 filled.

Run:  python examples/batched_sweep.py [batch]
"""

import sys
import time

import numpy as np

from repro.core.batched_patterns import (
    batch_disable_fixpoint,
    batch_label_closure,
    batch_pattern_extension1,
    batch_pattern_is_safe,
    batch_safety_levels,
)
from repro.faults.injection import uniform_faults_batch
from repro.faults.mcc import _LABEL_RULES, MCCType, NodeStatus
from repro.mesh.topology import Mesh2D


def kernels_demo(batch: int) -> None:
    mesh = Mesh2D(32, 32)
    source = mesh.center
    rngs = np.random.SeedSequence(2002).spawn(batch)
    faulty = uniform_faults_batch(mesh, 40, rngs, forbidden={source})

    t0 = time.perf_counter()
    blocked = batch_disable_fixpoint(faulty)
    elapsed = time.perf_counter() - t0
    disabled = blocked.sum() - faulty.sum()

    # Definition 2's two type-one labels, each one lockstep fixpoint.
    t0 = time.perf_counter()
    labelled = np.zeros_like(faulty)
    for label in (NodeStatus.USELESS, NodeStatus.CANT_REACH):
        offsets = _LABEL_RULES[(MCCType.TYPE_ONE, label)]
        labelled |= batch_label_closure(faulty, offsets)
    mcc_elapsed = time.perf_counter() - t0
    print(f"{batch} patterns on {mesh.n}x{mesh.m}: blocks in "
          f"{elapsed * 1e3:.1f}ms ({disabled} healthy nodes disabled in total), "
          f"type-one MCCs in {mcc_elapsed * 1e3:.1f}ms ({labelled.sum()} labelled)")

    # One destination batch decided across every pattern at once.
    levels = batch_safety_levels(blocked)
    rng = np.random.default_rng(7)
    dests = rng.integers(source[0], mesh.n, size=(batch, 30, 2)).astype(np.int64)
    safe = batch_pattern_is_safe(levels, source, dests)
    ext1 = batch_pattern_extension1(blocked, levels, source, dests)
    print(f"Def-3 safe: {safe.mean():.1%} of {safe.size} trials; "
          f"Extension 1 (sub-minimal allowed): {ext1.mean():.1%}")


def sweep_demo() -> None:
    from repro.experiments import ExperimentConfig
    from repro.experiments.figures import fig9_metrics, fig10_extension2
    from repro.experiments.runner import ConditionExperiment
    from repro.parallel.cache import get_artifact_cache

    config = ExperimentConfig.scaled(60, 24, 15, seed=2002)
    experiment = ConditionExperiment(config, fig9_metrics(config))

    get_artifact_cache().clear()
    t0 = time.perf_counter()
    fig9 = experiment.run("fig9", "extension 1")
    fig9_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    fig10_extension2(config)
    fig10_s = time.perf_counter() - t0

    print(f"\nfig9 sweep, {len(config.fault_counts)} fault counts x "
          f"{config.patterns_per_count} patterns x "
          f"{config.destinations_per_pattern} destinations, both models: "
          f"{fig9_s * 1e3:.1f}ms")
    stats = get_artifact_cache().stats()
    print(f"  fig10 after fig9, same patterns: {fig10_s * 1e3:7.1f}ms "
          f"(artifact cache {stats['hits']} hits, {stats['misses']} misses)")
    top = len(config.fault_counts) - 1
    for name in ("safe_source", "ext1_min", "existence"):
        print(f"  {name:<12} at {config.fault_counts[top]} faults: "
              f"blocks {fig9.column(name)[top]:.3f}, "
              f"MCCs {fig9.column(name + 'a')[top]:.3f}")


if __name__ == "__main__":
    kernels_demo(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
    sweep_demo()
