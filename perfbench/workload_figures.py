"""``figures``: the paper's Figure 9-12 sweeps at paper scale.

One *set* calls each of ``fig9_extension1`` .. ``fig12_strategies`` once
per fault count of the paper (25..200 in 8 steps) on a 200x200 mesh with
20 patterns x 30 quadrant-I destinations, ``engine="auto"``, in one
process -- the configuration of Sec. 5 of the paper, split into 32 calls
so each is timed on its own.  The process-wide artifact cache is cleared
before every set, so each set does the same work whether it runs first
or fifth.  A run makes a fixed number of sets for its ``--seconds``;
each call's time is scaled to the reference host speed by the host-speed
samples taken while it ran (see :class:`common.HostSpeed`), and each
call keeps its median scaled time over the sets.

Correctness: per figure, a digest over its series must equal the golden
digest stored for the seed (when one is stored), and for any seed every
minimal-path condition curve must stay at or below the existence-oracle
curve of its fault model at every fault count.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics

from common import HostSpeed, Outcome, SetupClock, Timing, peak_rss_mb, repeat_count, settle
from spans import SpanRecorder

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    fig9_extension1,
    fig10_extension2,
    fig11_extension3,
    fig12_strategies,
)
from repro.parallel.cache import get_artifact_cache

SWEEPS = (fig9_extension1, fig10_extension2, fig11_extension3, fig12_strategies)
PATTERNS = 20
DESTINATIONS = 30
FAULT_COUNTS = ExperimentConfig().fault_counts  # the paper's 25..200 in 8 steps
MIN_SETS = 2
#: One set with its host-speed samples, in seconds at the reference speed.
SET_S = 9.0
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_figures.json")

#: (public function, layer) pairs timed in the traced run.
LAYERS = (
    ("repro.experiments.runner:ConditionExperiment.run", "experiments.runner"),
    ("repro.faults.injection:uniform_faults_batch", "faults.injection"),
    ("repro.faults.injection:uniform_faults", "faults.injection"),
    ("repro.core.batched_patterns:batch_disable_fixpoint", "core.batched_patterns.formation"),
    ("repro.core.batched_patterns:batch_safety_levels", "core.batched_patterns.esl"),
    ("repro.core.batched_patterns:batch_pattern_is_safe", "core.batched_patterns.conditions"),
    ("repro.core.batched_patterns:batch_pattern_extension1", "core.batched_patterns.conditions"),
    ("repro.core.batched_patterns:batch_pattern_extension2", "core.batched_patterns.conditions"),
    ("repro.core.batched_patterns:batch_pattern_extension3", "core.batched_patterns.conditions"),
    ("repro.core.batched_patterns:build_source_sample_tables", "core.batched_patterns.conditions"),
    ("repro.core.batched_patterns:batch_pattern_path_exists", "core.batched_patterns.path_exists"),
    ("repro.core.batched:batch_is_safe", "core.batched"),
    ("repro.core.batched:batch_extension1", "core.batched"),
    ("repro.core.batched:batch_extension2_from_segments", "core.batched"),
    ("repro.core.batched:batch_extension3", "core.batched"),
    ("repro.core.segments:build_axis_segments", "core.segments"),
    ("repro.faults.coverage:batch_minimal_path_exists", "faults.coverage"),
    ("repro.faults.mcc:build_mccs", "faults.mcc"),
    ("repro.faults.blocks:build_faulty_blocks", "faults.blocks"),
    ("repro.core.safety:compute_safety_levels", "core.safety"),
)


def unit_config(seed: int, faults: int) -> ExperimentConfig:
    """Paper scale at one fault count: 200x200, 20 patterns x 30 destinations."""
    return ExperimentConfig(
        fault_counts=(faults,), patterns_per_count=PATTERNS,
        destinations_per_pattern=DESTINATIONS, seed=seed,
    )


#: One set: every figure at every fault count, figure by figure as
#: ``repro figures`` sweeps them (so the artifact cache sees the same
#: access order as a full sweep).
UNITS = tuple((sweep, faults) for sweep in SWEEPS for faults in FAULT_COUNTS)


def series_digest(series) -> str:
    """SHA-256 over the figure id, the x axis and every curve's values."""
    body = {
        "figure": series.figure_id,
        "xs": series.xs,
        "series": {name: series.column(name) for name in series.series},
    }
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def set_digests(results: list) -> dict[str, str]:
    """Per figure, a digest over its fault-count series in sweep order."""
    parts: dict[str, list[str]] = {}
    for series in results:
        parts.setdefault(series.figure_id, []).append(series_digest(series))
    return {figure: hashlib.sha256("".join(d).encode()).hexdigest() for figure, d in parts.items()}


def check_set(results: list, golden: dict[str, str] | None) -> dict[str, list[str]]:
    """Per figure, violations of its golden digest and of "every minimal
    condition curve <= the existence curve of its fault model"."""
    problems: dict[str, list[str]] = {series.figure_id: [] for series in results}
    for figure, digest in set_digests(results).items():
        if golden is not None and golden.get(figure) != digest:
            problems[figure].append(f"{figure}: series digest differs from the golden digest")
    for series in results:
        for name in series.series:
            if name.startswith("existence") or "submin" in name:
                continue  # sub-minimal routes may exist where no minimal path does
            oracle = "existencea" if name.endswith("a") else "existence"
            for x, got, bound in zip(series.xs, series.column(name), series.column(oracle)):
                if got > bound + 1e-12:
                    problems[series.figure_id].append(
                        f"{series.figure_id}: {name}={got:.4f} above {oracle}={bound:.4f} at {x:g} faults"
                    )
    return problems


def load_golden(seed: int) -> dict[str, str] | None:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(str(seed))


def run_set(seed: int, host: HostSpeed) -> tuple[list[Timing], list]:
    """One set on a cleared artifact cache; returns each unit's timing and
    series."""
    get_artifact_cache().clear()
    timings, results = [], []
    for sweep, faults in UNITS:
        config = unit_config(seed, faults)
        timing, series = host.time(lambda: sweep(config, engine="auto"))
        timings.append(timing)
        results.append(series)
    return timings, results


def measure(seed: int, sets: int, host: HostSpeed) -> tuple[list[list[Timing]], list]:
    """``sets`` sets; returns each unit's timings over the sets and the
    series of every set."""
    per_unit: list[list[Timing]] = [[] for _ in UNITS]
    outputs = []
    for _ in range(sets):
        timings, results = run_set(seed, host)
        for history, timing in zip(per_unit, timings):
            history.append(timing)
        outputs.append(results)
    return per_unit, outputs


def warm_up() -> None:
    """Imports, array allocations and kernel paths, on a one-step sweep."""
    small = ExperimentConfig(fault_counts=(200,), patterns_per_count=2,
                             destinations_per_pattern=DESTINATIONS, seed=1)
    get_artifact_cache().clear()
    for sweep in SWEEPS:
        sweep(small, engine="auto")


def run(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    golden = load_golden(seed)
    host = HostSpeed()
    setup = SetupClock(warm_up, host)
    with host:
        setup.before()
        settle()
        per_unit, outputs = measure(seed, repeat_count(seconds, SET_S, MIN_SETS), host)
        setup.after()
    # Each unit's median over the sets, at the reference speed and as timed.
    scaled = [statistics.median(map(host.scaled, timings)) for timings in per_unit]
    wall = [statistics.median(timing.work_s for timing in timings) for timings in per_unit]
    violations = []
    failed = 0
    for results in outputs:
        for problems in check_set(results, golden).values():
            violations += problems
            failed += bool(problems)
    # A figure's sweep time: the scaled times of its fault counts, summed.
    sweep_s = {sweep.__name__: 0.0 for sweep in SWEEPS}
    for (sweep, _), elapsed in zip(UNITS, scaled):
        sweep_s[sweep.__name__] += elapsed
    trials = len(UNITS) * PATTERNS * DESTINATIONS
    outcome = Outcome(attempted=len(outputs) * len(SWEEPS), failed=failed, violations=violations)
    outcome.end_to_end = {
        "setup_s": setup.median_s,
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": trials / sum(scaled),
        "latency_p50_ms": statistics.median(sweep_s.values()) * 1e3,
        "latency_tail_ms": max(sweep_s.values()) * 1e3,
    }
    outcome.report = {
        "host_slowdown": (host.slowdown(), "x"),
        "trials_per_s (as timed)": (trials / sum(wall), "1/s"),
        **{f"{name}_s (scaled)": (elapsed, "s") for name, elapsed in sweep_s.items()},
        "figure_sets": (len(outputs), "count"),
        "golden_digests_checked": (int(golden is not None), "bool"),
        "error_rate": (failed / outcome.attempted, "ratio"),
    }
    if trace:
        outcome.layers = traced_layers(seed, sum(wall))
    return outcome


def traced_layers(seed: int, untraced_s: float) -> dict[str, float]:
    """``MIN_SETS`` sets again under timing wrappers; per-layer self times
    and counts over those sets."""
    recorder = SpanRecorder()
    for target, name in LAYERS:
        recorder.instrument(target, name)
    cache = get_artifact_cache()
    hits, misses = cache.hits, cache.misses
    per_unit: list[list[float]] = [[] for _ in UNITS]
    stopwatch = HostSpeed()  # inactive: plain wall times
    settle()
    try:
        for _ in range(MIN_SETS):
            recorder.enter("figures.set")
            timings, _ = run_set(seed, stopwatch)
            recorder.exit()
            for history, timing in zip(per_unit, timings):
                history.append(timing.elapsed)
    finally:
        recorder.uninstall()
    hits, misses = cache.hits - hits, cache.misses - misses
    layers = {
        "parallel.cache.hits": hits,
        "parallel.cache.misses": misses,
        "parallel.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "faults.mcc.calls": recorder.count("faults.mcc"),
        "faults.blocks.calls": recorder.count("faults.blocks"),
        "core.safety.calls": recorder.count("core.safety"),
        "trace.wall_s": sum(recorder.durations["figures.set"]),
        "trace.unattributed_s": recorder.busy("figures.set"),
        "trace.overhead_pct": 100.0 * (sum(map(statistics.median, per_unit)) / untraced_s - 1.0),
        **recorder.busy_metrics(name for _, name in LAYERS),
    }
    recorder.write("figures")
    return layers
