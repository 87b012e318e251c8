"""Benchmark runner: time workloads, persist ``BENCH_<n>.json``, compare.

Timing protocol, per workload:

1. ``setup(config)`` builds the state (untimed); when a workload has no
   setup its ``run`` receives the :class:`BenchConfig` itself;
2. one untimed warm-up run;
3. ``repeats`` timed runs with **no tracer installed**, so wall-times
   measure the algorithm, not the instrumentation;
4. one extra run under a :class:`~repro.obs.metrics.MetricsSink` tracer
   and a :class:`~repro.obs.prof.Profiler`, attaching deterministic
   trace-metric summaries (with p50/p95/p99) and hot-path counters.

Every run gets a fresh process-wide artifact cache, so no run is served
from the draws and counts an earlier condition sweep memoised there.

Wall-times land in a percentile histogram, so every ``BENCH_<n>.json``
carries p50/p95/p99 per workload; :func:`compare_results` gates the p50
against a baseline file with a relative tolerance.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import re
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.bench.registry import Workload
from repro.obs import MetricsSink, Tracer, use_tracer
from repro.obs.metrics import Histogram
from repro.obs.prof import Profiler, use_profiler
from repro.parallel.cache import ArtifactCache, use_artifact_cache

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class BenchConfig:
    """Knobs for one ``repro bench`` invocation."""

    quick: bool = False
    repeats: int | None = None  # None: per-workload default
    seed: int = 2002
    backend: str = "numpy"  # array API backend for the condition-sweep workloads


def _run_cold(workload: Workload, state: Any) -> None:
    """One run of ``workload`` on a fresh process-wide artifact cache."""
    with use_artifact_cache(ArtifactCache()):
        workload.run(state)


def run_benchmarks(
    workloads: list[Workload],
    config: BenchConfig,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run every workload under the timing protocol; JSON-ready result."""
    say = progress or (lambda message: None)
    results: dict[str, Any] = {}
    for workload in workloads:
        say(f"[{workload.kind}] {workload.name}: setup")
        state = workload.setup(config) if workload.setup else config
        _run_cold(workload, state)  # warm-up, untimed
        repeats = config.repeats or (
            workload.quick_repeats if config.quick else workload.repeats
        )
        wall = Histogram()
        for _ in range(repeats):
            t0 = time.perf_counter()
            _run_cold(workload, state)
            wall.observe(time.perf_counter() - t0)
        sink = MetricsSink()
        profiler = Profiler()
        with use_tracer(Tracer(sink)), use_profiler(profiler):
            _run_cold(workload, state)
        p50 = wall.percentile(50.0)
        say(
            f"[{workload.kind}] {workload.name}: x{repeats}  "
            f"p50 {0.0 if p50 is None else p50 * 1e3:.2f}ms"
        )
        results[workload.name] = {
            "kind": workload.kind,
            "description": workload.description,
            "repeats": repeats,
            "wall_time_s": wall.summary(),
            "metrics": sink.snapshot(),
            "hot_counters": dict(sorted(profiler.hot.items())),
        }
    return {
        "schema": 1,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "quick": config.quick,
        "seed": config.seed,
        "workloads": results,
    }


# ----------------------------------------------------------------------
def next_bench_path(root: str | pathlib.Path = ".") -> pathlib.Path:
    """The next free ``BENCH_<n>.json`` under ``root`` (the perf
    trajectory is append-only: existing files are never overwritten)."""
    root = pathlib.Path(root)
    taken = [
        int(match.group(1))
        for path in root.glob("BENCH_*.json")
        if (match := _BENCH_NAME.match(path.name))
    ]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


def write_result(result: dict[str, Any], path: str | pathlib.Path) -> pathlib.Path:
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


def load_result(path: str | pathlib.Path) -> dict[str, Any]:
    return json.loads(pathlib.Path(path).read_text())


# ----------------------------------------------------------------------
def compare_results(
    new: dict[str, Any], old: dict[str, Any], tolerance: float = 0.15
) -> tuple[list[str], list[str]]:
    """Gate ``new`` against the baseline ``old``.

    A workload regresses when its p50 wall-time exceeds the baseline's by
    more than ``tolerance`` (relative: 0.15 allows up to 1.15x).  Returns
    ``(report_lines, regressed_names)`` -- the caller decides the exit
    code.  Workloads present in only one file are reported as ``added`` /
    ``removed`` (with whatever p50 is known) but never regress: adding or
    retiring a workload must not break the gate.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")

    def p50_of(entry: dict[str, Any]) -> float | None:
        return (entry.get("wall_time_s") or {}).get("p50")

    def with_p50(entry: dict[str, Any]) -> str:
        p50 = p50_of(entry)
        return "no wall-time recorded" if p50 is None else f"p50 {p50 * 1e3:.2f}ms"

    old_workloads = old.get("workloads", {})
    new_workloads = new.get("workloads", {})
    lines: list[str] = []
    regressed: list[str] = []
    for name in sorted(set(old_workloads) | set(new_workloads)):
        if name not in new_workloads:
            lines.append(
                f"- {name}: removed (in baseline only, {with_p50(old_workloads[name])})"
            )
            continue
        if name not in old_workloads:
            lines.append(
                f"+ {name}: added (no baseline, {with_p50(new_workloads[name])})"
            )
            continue
        old_p50 = p50_of(old_workloads[name])
        new_p50 = p50_of(new_workloads[name])
        if not old_p50 or new_p50 is None:
            lines.append(f"~ {name}: no comparable wall-time")
            continue
        ratio = new_p50 / old_p50
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSED"
            regressed.append(name)
        lines.append(
            f"{'!' if verdict == 'REGRESSED' else ' '} {name}: "
            f"p50 {old_p50 * 1e3:.2f}ms -> {new_p50 * 1e3:.2f}ms "
            f"(x{ratio:.2f}, tolerance x{1.0 + tolerance:.2f}) {verdict}"
        )
    return lines, regressed
