"""Shared helpers: percentiles, memory, host-speed sampling, set-up timing
and the result line."""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

#: Set-ups per run (``setup_s`` is their median): at least
#: ``SETUP_REPEATS`` before the timed window, more while together they
#: took under ``SETUP_BUDGET_S``, and -- for a set-up that short -- as many
#: again after the window, so host slowdowns that last several seconds
#: do not decide the median.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 1.0
SETUP_MAX_REPEATS = 25


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100, linear interpolation); 0.0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Typical wall time of :func:`calibration_chunk` on the 2-vCPU VM the
#: benchmark was tuned on; times divided by a measured slowdown against
#: it are in units of that machine's typical speed.
CHUNK_REFERENCE_S = 1.0e-3
#: Period of the host-speed samples (each about 1 ms of work: 2 %).
SAMPLE_EVERY_S = 0.05
#: Span of the samples :meth:`HostSpeed.recent_slowdown` averages.
RECENT_S = 2.0
_CHUNK_GRID = np.random.default_rng(0).random((150, 150))  # 180 KB: past L1/L2


def calibration_chunk() -> float:
    """Wall time of a fixed mix of interpreted-Python and numpy work that
    lives in the benchmark, so no program change can alter it."""
    start = time.perf_counter()
    total = 0
    for i in range(6_000):
        total += i * i % 7
    np.cumsum(_CHUNK_GRID, axis=0) % 1.0
    return time.perf_counter() - start


def repeat_count(seconds: float, unit_s: float, minimum: int) -> int:
    """Repeats of a unit of about ``unit_s`` (at the reference speed) that
    fill ``seconds``: fixed by ``--seconds`` alone, so every run of a
    workload does the same work however fast the host happens to be."""
    return max(minimum, round(seconds / unit_s))


@dataclass
class Timing:
    """One timed call, and which host-speed samples fell inside it."""

    elapsed: float  # wall time, samples included
    chunk_s: float  # wall time of the samples taken inside the call
    first: int  # index of the first sample inside the call
    last: int  # one past the last

    @property
    def work_s(self) -> float:
        """Wall time of the call's own work."""
        return self.elapsed - self.chunk_s


class HostSpeed:
    """How much slower than the reference the host runs, sampled throughout.

    On a shared VM the same CPU-bound work runs 30 % slower in one second
    than in the next, and in one run than in the next.  While a
    ``HostSpeed`` is active (``with host:``) an interval timer interrupts
    the process every :data:`SAMPLE_EVERY_S` and times one calibration
    chunk, inside whatever call is running.  :meth:`time` times a call and
    notes which samples fell inside it; :meth:`scaled` divides the call's
    own work time by the mean slowdown of those samples and the one on
    either side, giving seconds at the reference speed.  Inactive, it
    takes no samples and :meth:`time` is a plain stopwatch.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self._handler: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        self.chunks.append(calibration_chunk())

    def __enter__(self) -> "HostSpeed":
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def time(self, fn: Callable[[], Any]) -> tuple[Timing, Any]:
        first = len(self.chunks)
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        last = len(self.chunks)
        return Timing(elapsed, sum(self.chunks[first:last]), first, last), result

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Mean slowdown of samples ``first - 1`` to ``last`` (all by default)."""
        end = len(self.chunks) if last is None else last + 1
        window = self.chunks[max(0, first - 1):end]
        if not window:
            raise RuntimeError("no host-speed samples: time calls inside `with host:`")
        return statistics.fmean(window) / CHUNK_REFERENCE_S

    def scaled(self, timing: Timing) -> float:
        """The call's work time at the reference speed."""
        return timing.work_s / self.slowdown(timing.first, timing.last)

    def recent_slowdown(self) -> float:
        """Mean slowdown of the samples of the last :data:`RECENT_S` seconds."""
        return self.slowdown(max(1, len(self.chunks) - round(RECENT_S / SAMPLE_EVERY_S) + 1))


def settle() -> None:
    """Collect garbage, then move every live object out of the collector's
    view, so full collections inside the timed window scan only what the
    window allocates -- not the pre-generated inputs or earlier results."""
    gc.collect()
    gc.freeze()


class SetupClock:
    """Times repeated runs of one set-up function."""

    def __init__(self, build: Callable[[], Any], host: HostSpeed):
        self.build = build
        self.host = host
        self.timings: list[Timing] = []

    def _once(self) -> Any:
        timing, result = self.host.time(self.build)
        self.timings.append(timing)
        return result

    def _wall_s(self) -> float:
        return sum(timing.elapsed for timing in self.timings)

    def before(self) -> Any:
        """Set up repeatedly before the window; returns the last result."""
        result = self._once()
        while len(self.timings) < SETUP_REPEATS or (
            self._wall_s() < SETUP_BUDGET_S and len(self.timings) < SETUP_MAX_REPEATS
        ):
            result = None  # let the previous set-up be collected first
            result = self._once()
        return result

    def after(self) -> None:
        """Repeat a short set-up after the window, as often as before it."""
        if self._wall_s() < 2 * SETUP_BUDGET_S:
            for _ in range(len(self.timings)):
                self._once()

    @property
    def median_s(self) -> float:
        """Median set-up time at the reference speed."""
        return statistics.median(self.host.scaled(timing) for timing in self.timings)


@dataclass
class Outcome:
    """What one workload run produced, before it becomes the result line.

    ``end_to_end`` holds the benchmark's end-to-end metrics, ``layers``
    the per-layer metrics of a traced run, and ``report`` further figures
    of the run, printed above the result line for a human reader.
    """

    attempted: int
    failed: int
    violations: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    report: dict[str, tuple[float, str]] = field(default_factory=dict)


def emit(outcome: Outcome, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the report lines, then the single JSON result line with
    ``metrics`` (name -> value, unit)."""
    for name, (value, unit) in outcome.report.items():
        print(f"{name:<28} {value:>14.6g} {unit}")
    for violation in outcome.violations[:20]:
        print(f"VIOLATION: {violation}")
    print(json.dumps({
        "correct": not outcome.violations,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
