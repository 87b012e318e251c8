"""Span-scoped profiling hooks and hot-path counters (``repro.obs.prof``).

The tracing layer answers *what the algorithms decided*; this module
answers *where the time went*.  Two instruments share one installable
:class:`Profiler`:

- **hot-path counters** -- cheap integer tallies bumped inside the hot
  loops (``router.steps``, ``esl.recompute``, ``blocks.build``,
  ``mcc.build``, ``sim.messages``).  Call sites pay one attribute load and
  a predictable branch when no profiler is installed, mirroring the
  tracer's ``enabled`` discipline;
- **profiled sections** -- ``with profiler.section("stats.routing"):``
  times the block with ``time.perf_counter_ns`` into a percentile
  histogram, and (when ``detailed=True``) additionally runs the section
  under :mod:`cProfile` so ``top_functions()`` can name the hot frames.

Like the tracer, the *current* profiler is a module-level slot defaulting
to a no-op :data:`NULL_PROFILER`; install one with :func:`use_profiler`
(scoped) or :func:`set_profiler` (global).  ``repro stats --profile``
installs one around its workload.
"""

from __future__ import annotations

import cProfile
import collections
import contextlib
import pstats
import time
from typing import Any, Iterator

from repro.obs.metrics import Histogram

#: Hot counters bumped by the instrumented hot paths (producers in
#: parentheses); anything may add more names.
HOT_COUNTER_NAMES: frozenset[str] = frozenset(
    {
        "router.routes",     # HopRouter.route invocations
        "router.steps",      # forwarding steps of delivered legs
        "esl.recompute",     # full ESL grid computations
        "blocks.build",      # faulty-block constructions (Definition 1)
        "mcc.build",         # MCC labellings (Definition 2)
        "sim.messages",      # simulator messages entering a channel
        "sim.dropped",       # simulator messages dropped at a down channel
        "cache.hits",        # scenario-artifact cache hits (repro.parallel)
        "cache.misses",      # scenario-artifact cache misses
        "cache.stale",       # generation-stale entries rebuilt
        "cache.revalidated", # stale entries proven still valid and retagged
        # Incremental fault maintenance (repro.faults.incremental):
        "incr.events",         # fault arrivals/revivals delta-maintained
        "incr.affected_cells", # cells actually perturbed across those events
        "incr.full_rebuilds",  # defensive full-rebuild fallbacks taken
        # Chaos engineering (repro.chaos + repro.simulator.protocols.reliable):
        "chaos.drops",             # messages destroyed in-flight by the fault plan
        "chaos.duplicates",        # ghost copies injected by the fault plan
        "chaos.corrupted",         # payloads delivered with a failed checksum
        "chaos.retries",           # retransmissions by hardened senders
        "chaos.gave_up",           # sends abandoned after max_retries
        "chaos.dup_suppressed",    # duplicate deliveries dropped by dedup
        "chaos.stale_discarded",   # deliveries fenced off by an epoch bump
        "chaos.corrupt_discarded", # corrupted deliveries discarded unacked
        "chaos.reconverge_ticks",  # simulated time spent in stabilization pulses
        "chaos.crashes",           # chaos-schedule crash events applied
        "chaos.revives",           # chaos-schedule revive events applied
    }
)


class _Section:
    """Times one named block; feeds the owning profiler on exit."""

    __slots__ = ("_profiler", "_name", "_t0", "_cprofile")

    def __init__(self, profiler: "Profiler", name: str):
        self._profiler = profiler
        self._name = name
        self._cprofile: cProfile.Profile | None = None

    def __enter__(self) -> "_Section":
        self._cprofile = self._profiler._start_cprofile()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter_ns() - self._t0
        self._profiler._finish_section(self._name, elapsed, self._cprofile)


class _NullSection:
    """Shared do-nothing section for the null profiler."""

    __slots__ = ()

    def __enter__(self) -> "_NullSection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SECTION = _NullSection()


class Profiler:
    """Collect hot counters and per-section ``perf_counter_ns`` timings.

    With ``detailed=True`` every *outermost* section additionally runs
    under :mod:`cProfile` (nested sections only take the cheap ns timer:
    the C profiler cannot nest, and the outer capture already covers the
    inner frames).
    """

    enabled: bool = True

    def __init__(self, detailed: bool = False):
        self.detailed = detailed
        self.hot: collections.Counter[str] = collections.Counter()
        self.sections: dict[str, Histogram] = {}
        self._profiles: list[cProfile.Profile] = []
        self._cprofile_active = False

    # -- hot counters --------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.hot[name] += n

    # -- sections ------------------------------------------------------
    def section(self, name: str) -> _Section:
        return _Section(self, name)

    def _start_cprofile(self) -> cProfile.Profile | None:
        if not self.detailed or self._cprofile_active:
            return None
        profile = cProfile.Profile()
        self._cprofile_active = True
        profile.enable()
        return profile

    def _finish_section(
        self, name: str, elapsed_ns: int, profile: cProfile.Profile | None
    ) -> None:
        if profile is not None:
            profile.disable()
            self._cprofile_active = False
            self._profiles.append(profile)
        self.sections.setdefault(name, Histogram()).observe(elapsed_ns)

    # -- reporting -----------------------------------------------------
    def top_functions(self, limit: int = 10) -> list[dict[str, Any]]:
        """The hottest frames across every detailed section, by cumulative
        time; empty without ``detailed=True`` captures."""
        if not self._profiles:
            return []
        stats = pstats.Stats(self._profiles[0])
        for profile in self._profiles[1:]:
            stats.add(profile)
        rows = []
        for (filename, line, func), (_, ncalls, tottime, cumtime, _) in stats.stats.items():  # type: ignore[attr-defined]
            rows.append(
                {
                    "function": f"{filename}:{line}({func})",
                    "calls": ncalls,
                    "tottime_s": tottime,
                    "cumtime_s": cumtime,
                }
            )
        rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
        return rows[:limit]

    def snapshot(self, top: int = 10) -> dict[str, Any]:
        """JSON-ready aggregate: hot counters, section timings (ns), and
        the hottest frames when detailed profiling ran."""
        return {
            "hot_counters": dict(sorted(self.hot.items())),
            "sections_ns": {
                name: histogram.summary()
                for name, histogram in sorted(self.sections.items())
            },
            "top_functions": self.top_functions(top),
        }

    def to_table(self, top: int = 10) -> str:
        """Aligned text rendering for ``repro stats --profile``."""
        lines: list[str] = []
        if self.sections:
            lines.append("profiled sections")
            width = max(len(name) for name in self.sections)
            for name, histogram in sorted(self.sections.items()):
                p95 = histogram.percentile(95.0) or 0.0
                lines.append(
                    f"  {name:<{width}}  x{histogram.count}  "
                    f"total {histogram.total / 1e6:.2f}ms  "
                    f"mean {histogram.mean / 1e6:.3f}ms  p95 {p95 / 1e6:.3f}ms"
                )
        if self.hot:
            lines.append("hot counters")
            width = max(len(name) for name in self.hot)
            for name, value in sorted(self.hot.items()):
                lines.append(f"  {name:<{width}}  {value}")
        top_rows = self.top_functions(top)
        if top_rows:
            lines.append(f"top functions (cumulative, top {len(top_rows)})")
            for row in top_rows:
                lines.append(
                    f"  {row['cumtime_s'] * 1e3:8.2f}ms  x{row['calls']:<7} "
                    f"{row['function']}"
                )
        return "\n".join(lines)


class NullProfiler(Profiler):
    """The no-op default: every operation returns immediately."""

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def section(self, name: str) -> _NullSection:  # type: ignore[override]
        return _NULL_SECTION


NULL_PROFILER = NullProfiler()

_current: Profiler = NULL_PROFILER


def get_profiler() -> Profiler:
    """The currently installed profiler (the null profiler by default)."""
    return _current


def set_profiler(profiler: Profiler | None) -> Profiler:
    """Install ``profiler`` (None restores the null profiler); returns the
    previously installed one so callers can restore it."""
    global _current
    previous = _current
    _current = profiler if profiler is not None else NULL_PROFILER
    return previous


@contextlib.contextmanager
def use_profiler(profiler: Profiler) -> Iterator[Profiler]:
    """Install ``profiler`` for the duration of a ``with`` block."""
    previous = set_profiler(profiler)
    try:
        yield profiler
    finally:
        set_profiler(previous)
