"""Replay, time travel, and divergence bisection over flight recordings.

A recording starts with a ``run_meta`` event carrying the full *recipe*
of the run (mesh size, initial faults, fault-plan parameters, chaos
schedule, stabilization rounds).  Because every source of
randomness in the simulator is seeded and every tie is broken
deterministically, re-executing the recipe must reproduce the event
stream bit for bit -- :func:`replay_events` machine-checks exactly that,
event by event, instead of only comparing final states.

On top of replay:

- :func:`state_at` rebuilds the run and stops the engine at any
  simulated tick, exposing the network/ESL state as of that instant
  (the ``repro replay --at`` time-travel inspector);
- :func:`bisect_streams` / :func:`bisect_logs` find the *first*
  divergent event between two runs.  The log variant binary-searches
  the per-tick cumulative digests in the sidecar indexes (prefix
  equality is monotone in the digest chain), so locating a divergence
  needs O(log ticks) digest probes, and both causal ancestries are
  attached to the verdict.

The chaos layer is imported lazily so ``repro.obs`` keeps its place at
the bottom of the dependency stack.
"""

from __future__ import annotations

import dataclasses
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.obs.events import TraceEvent
from repro.obs.recorder import (
    FlightRecorder,
    ancestry,
    canonical,
    event_index,
    read_index,
    read_recording,
)

if TYPE_CHECKING:
    from repro.chaos.runner import ChaosRunner


# ----------------------------------------------------------------------
# Recipes: the replayable description a recording carries in run_meta
# ----------------------------------------------------------------------
def recipe_of(events: Sequence[TraceEvent]) -> dict[str, Any]:
    """Extract the run recipe from a recorded stream.

    The ``run_meta`` header is the first event of every recording made
    through :class:`~repro.chaos.runner.ChaosRunner`; a stream without
    one is not replayable.
    """
    for event in events:
        if event.kind == "run_meta":
            recipe = event.data.get("recipe")
            if not isinstance(recipe, Mapping):
                raise ValueError("run_meta event carries no recipe")
            return dict(recipe)
    raise ValueError("no run_meta event: this stream is not replayable")


#: Recipe keys older recordings carry but replay no longer reads.
#: ``scheduler`` named one of two engine schedulers that produced
#: identical event orders, so it never changed what a run did.
RETIRED_RECIPE_KEYS = frozenset({"scheduler"})


def _without_retired_keys(events: Sequence[TraceEvent]) -> list[TraceEvent]:
    """``events`` with retired keys dropped from the ``run_meta`` recipe,
    i.e. the stream as the current recorder writes it."""
    out = list(events)
    for i, event in enumerate(out):
        if event.kind == "run_meta":
            recipe = event.data.get("recipe")
            if isinstance(recipe, Mapping) and RETIRED_RECIPE_KEYS & recipe.keys():
                kept = {k: v for k, v in recipe.items() if k not in RETIRED_RECIPE_KEYS}
                out[i] = dataclasses.replace(event, data={**event.data, "recipe": kept})
            break
    return out


def build_runner(
    recipe: Mapping[str, Any], recorder: FlightRecorder | None = None
) -> "ChaosRunner":
    """Reconstruct the (un-run) :class:`ChaosRunner` a recipe describes.

    Keys in :data:`RETIRED_RECIPE_KEYS` are ignored.
    """
    from repro.chaos.plan import ChannelFaultPlan
    from repro.chaos.runner import ChaosRunner
    from repro.chaos.schedule import ChaosEvent, ChaosSchedule
    from repro.mesh.topology import Mesh2D

    mesh = Mesh2D(int(recipe["n"]), int(recipe["m"]))
    plan = None
    plan_spec = recipe.get("plan")
    if plan_spec is not None:
        plan = ChannelFaultPlan(
            drop=float(plan_spec["drop"]),
            duplicate=float(plan_spec["duplicate"]),
            corrupt=float(plan_spec["corrupt"]),
            jitter=int(plan_spec["jitter"]),
            seed=int(plan_spec["seed"]),
        )
    schedule = ChaosSchedule(
        ChaosEvent(float(time), str(action), (int(coord[0]), int(coord[1])))
        for time, action, coord in recipe.get("schedule", ())
    )
    faults = [(int(x), int(y)) for x, y in recipe.get("faults", ())]
    return ChaosRunner(
        mesh,
        faults=faults,
        plan=plan,
        schedule=schedule,
        latency=float(recipe.get("latency", 1.0)),
        stabilize_rounds=int(recipe.get("stabilize_rounds", 1)),
        recorder=recorder,
    )


# ----------------------------------------------------------------------
# Divergence bisection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DivergenceReport:
    """Where two event streams first disagree, with both ancestries.

    ``index`` is the stream position of the first divergent event (for
    recorder output, position == event id).  When one stream is a strict
    prefix of the other, ``index`` is the shorter length and the missing
    side's event is None.
    """

    identical: bool
    index: int | None
    event_a: TraceEvent | None
    event_b: TraceEvent | None
    events_a: int
    events_b: int
    #: causal chains (root first) ending at the divergent events
    ancestry_a: tuple[TraceEvent, ...] = ()
    ancestry_b: tuple[TraceEvent, ...] = ()
    #: index-entry comparisons the log bisection spent (0 for in-memory)
    probes: int = 0

    def summary(self) -> str:
        if self.identical:
            return f"streams identical ({self.events_a} events)"
        if self.event_a is None or self.event_b is None:
            longer = "B" if self.events_b > self.events_a else "A"
            return (
                f"stream {longer} continues past the other's end: "
                f"first {self.index} events identical "
                f"(A has {self.events_a}, B has {self.events_b})"
            )
        return (
            f"first divergence at event {self.index}: "
            f"A emitted {self.event_a.kind}, B emitted {self.event_b.kind}"
        )

    def render(self) -> str:
        lines = [self.summary()]
        if not self.identical:
            for label, event, chain in (
                ("A", self.event_a, self.ancestry_a),
                ("B", self.event_b, self.ancestry_b),
            ):
                if event is None:
                    lines.append(f"--- {label}: <stream ended>")
                    continue
                lines.append(f"--- {label}: {event}")
                lines.append(f"    ancestry ({len(chain)} events):")
                for depth, ancestor in enumerate(chain):
                    indent = "    " + "   " * depth
                    lines.append(f"{indent}{ancestor}")
        return "\n".join(lines)


def _first_difference(
    a: Sequence[TraceEvent], b: Sequence[TraceEvent], start: int = 0
) -> int | None:
    """Position of the first canonical mismatch at/after ``start``; None
    if the common prefix (from ``start``) is identical."""
    end = min(len(a), len(b))
    for position in range(start, end):
        if canonical(a[position].to_dict()) != canonical(b[position].to_dict()):
            return position
    return None


def _safe_ancestry(
    table: Mapping[int, TraceEvent], event: TraceEvent | None
) -> tuple[TraceEvent, ...]:
    if event is None:
        return ()
    try:
        return tuple(ancestry(table, event.seq))
    except (KeyError, ValueError):
        # A divergent stream may reference causes the other never emitted;
        # the event itself is still reportable.
        return (event,)


def _report(
    a: Sequence[TraceEvent],
    b: Sequence[TraceEvent],
    position: int | None,
    probes: int = 0,
) -> DivergenceReport:
    if position is None:
        if len(a) == len(b):
            return DivergenceReport(
                identical=True,
                index=None,
                event_a=None,
                event_b=None,
                events_a=len(a),
                events_b=len(b),
                probes=probes,
            )
        position = min(len(a), len(b))
    event_a = a[position] if position < len(a) else None
    event_b = b[position] if position < len(b) else None
    return DivergenceReport(
        identical=False,
        index=position,
        event_a=event_a,
        event_b=event_b,
        events_a=len(a),
        events_b=len(b),
        ancestry_a=_safe_ancestry(event_index(a), event_a),
        ancestry_b=_safe_ancestry(event_index(b), event_b),
        probes=probes,
    )


def bisect_streams(
    a: Sequence[TraceEvent], b: Sequence[TraceEvent]
) -> DivergenceReport:
    """First divergent event between two in-memory streams."""
    return _report(a, b, _first_difference(a, b))


def bisect_logs(
    path_a: str | pathlib.Path, path_b: str | pathlib.Path
) -> DivergenceReport:
    """First divergent event between two recorded logs.

    When both logs carry sidecar indexes, the per-tick cumulative digests
    are binary-searched first: a matching entry proves the whole prefix
    before that tick matches, so the linear canonical comparison only
    scans from the last agreeing tick boundary.
    """
    events_a = read_recording(path_a)
    events_b = read_recording(path_b)
    index_a = read_index(path_a)
    index_b = read_index(path_b)
    start = 0
    probes = 0
    if index_a is not None and index_b is not None:
        ticks_a = index_a.get("ticks", [])
        ticks_b = index_b.get("ticks", [])
        lo, hi = 0, min(len(ticks_a), len(ticks_b)) - 1
        best = -1
        while lo <= hi:
            mid = (lo + hi) // 2
            probes += 1
            mark_a, mark_b = ticks_a[mid], ticks_b[mid]
            if (
                mark_a["event_id"] == mark_b["event_id"]
                and mark_a["time"] == mark_b["time"]
                and mark_a["digest"] == mark_b["digest"]
            ):
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1
        if best >= 0:
            start = int(ticks_a[best]["event_id"])
    return _report(
        events_a, events_b, _first_difference(events_a, events_b, start), probes
    )


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-executing a recording against its own event stream."""

    divergence: DivergenceReport
    outcome_summary: str
    events_recorded: int
    events_replayed: int
    replayed: tuple[TraceEvent, ...] = field(repr=False, default=())

    @property
    def identical(self) -> bool:
        return self.divergence.identical

    def summary(self) -> str:
        verdict = "REPLAY OK" if self.identical else "REPLAY DIVERGED"
        return (
            f"{verdict}: {self.events_recorded} recorded / "
            f"{self.events_replayed} replayed events; {self.divergence.summary()}"
        )


def replay_events(recorded: Sequence[TraceEvent]) -> ReplayResult:
    """Re-execute a recorded stream's recipe and compare, event by event."""
    recorded = _without_retired_keys(recorded)
    recipe = recipe_of(recorded)
    recorder = FlightRecorder()
    runner = build_runner(recipe, recorder=recorder)
    outcome = runner.run()
    replayed = recorder.events
    return ReplayResult(
        divergence=bisect_streams(recorded, replayed),
        outcome_summary=outcome.summary(),
        events_recorded=len(recorded),
        events_replayed=len(replayed),
        replayed=tuple(replayed),
    )


def replay_recording(path: str | pathlib.Path) -> ReplayResult:
    """Replay a JSONL recording from disk."""
    return replay_events(read_recording(path))


# ----------------------------------------------------------------------
# Time travel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StateSnapshot:
    """The network as of one simulated instant of a recorded run."""

    time: float
    faults: tuple[tuple[int, int], ...]
    #: coords whose node is faulty or block-disabled at the instant
    unusable: tuple[tuple[int, int], ...]
    #: free-node extended safety levels as (coord, (E, S, W, N)) pairs
    levels: tuple[tuple[tuple[int, int], tuple[int, int, int, int]], ...]
    events_processed: int
    pending: int

    def summary(self) -> str:
        return (
            f"t={self.time:g}: {len(self.faults)} faults, "
            f"{len(self.unusable)} unusable nodes, "
            f"{self.events_processed} events processed, {self.pending} pending"
        )


def state_at(
    source: Sequence[TraceEvent] | str | pathlib.Path, at: float
) -> StateSnapshot:
    """Reconstruct the run a recording describes, stopped at tick ``at``.

    Replays the recipe from scratch (recordings are deterministic, so the
    rebuilt run *is* the recorded one) and halts the engine at the
    requested simulated time; chaos events and stabilization pulses later
    than ``at`` simply have not happened yet in the snapshot.
    """
    if isinstance(source, (str, pathlib.Path)):
        events: Sequence[TraceEvent] = read_recording(source)
    else:
        events = source
    recipe = recipe_of(events)
    runner = build_runner(recipe)
    runner.prime()
    network = runner.network
    network.refresh_instrumentation()
    for process in network.nodes.values():
        process.start()
    runner.engine.run(until=at)

    unusable_grid = runner.unusable_grid()
    levels = runner.safety_levels()
    unusable = tuple(
        (int(x), int(y)) for x, y in zip(*unusable_grid.nonzero())
    )
    level_rows = []
    for coord in sorted(network.nodes):
        if unusable_grid[coord]:
            continue
        level_rows.append((coord, levels.esl(coord)))
    return StateSnapshot(
        time=runner.engine.now,
        faults=tuple(sorted(network.faulty)),
        unusable=unusable,
        levels=tuple(level_rows),
        events_processed=runner.engine.events_processed,
        pending=runner.engine.pending,
    )
