"""Crash/revive schedules applied while protocols run.

:func:`repro.faults.injection.injection_sequence` orders a static fault
draw; a :class:`ChaosSchedule` goes further: it is a timed script of
``crash`` and ``revive`` events applied at arbitrary simulated ticks, so
membership changes land *mid-protocol* -- exactly the disturbance model
the incremental information update is supposed to absorb.

Schedules are data (sorted tuples of :class:`ChaosEvent`), so they can
be generated from a seed, written into reports, and replayed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.mesh.geometry import Coord
from repro.mesh.topology import Mesh2D

ACTIONS = ("crash", "revive")


@dataclass(frozen=True)
class ChaosEvent:
    """One membership change at an absolute simulated time."""

    time: float
    action: str
    coord: Coord

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r} (use one of {ACTIONS})")
        if self.time < 0:
            raise ValueError(f"cannot schedule at negative time {self.time}")


class ChaosSchedule:
    """A time-sorted sequence of crash/revive events.

    Sorting is stable: events at equal times keep their given order, so a
    crash and a revive scripted for the same tick apply in script order.
    """

    def __init__(self, events: Iterable[ChaosEvent] = ()):
        self.events: tuple[ChaosEvent, ...] = tuple(
            sorted(events, key=lambda e: e.time)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ChaosEvent]:
        return iter(self.events)

    @property
    def horizon(self) -> float:
        """The time of the last event (0.0 when empty)."""
        return self.events[-1].time if self.events else 0.0

    @classmethod
    def random(
        cls,
        mesh: Mesh2D,
        rng: np.random.Generator,
        events: int = 10,
        horizon: float = 20.0,
        revive_fraction: float = 0.5,
        forbidden: Sequence[Coord] | set[Coord] | frozenset[Coord] = frozenset(),
    ) -> "ChaosSchedule":
        """A seeded schedule of ``events`` membership changes.

        Victims are distinct nodes outside ``forbidden``; each crash lands
        at an integer tick in ``[1, horizon)`` and is followed (with
        probability ``revive_fraction``, while the event budget lasts) by
        a revival of the same node at a strictly later tick.
        """
        if events < 1:
            raise ValueError("need at least one event")
        if horizon < 2:
            raise ValueError(f"horizon must be >= 2 ticks, got {horizon}")
        blocked = set(forbidden)
        out: list[ChaosEvent] = []
        attempts = 0
        max_attempts = 100 * events + 1000
        while len(out) < events:
            attempts += 1
            if attempts > max_attempts:
                raise RuntimeError(
                    f"could not place {events} chaos events "
                    f"({len(blocked)} nodes excluded in {mesh})"
                )
            flat = int(rng.integers(0, mesh.size))
            coord = (flat // mesh.m, flat % mesh.m)
            if coord in blocked:
                continue
            blocked.add(coord)  # one crash per victim keeps replay simple
            crash_at = float(int(rng.integers(1, int(horizon))))
            out.append(ChaosEvent(crash_at, "crash", coord))
            if len(out) < events and float(rng.random()) < revive_fraction:
                gap = float(int(rng.integers(1, max(2, int(horizon) // 2))))
                out.append(ChaosEvent(crash_at + gap, "revive", coord))
        return cls(out)

    def __repr__(self) -> str:
        return f"ChaosSchedule({len(self.events)} events, horizon={self.horizon:g})"
