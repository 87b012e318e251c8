"""Convergence verification: distributed chaos survivors vs batch oracles.

A chaos run ends with whatever per-node state survived message loss,
duplication, corruption, and mid-run crash/revive.  This module replays
the *final* fault set through the centralized oracles
(:func:`repro.faults.blocks.build_faulty_blocks`,
:func:`repro.core.safety.compute_safety_levels`) and checks, node for
node, that the distributed state re-converged to the ground truth:

- the faulty-or-disabled grid matches Definition 1's fixpoint;
- every live node's four extended safety levels match the batch ESLs;
- on a seeded sample of source/destination pairs, the distributed
  levels reach the same Definition-3 safety verdicts
  (:func:`repro.core.conditions.is_safe`) as the oracle levels, and every
  pair the distributed state calls safe really has a minimal path
  (Theorem 1 cross-check via
  :func:`repro.faults.coverage.batch_minimal_path_exists`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.chaos.plan import ChannelFaultPlan
from repro.chaos.runner import ChaosOutcome, ChaosRunner
from repro.chaos.schedule import ChaosSchedule

if TYPE_CHECKING:
    from repro.obs.alerts import Alert
    from repro.obs.recorder import FlightRecorder
    from repro.obs.replay import DivergenceReport
    from repro.obs.timeseries import Observatory
from repro.core.conditions import is_safe
from repro.core.safety import compute_safety_levels, decode_level
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import batch_minimal_path_exists
from repro.mesh.geometry import Coord
from repro.mesh.topology import Mesh2D


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of one chaos run checked against the batch oracles."""

    blocks_ok: bool
    esl_ok: bool
    safety_ok: bool
    #: coords where faulty-or-disabled disagrees with Definition 1
    block_mismatches: tuple[Coord, ...]
    #: (coord, direction, distributed, oracle) for free-node ESL diffs
    esl_mismatches: tuple[tuple[Coord, str, int, int], ...]
    #: (source, dest) pairs with diverging Definition-3 verdicts or a
    #: safe verdict that no minimal path backs up
    safety_mismatches: tuple[tuple[Coord, Coord], ...]
    final_faults: tuple[Coord, ...]
    pairs_checked: int
    outcome: ChaosOutcome = field(repr=False)
    #: Attached only when the run was flight-recorded *and* diverged: the
    #: recorded run replayed against itself, bisected to the first
    #: divergent event.  An identical replay means the divergence is a
    #: genuine protocol/oracle disagreement, not nondeterminism.
    bisection: "DivergenceReport | None" = field(default=None, repr=False)
    #: Alert-rule firings observed while the run drained (only when an
    #: observatory was attached).  Informational: a firing does not flip
    #: ``ok`` -- a run can stall mid-chaos and still re-converge -- but a
    #: red gate's report now says *when* the run went sideways.
    alerts: "tuple[Alert, ...]" = ()

    @property
    def ok(self) -> bool:
        return self.blocks_ok and self.esl_ok and self.safety_ok

    def summary(self) -> str:
        verdict = "CONVERGED" if self.ok else "DIVERGED"
        parts = [
            f"{verdict}: blocks {'ok' if self.blocks_ok else f'{len(self.block_mismatches)} mismatches'}",
            f"ESLs {'ok' if self.esl_ok else f'{len(self.esl_mismatches)} mismatches'}",
            f"safety verdicts {'ok' if self.safety_ok else f'{len(self.safety_mismatches)} mismatches'}"
            f" over {self.pairs_checked} pairs",
        ]
        text = "; ".join(parts) + f"; {self.outcome.summary()}"
        if self.alerts:
            fired = ", ".join(sorted({alert.rule for alert in self.alerts}))
            text += f"; {len(self.alerts)} alert(s) fired: {fired}"
        if self.bisection is not None:
            text += f"; record/replay bisection: {self.bisection.summary()}"
        return text


def verify_convergence(
    mesh: Mesh2D,
    faults: Iterable[Coord] = (),
    plan: ChannelFaultPlan | None = None,
    schedule: ChaosSchedule | None = None,
    *,
    latency: float = 1.0,
    stabilize_rounds: int = 2,
    sample_pairs: int = 32,
    seed: int = 0,
    recorder: "FlightRecorder | None" = None,
    observatory: "Observatory | None" = None,
) -> ConvergenceReport:
    """Run chaos, stabilize, and prove the distributed state re-converged.

    ``stabilize_rounds`` defaults to 2: one pulse is sufficient when no
    membership changed during the pulse itself, two make the check robust
    to anything the first drain left behind.

    Passing a ``recorder`` flight-records the run; if the report then
    diverges, the recording is immediately replayed and bisected against
    itself and the verdict is attached as ``report.bisection`` -- so a
    red chaos gate ships the exact first divergent event (or proof the
    run was deterministic) along with the state diff.

    Passing an ``observatory`` samples the run per tick (series stay on
    ``observatory.store``) and lands any alert-rule firings on
    ``report.alerts``.
    """
    runner = ChaosRunner(
        mesh,
        faults=sorted(faults),
        plan=plan,
        schedule=schedule,
        latency=latency,
        stabilize_rounds=stabilize_rounds,
        recorder=recorder,
        observatory=observatory,
    )
    try:
        outcome = runner.run()
        distributed_unusable = runner.unusable_grid()
        distributed_levels = runner.safety_levels()
    finally:
        runner.close()

    # --- Oracle replay of the final fault set --------------------------
    oracle_blocks = build_faulty_blocks(mesh, sorted(outcome.final_faults))
    oracle_levels = compute_safety_levels(mesh, oracle_blocks.unusable)

    # --- Block (Definition 1) comparison -------------------------------
    diff = distributed_unusable != oracle_blocks.unusable
    block_mismatches = tuple(
        (int(x), int(y)) for x, y in zip(*np.nonzero(diff))
    )

    # --- ESL comparison on free nodes ----------------------------------
    free = ~oracle_blocks.unusable
    esl_mismatches: list[tuple[Coord, str, int, int]] = []
    for label, got, want in zip("ESWN", distributed_levels.grids, oracle_levels.grids):
        bad = (got != want) & free
        for x, y in zip(*np.nonzero(bad)):
            esl_mismatches.append((
                (int(x), int(y)), label,
                decode_level(got[x, y]), decode_level(want[x, y]),
            ))
    esl_mismatches.sort()

    # --- Sampled Definition-3 / Theorem-1 cross-check ------------------
    safety_mismatches: list[tuple[Coord, Coord]] = []
    pairs_checked = 0
    free_coords = np.argwhere(free)
    if sample_pairs > 0 and len(free_coords) >= 2:
        rng = np.random.default_rng(seed)
        sources = min(8, len(free_coords))
        per_source = max(1, sample_pairs // sources)
        source_rows = rng.choice(len(free_coords), size=sources, replace=False)
        for row in source_rows:
            source = (int(free_coords[row, 0]), int(free_coords[row, 1]))
            dest_rows = rng.choice(
                len(free_coords),
                size=min(per_source, len(free_coords)),
                replace=False,
            )
            dests = free_coords[dest_rows]
            reachable = batch_minimal_path_exists(
                oracle_blocks.unusable, source, dests
            )
            pairs_checked += len(dests)
            for i in range(len(dests)):
                dest = (int(dests[i, 0]), int(dests[i, 1]))
                got_safe = is_safe(distributed_levels, source, dest)
                if got_safe != is_safe(oracle_levels, source, dest):
                    safety_mismatches.append((source, dest))
                elif got_safe and not reachable[i]:
                    # Distributed state claims safety but no minimal path
                    # exists: a soundness violation, not just staleness.
                    safety_mismatches.append((source, dest))

    bisection = None
    diverged = bool(block_mismatches or esl_mismatches or safety_mismatches)
    if recorder is not None and diverged:
        from repro.obs.replay import replay_events

        bisection = replay_events(recorder.events).divergence

    return ConvergenceReport(
        blocks_ok=not block_mismatches,
        esl_ok=not esl_mismatches,
        safety_ok=not safety_mismatches,
        block_mismatches=block_mismatches,
        esl_mismatches=tuple(esl_mismatches),
        safety_mismatches=tuple(safety_mismatches),
        final_faults=outcome.final_faults,
        pairs_checked=pairs_checked,
        outcome=outcome,
        bisection=bisection,
        alerts=() if observatory is None else tuple(observatory.alerts.firings),
    )
