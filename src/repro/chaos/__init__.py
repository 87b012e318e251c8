"""Chaos engineering for the distributed information protocols.

The simulator's default world is kind: channels never lose a message and
faults are frozen before any protocol starts.  The paper's premise --
routing that survives faults -- deserves a harsher test bench, so this
package injects the unkindness and then *checks* that the protocols
earn their keep:

- :class:`~repro.chaos.plan.ChannelFaultPlan` -- seeded per-hop message
  drop / duplicate / corrupt / jitter, threaded through the network
  fast path (the default plan is reliable: existing runs stay
  bit-identical);
- :class:`~repro.chaos.schedule.ChaosSchedule` -- crash/revive events at
  arbitrary ticks *while* the protocols run;
- :class:`~repro.chaos.runner.ChaosRunner` -- drives the hardened
  dynamic-update protocol under a plan plus a schedule;
- :func:`~repro.chaos.verify.verify_convergence` -- replays the final
  distributed state against the centralized references
  (:mod:`repro.core.conditions`, :mod:`repro.faults.coverage`) and proves
  ESLs and blocks re-converged to the ground truth of the post-chaos
  fault set.
"""

from repro.chaos.plan import ChannelFaultPlan
from repro.chaos.schedule import ChaosEvent, ChaosSchedule
from repro.chaos.runner import ChaosOutcome, ChaosRunner
from repro.chaos.verify import ConvergenceReport, verify_convergence

__all__ = [
    "ChannelFaultPlan",
    "ChaosEvent",
    "ChaosOutcome",
    "ChaosRunner",
    "ChaosSchedule",
    "ConvergenceReport",
    "verify_convergence",
]
