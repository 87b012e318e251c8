"""Per-hop channel fault plans.

A :class:`ChannelFaultPlan` decides, for every message entering a live
channel, whether the channel misbehaves: drop the message, deliver a
duplicate, flip the corruption flag (a detected checksum failure), or add
integer latency jitter.  All randomness flows through one seeded
:class:`numpy.random.Generator`, and the network consults the plan in a
fixed per-send order, so a given (protocol, seed) pair always produces
the same perturbations -- chaos runs are exactly as reproducible as
clean ones.

The default plan is *reliable* (all probabilities zero); the network's
one send path draws verdicts only when :attr:`ChannelFaultPlan.active`
is true, so reliable runs consume no randomness and stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ChannelFaultPlan:
    """Seeded per-hop misbehaviour probabilities.

    ``drop``, ``duplicate`` and ``corrupt`` are independent per-message
    probabilities (a message is first tested for drop; survivors are
    tested for duplication and corruption).  ``jitter`` adds a uniform
    integer number of extra latency units in ``[0, jitter]`` to each
    delivery.  ``seed`` fixes the draw sequence.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    jitter: int = 0
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {value}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        self._rng = np.random.default_rng(self.seed)

    @property
    def active(self) -> bool:
        """Whether this plan can perturb anything at all."""
        return (
            self.drop > 0.0
            or self.duplicate > 0.0
            or self.corrupt > 0.0
            or self.jitter > 0
        )

    def reset(self) -> None:
        """Rewind the draw sequence to the seed (for repeated runs)."""
        self._rng = np.random.default_rng(self.seed)

    def draw(self) -> tuple[bool, bool, bool, int]:
        """One per-message verdict: ``(dropped, duplicated, corrupted, extra)``.

        Always consumes exactly three uniforms (plus one integer when
        jitter is enabled) so the verdict stream is independent of the
        verdicts themselves -- dropping a message does not shift the
        randomness seen by later messages.
        """
        u = self._rng.random(3)
        extra = int(self._rng.integers(0, self.jitter + 1)) if self.jitter else 0
        return (
            bool(u[0] < self.drop),
            bool(u[1] < self.duplicate),
            bool(u[2] < self.corrupt),
            extra,
        )

    def describe(self) -> str:
        return (
            f"drop={self.drop:g} duplicate={self.duplicate:g} "
            f"corrupt={self.corrupt:g} jitter={self.jitter} seed={self.seed}"
        )
