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

#: Uniforms the jitter-free verdict stream draws at a time (three per
#: message).
_BLOCK = 3 * 1024


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
    _block: list[float] = field(init=False, repr=False, compare=False)
    _next: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {value}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        self.reset()

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
        """Rewind the draw sequence to the seed (for repeated runs),
        discarding any partly used block of uniforms."""
        self._rng = np.random.default_rng(self.seed)
        self._block = []
        self._next = 0

    def draw(self) -> tuple[bool, bool, bool, int]:
        """One per-message verdict: ``(dropped, duplicated, corrupted, extra)``.

        Always consumes exactly three uniforms (plus one integer when
        jitter is enabled) so the verdict stream is independent of the
        verdicts themselves -- dropping a message does not shift the
        randomness seen by later messages.  Without jitter the uniforms
        are drawn ``_BLOCK`` at a time: the generator yields the same
        sequence whether asked for 3 or 3k doubles, so the verdicts equal
        one ``random(3)`` per message while the generator runs up to one
        block ahead.  With jitter the integer draws interleave, so each
        message draws its own.
        """
        if self.jitter:
            u = self._rng.random(3)
            return (
                bool(u[0] < self.drop),
                bool(u[1] < self.duplicate),
                bool(u[2] < self.corrupt),
                int(self._rng.integers(0, self.jitter + 1)),
            )
        i = self._next
        if i == len(self._block):
            self._block = self._rng.random(_BLOCK).tolist()
            i = 0
        self._next = i + 3
        u = self._block
        return (u[i] < self.drop, u[i + 1] < self.duplicate, u[i + 2] < self.corrupt, 0)

    def describe(self) -> str:
        return (
            f"drop={self.drop:g} duplicate={self.duplicate:g} "
            f"corrupt={self.corrupt:g} jitter={self.jitter} seed={self.seed}"
        )
