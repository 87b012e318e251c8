"""The sufficient safe condition (paper Definition 3) and decision records.

All predicates operate in the canonical frame: a :class:`~repro.mesh.frames.
Frame` maps the actual source/destination onto "source at origin, destination
in quadrant I", and ESL tuples are permuted accordingly, so the code below is
written once for quadrant I exactly as in the paper.

Every decision procedure returns a :class:`Decision`, which records *which*
rule ensured the path and through which intermediate node, because the
extensions route in two phases (source -> helper node -> destination) and
the router needs the helper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.safety import SafetyLevels
from repro.mesh.frames import Frame
from repro.mesh.geometry import Coord


class DecisionKind(enum.Enum):
    """How (and whether) a minimal or sub-minimal path was ensured."""

    UNSAFE = "unsafe"
    SOURCE_SAFE = "source-safe"  # Definition 3 / Theorem 1
    PREFERRED_NEIGHBOR_SAFE = "preferred-neighbor-safe"  # Theorem 1a, minimal
    SPARE_NEIGHBOR_SAFE = "spare-neighbor-safe"  # Theorem 1a, sub-minimal
    AXIS_NODE_SAFE = "axis-node-safe"  # Theorem 1b (Extension 2)
    PIVOT_SAFE = "pivot-safe"  # Theorem 1c (Extension 3)


@dataclass(frozen=True)
class Decision:
    """Outcome of a safe-condition check for one source/destination pair.

    ``via`` is the helper node (in *global* coordinates) for two-phase
    routings: the safe neighbour (Theorem 1a), the axis node ``(+k, 0)`` or
    ``(0, +k)`` (Theorem 1b), or the pivot (Theorem 1c).  ``None`` for
    single-phase outcomes.
    """

    kind: DecisionKind
    source: Coord
    dest: Coord
    via: Coord | None = None

    @property
    def ensures_minimal(self) -> bool:
        return self.kind not in (DecisionKind.UNSAFE, DecisionKind.SPARE_NEIGHBOR_SAFE)

    @property
    def ensures_sub_minimal(self) -> bool:
        """Minimal *or* one-detour (length D+2) path ensured."""
        return self.kind is not DecisionKind.UNSAFE

    @property
    def expected_length_overhead(self) -> int:
        """Hops beyond the Manhattan distance the ensured route may take."""
        return 2 if self.kind is DecisionKind.SPARE_NEIGHBOR_SAFE else 0


def is_safe(levels: SafetyLevels, source: Coord, dest: Coord) -> bool:
    """Definition 3: the source is safe with respect to the destination.

    With the source mapped to the origin and the destination to ``(xd, yd)``
    in quadrant I, the source is safe iff ``xd <= E and yd <= N``; by
    Theorem 1 a minimal path is then guaranteed.  Works for any quadrant via
    frame reflection, and degenerately for ``source == dest``.
    """
    frame = Frame.for_pair(source, dest)
    xd, yd = frame.to_local(dest)
    east, _, _, north = frame.to_local_esl(levels.esl(source))
    return xd <= east and yd <= north


def safe_source_decision(levels: SafetyLevels, source: Coord, dest: Coord) -> Decision:
    """Definition 3 as a :class:`Decision` (the baseline "safe source" curve)."""
    kind = DecisionKind.SOURCE_SAFE if is_safe(levels, source, dest) else DecisionKind.UNSAFE
    return Decision(kind=kind, source=source, dest=dest)
