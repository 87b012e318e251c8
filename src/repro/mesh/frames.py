"""Canonical coordinate frames.

The paper states every definition and theorem for a source at the origin and
a destination in **quadrant I** (``xd, yd >= 0``).  The general case follows
by symmetry: reflecting the x and/or y axis maps any source/destination pair
onto that canonical setting.

:class:`Frame` captures one such mapping.  It translates the source to the
origin and optionally reflects each axis so the destination's offsets become
non-negative.  It also permutes extended-safety-level tuples accordingly
(reflecting x swaps East/West distances; reflecting y swaps North/South), so
all higher layers can be written once, for quadrant I.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mesh.geometry import Coord, Direction, Quadrant, Rect


@dataclass(frozen=True)
class Frame:
    """A translated, optionally axis-reflected view of the mesh.

    ``to_local`` maps a global coordinate into the frame;
    ``to_global`` inverts it.  With ``flip_x``/``flip_y`` chosen via
    :meth:`for_pair`, the local frame puts the source at ``(0, 0)`` and the
    destination in quadrant I.
    """

    origin: Coord
    flip_x: bool = False
    flip_y: bool = False

    @staticmethod
    def for_pair(source: Coord, dest: Coord) -> "Frame":
        """The frame that places ``source`` at the origin and ``dest`` in
        quadrant I (non-negative local offsets)."""
        return Frame(
            origin=source,
            flip_x=dest[0] < source[0],
            flip_y=dest[1] < source[1],
        )

    @property
    def quadrant(self) -> Quadrant:
        """Which global quadrant this frame's local quadrant I corresponds to."""
        if not self.flip_x and not self.flip_y:
            return Quadrant.I
        if self.flip_x and not self.flip_y:
            return Quadrant.II
        if self.flip_x and self.flip_y:
            return Quadrant.III
        return Quadrant.IV

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------
    def to_local(self, coord: Coord) -> Coord:
        x = coord[0] - self.origin[0]
        y = coord[1] - self.origin[1]
        if self.flip_x:
            x = -x
        if self.flip_y:
            y = -y
        return (x, y)

    def to_global(self, coord: Coord) -> Coord:
        x, y = coord
        if self.flip_x:
            x = -x
        if self.flip_y:
            y = -y
        return (x + self.origin[0], y + self.origin[1])

    def to_local_rect(self, rect: Rect) -> Rect:
        """Map a global rectangle into the frame (bounds re-sorted)."""
        ox, oy = self.origin
        xmin, xmax = rect.xmin - ox, rect.xmax - ox
        ymin, ymax = rect.ymin - oy, rect.ymax - oy
        if self.flip_x:
            xmin, xmax = -xmax, -xmin
        if self.flip_y:
            ymin, ymax = -ymax, -ymin
        return Rect(xmin, xmax, ymin, ymax)

    # ------------------------------------------------------------------
    # Direction mapping
    # ------------------------------------------------------------------
    def to_local_direction(self, direction: Direction) -> Direction:
        """Global direction as seen in the local frame."""
        if self.flip_x and direction.is_horizontal:
            return direction.opposite
        if self.flip_y and direction.is_vertical:
            return direction.opposite
        return direction

    def to_global_direction(self, direction: Direction) -> Direction:
        """Local direction mapped back to the global frame (an involution)."""
        return self.to_local_direction(direction)

    def to_local_esl(self, esl: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
        """Permute a global ``(E, S, W, N)`` tuple into frame order.

        Reflecting x swaps the E and W entries; reflecting y swaps S and N.
        """
        e, s, w, n = esl
        if self.flip_x:
            e, w = w, e
        if self.flip_y:
            s, n = n, s
        return (e, s, w, n)
