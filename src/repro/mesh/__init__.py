"""2-D mesh substrate: topology, geometry, and coordinate frames.

This package provides the interconnection-network substrate that every other
layer of :mod:`repro` builds on.  It deliberately contains *no* fault-model or
routing logic; it only answers geometric and topological questions about an
``n x m`` 2-D mesh:

- :class:`~repro.mesh.topology.Mesh2D` -- the mesh itself (bounds, neighbours,
  Manhattan distance, node enumeration).
- :class:`~repro.mesh.geometry.Rect` -- inclusive axis-aligned rectangles used
  to describe faulty blocks ``[xmin:xmax, ymin:ymax]``.
- :class:`~repro.mesh.geometry.Direction` -- the four mesh directions
  (East/South/West/North) in the paper's orientation (x grows East, y grows
  North).
- :class:`~repro.mesh.frames.Frame` -- a translated/reflected coordinate frame
  that maps an arbitrary source/destination pair onto the paper's canonical
  "source at origin, destination in quadrant I" setting.
"""

from repro.mesh.geometry import (
    Direction,
    Quadrant,
    Rect,
    chebyshev_distance,
    manhattan_distance,
)
from repro.mesh.topology import Mesh2D
from repro.mesh.frames import Frame

__all__ = [
    "Direction",
    "Frame",
    "Mesh2D",
    "Quadrant",
    "Rect",
    "chebyshev_distance",
    "manhattan_distance",
]
