"""Character-map rendering of meshes.

Legend (later marks override earlier ones):

- ``.`` free node
- ``#`` faulty node
- ``x`` disabled node (in a block / MCC but healthy)
- ``*`` node on a routed path
- ``S`` / ``D`` source / destination
- custom ``marks`` override everything

The y axis prints top-down (largest y first) so North is up, matching the
paper's figures.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.mesh.geometry import Coord
from repro.mesh.topology import Mesh2D


def render_mesh(
    mesh: Mesh2D,
    faulty: np.ndarray | None = None,
    blocked: np.ndarray | None = None,
    path: Iterable[Coord] = (),
    source: Coord | None = None,
    dest: Coord | None = None,
    marks: Mapping[Coord, str] | None = None,
    axes: bool = True,
) -> str:
    """Render the mesh as a character map (North up)."""
    grid = [["." for _ in range(mesh.n)] for _ in range(mesh.m)]

    def put(coord: Coord, char: str) -> None:
        x, y = coord
        if mesh.in_bounds(coord):
            grid[y][x] = char

    if blocked is not None:
        for x, y in zip(*np.nonzero(blocked)):
            put((int(x), int(y)), "x")
    if faulty is not None:
        for x, y in zip(*np.nonzero(faulty)):
            put((int(x), int(y)), "#")
    for coord in path:
        put(coord, "*")
    if source is not None:
        put(source, "S")
    if dest is not None:
        put(dest, "D")
    if marks:
        for coord, char in marks.items():
            put(coord, char[0])

    lines = []
    label_width = len(str(mesh.m - 1)) if axes else 0
    for y in range(mesh.m - 1, -1, -1):
        prefix = f"{y:>{label_width}} " if axes else ""
        lines.append(prefix + " ".join(grid[y]))
    if axes:
        # Column labels: last digit of each x, aligned under the columns.
        digits = " ".join(str(x % 10) for x in range(mesh.n))
        lines.append(" " * (label_width + 1) + digits)
    return "\n".join(lines)


def render_scenario(scenario, path: Iterable[Coord] = (), **kwargs) -> str:
    """Render a :class:`~repro.faults.injection.FaultScenario`."""
    return render_mesh(
        scenario.mesh,
        faulty=scenario.blocks.faulty,
        blocked=scenario.blocks.unusable,
        path=path,
        **kwargs,
    )
