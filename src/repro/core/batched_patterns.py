"""Cross-pattern batched kernels: thousands of fault patterns in lockstep.

Every kernel takes stacked ``(batch, n, m)`` grids (one fault pattern per
leading index) and computes faulty-block formation, Definition 2's MCC
labelling, monotone reachability, and the Def-3 / Extension 1-3
conditions for all patterns and their destinations in one array-program
pass -- the Python-level per-pattern loop that would bound the figure
sweeps disappears.  Past formation the kernels read only a blocked grid,
so they serve either fault model: the experiment runner feeds them
faulty blocks (:func:`batch_disable_fixpoint`) and type-one MCCs (faults
plus both :func:`batch_label_closure` labels).  The
conditions consult the ESLs of only a few nodes (the source, its
neighbours, its two axis lines, the pivots), so
:class:`BatchedSafetyLevels` reads those on demand from the blocked grid
instead of building full ESL grids.

The two fixpoints are the only from-scratch implementations of
Definitions 1 and 2: :func:`repro.faults.blocks.build_faulty_blocks`,
:func:`repro.faults.mcc.label_closures` and the incremental engine's
revive windows run them as a batch of one.  ``tests/test_batched_patterns.py``
holds them to the scalar walks the incremental engine extends a fixpoint
with (:func:`~repro.faults.blocks.spread_disabled` and
:func:`~repro.faults.mcc.extend_label`, seeded at every fault), and the
other kernels bit-for-bit to :func:`repro.core.safety.compute_safety_levels`,
the decision procedures in :mod:`repro.core.conditions` /
:mod:`repro.core.extensions`, and
:func:`repro.faults.coverage.minimal_path_exists`, over exhaustive small
meshes and seeded random large ones; each bit-packed existence map is
checked cell for cell against
:func:`repro.faults.coverage.monotone_reachability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.safety import UNBOUNDED
from repro.mesh.geometry import Coord, Direction

__all__ = [
    "BatchedSafetyLevels",
    "batch_disable_fixpoint",
    "batch_label_closure",
    "batch_pattern_extension1",
    "batch_pattern_extension2",
    "batch_pattern_extension3",
    "batch_pattern_is_safe",
    "batch_pattern_path_exists",
    "batch_reachability_map",
    "batch_safety_levels",
    "build_axis_sample_table",
]

Array = np.ndarray


# ----------------------------------------------------------------------
# Faulty blocks and MCC labels (Definitions 1, 2) as batched fixpoints
# ----------------------------------------------------------------------


def _shifted_batch(mask: Array, dx: int, dy: int) -> Array:
    """``out[b, x, y] = mask[b, x + dx, y + dy]``, out-of-range reads False.

    A shift at least as long as its axis reads nothing, so it is clamped
    to the axis length (an empty source and destination slice).
    """
    n, m = mask.shape[-2], mask.shape[-1]
    dx, dy = max(-n, min(dx, n)), max(-m, min(dy, m))
    out = np.zeros_like(mask)
    xsrc = slice(max(dx, 0), n + min(dx, 0))
    xdst = slice(max(-dx, 0), n + min(-dx, 0))
    ysrc = slice(max(dy, 0), m + min(dy, 0))
    ydst = slice(max(-dy, 0), m + min(-dy, 0))
    out[..., xdst, ydst] = mask[..., xsrc, ysrc]
    return out


def batch_disable_fixpoint(faulty: Array) -> Array:
    """Definition 1's disabling rule over a ``(batch, n, m)`` fault stack.

    Returns the *unusable* stack (faulty or disabled): a healthy node
    becomes disabled when it has an unusable neighbour in the x dimension
    *and* one in the y dimension ("two or more ... in different
    dimensions"), iterated to a fixpoint.  Out-of-mesh neighbours read
    False, so mesh edges count as healthy.  The iteration runs all
    patterns in lockstep until none changes; scattered faults (the
    paper's regime) converge in a handful of rounds.
    """
    unusable = faulty
    while True:
        horizontal = _shifted_batch(unusable, 1, 0) | _shifted_batch(unusable, -1, 0)
        vertical = _shifted_batch(unusable, 0, 1) | _shifted_batch(unusable, 0, -1)
        grown = unusable | (horizontal & vertical)
        if not bool(np.any(grown ^ unusable)):
            return grown
        unusable = grown


def batch_label_closure(faulty: Array, offsets: tuple[Coord, Coord]) -> Array:
    """One Definition 2 label over a ``(batch, n, m)`` fault stack.

    Returns the labelled nodes (faults excluded): a fault-free node takes
    the label when its two neighbours at ``offsets`` (a rule of
    ``repro.faults.mcc._LABEL_RULES``) are both faulty or already
    labelled, iterated to a fixpoint.  Out-of-mesh neighbours read
    False, so mesh edges count as fault-free, as Definition 2 says.  All
    patterns run in lockstep until none changes; the rounds equal the
    longest label chain, a handful for scattered faults.
    """
    (ax, ay), (bx, by) = offsets
    blocked = faulty
    while True:
        grown = blocked | (
            _shifted_batch(blocked, ax, ay) & _shifted_batch(blocked, bx, by)
        )
        if not bool(np.any(grown ^ blocked)):
            return grown & ~faulty
        blocked = grown


# ----------------------------------------------------------------------
# ESLs read on demand from the blocked grid
# ----------------------------------------------------------------------


def _clear_run(lines: Array, axis: int = -1) -> Array:
    """Clear nodes before the first blocked cell along ``axis`` of ``lines``.

    ``lines`` holds the cells strictly beyond some nodes in one direction,
    nearest first.  With no blocked cell -- or no cell at all, at a mesh
    edge -- the level is :data:`UNBOUNDED`, as in ``compute_safety_levels``.
    """
    axis %= lines.ndim
    if lines.shape[axis] == 0:
        rest = lines.shape[:axis] + lines.shape[axis + 1 :]
        return np.full(rest, UNBOUNDED, dtype=np.int64)
    first = np.argmax(lines, axis=axis).astype(np.int64)
    return np.where(np.any(lines, axis=axis), first, UNBOUNDED)


def _clear_toward(lines: Array, at: Array, step: int) -> Array:
    """Clear distances from position ``at`` toward the end (``step`` +1)
    or the start (-1) of ``lines``.

    ``lines`` holds one full mesh line per entry of ``at`` along its last
    axis; the nearest blocked cell beyond ``at`` that way bounds each
    level, and a line clear that way gives :data:`UNBOUNDED`.  Blocked
    cells are sparse, so one ``flatnonzero`` lists them line by line and
    a binary search per entry finds its nearest one.
    """
    length = lines.shape[-1]
    hits = np.flatnonzero(lines)
    start = np.reshape(np.arange(0, at.size * length, length), at.shape)
    here = start + at
    if step > 0:
        nearest = np.append(hits, lines.size)[np.searchsorted(hits, here, side="right")]
        return np.where(nearest < start + length, nearest - here - 1, UNBOUNDED)
    nearest = np.insert(hits, 0, -1)[np.searchsorted(hits, here)]
    return np.where(nearest >= start, here - nearest - 1, UNBOUNDED)


@dataclass(frozen=True)
class BatchedSafetyLevels:
    """The ESLs of a ``(batch, n, m)`` blocked stack, read on demand.

    A view over ``blocked``: the conditions consult the ESLs of only a few
    nodes -- the source and its neighbours, the nodes on the source's two
    axis lines, the pivots -- so each read scans just the mesh lines
    through those nodes instead of building four full grids.  Every read
    equals the matching entries of ``compute_safety_levels(mesh,
    blocked[b])`` for each pattern ``b``.

    ``node`` and ``axis_lines`` reads are memoised per view, keyed by
    ``(method name, coordinate)``, so every kernel sharing the view scans
    each line once.  The returned arrays are shared between callers and
    must not be mutated.
    """

    blocked: Array
    _reads: dict[tuple[str, Coord], Any] = field(
        default_factory=dict, compare=False, repr=False
    )

    def _memo(self, name: str, coord: Coord, build: Callable[[], Any]) -> Any:
        key = (name, coord)
        if key not in self._reads:
            self._reads[key] = build()
        return self._reads[key]

    def node(self, node: Coord) -> tuple[Array, Array, Array, Array]:
        """One node's ``(E, S, W, N)`` across the batch, each ``(batch,)``."""
        x, y = node
        grid = self.blocked
        return self._memo("node", node, lambda: (
            _clear_run(grid[:, x + 1 :, y]),
            _clear_run(np.flip(grid[:, x, :y], axis=-1)),
            _clear_run(np.flip(grid[:, :x, y], axis=-1)),
            _clear_run(grid[:, x, y + 1 :]),
        ))

    def point_side(self, px: Array, py: Array, side: Direction) -> Array:
        """The ``side`` level of the nodes ``(px[b, j], py[b, j])``,
        ``(batch, p)``; every coordinate must lie inside the mesh.

        Scans only the mesh line through each node along ``side``'s axis.
        """
        # Advanced indices split by a slice come first, so the line
        # through point j is lines[b, j, :] in both cases and the scan runs
        # over the contiguous last axis.
        pattern = np.arange(self.blocked.shape[0])[:, None]
        if side.is_horizontal:
            return _clear_toward(self.blocked[pattern, :, py], px, side.dx)
        return _clear_toward(self.blocked[pattern, px], py, side.dy)

    def axis_lines(self, source: Coord) -> tuple[Array, Array]:
        """North levels of ``(sx+k, sy)`` and East levels of ``(sx, sy+k)``
        for ``k = 1, 2, ...`` up to the mesh edge, each ``(batch, k_max)``.

        Both come from one reduction each over the quadrant beyond the
        source, since the North line of ``(sx+k, sy)`` is quadrant row
        ``k-1`` and the East line of ``(sx, sy+k)`` quadrant column ``k-1``.
        """
        sx, sy = source
        quadrant = self.blocked[:, sx + 1 :, sy + 1 :]
        return self._memo("axis_lines", source, lambda: (
            _clear_run(quadrant, axis=2), _clear_run(quadrant, axis=1)
        ))


def batch_safety_levels(blocked: Array) -> BatchedSafetyLevels:
    """The on-demand ESL view of a ``(batch, n, m)`` blocked stack."""
    return BatchedSafetyLevels(blocked)


# ----------------------------------------------------------------------
# Shared per-destination helpers
# ----------------------------------------------------------------------


def _dest_offsets(source: Coord, dests: Array) -> tuple[Array, Array, Array, Array]:
    """``(dx, dy, xd, yd)``, each ``(batch, k)``, for ``(batch, k, 2)`` dests."""
    dx = dests[:, :, 0] - source[0]
    dy = dests[:, :, 1] - source[1]
    return dx, dy, np.abs(dx), np.abs(dy)


def _toward(
    levels: BatchedSafetyLevels, origin: Coord, dx: Array, dy: Array
) -> tuple[Array, Array]:
    """``origin``'s local-frame East and North levels per destination.

    The local-frame East entry is the global East distance when the
    destination lies East-or-level of the origin and the global West
    distance otherwise (exactly ``Frame.to_local_esl``), mirrored on y.
    """
    east, south, west, north = levels.node(origin)
    toward_x = np.where(dx >= 0, east[:, None], west[:, None])
    toward_y = np.where(dy >= 0, north[:, None], south[:, None])
    return toward_x, toward_y


def _safe_from(
    levels: BatchedSafetyLevels, origin: Coord, dx: Array, dy: Array,
    xd: Array, yd: Array,
) -> Array:
    """Definition 3 from ``origin`` toward each destination, ``(batch, k)``."""
    toward_x, toward_y = _toward(levels, origin, dx, dy)
    return (xd <= toward_x) & (yd <= toward_y)


def batch_pattern_is_safe(
    levels: BatchedSafetyLevels, source: Coord, dests: Array
) -> Array:
    """Definition 3 across patterns: ``mask[b, i]`` equals
    ``is_safe(levels_b, source, dests[b, i])``."""
    dx, dy, xd, yd = _dest_offsets(source, dests)
    return _safe_from(levels, source, dx, dy, xd, yd)


# ----------------------------------------------------------------------
# Extension 1 (Theorem 1a)
# ----------------------------------------------------------------------


def batch_pattern_extension1(
    unusable: Array,
    levels: BatchedSafetyLevels,
    source: Coord,
    dests: Array,
    allow_sub_minimal: bool = True,
) -> Array:
    """Theorem 1a across patterns.

    ``mask[b, i]`` equals the scalar decision's ``ensures_minimal``
    (``allow_sub_minimal=False``) or ``ensures_sub_minimal`` (default) for
    pattern ``b``.  A neighbour inside pattern ``b``'s faulty blocks is
    skipped for that pattern only -- the per-pattern generalisation of the
    scalar kernel's global skip.
    """
    n, m = unusable.shape[-2], unusable.shape[-1]
    dx, dy, xd, yd = _dest_offsets(source, dests)
    ensured = _safe_from(levels, source, dx, dy, xd, yd)
    sx, sy = source
    for step_x, step_y in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        nx, ny = sx + step_x, sy + step_y
        if not (0 <= nx < n and 0 <= ny < m):
            continue
        if step_x:
            preferred = dx > 0 if step_x > 0 else dx < 0
        else:
            preferred = dy > 0 if step_y > 0 else dy < 0
        eligible = np.ones_like(ensured) if allow_sub_minimal else preferred
        ndx = dests[:, :, 0] - nx
        ndy = dests[:, :, 1] - ny
        neighbor_safe = _safe_from(
            levels, (nx, ny), ndx, ndy, np.abs(ndx), np.abs(ndy)
        )
        open_here = ~unusable[:, nx, ny]
        ensured = ensured | (open_here[:, None] & eligible & neighbor_safe)
    return ensured


# ----------------------------------------------------------------------
# Extension 2 (Theorem 1b): vectorised segment tables
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AxisSampleTable:
    """Per-pattern segment representatives for one local axis.

    The batched analogue of :class:`repro.core.segments.RegionSegments`
    for the experiment's fixed source (identity frame): ``offsets`` and
    ``perp_levels`` are ``(batch, segments)``; ``valid`` masks segments
    that are empty for a pattern (region shorter than the window start).
    """

    offsets: Array
    perp_levels: Array
    valid: Array


def build_axis_sample_table(
    line_levels: Array,
    clear: Array,
    edge: int,
    segment_size: int | None,
) -> AxisSampleTable:
    """Segment representatives along one axis for every pattern at once.

    ``line_levels[b, k-1]`` is the perpendicular ESL of the node ``k`` hops
    along the axis (offsets ``1..edge``); ``clear[b]`` the source's clear
    distance along the axis.  Each global window ``[1..s], [s+1..2s], ...``
    contributes the in-region offset with the maximal perpendicular level,
    farthest-offset tie-break -- exactly
    :func:`repro.core.segments.build_axis_segments` with ``tie_break="far"``
    (the windows are pattern-independent; only the region length
    ``min(clear, edge)`` varies per pattern).

    The selection encodes ``score = level * (edge + 2) + offset`` so a
    single ``argmax`` realises "max level, then max offset": levels are
    capped at :data:`~repro.core.safety.UNBOUNDED` (``2**30``) and
    ``edge <= n + m``, so scores stay far inside int64.  ``line_levels``
    is widened to int64 first: an int16 ESL-grid slice times a Python int
    stays int16 and would wrap at :data:`~repro.core.safety.ESL_CLEAR`.
    """
    line_levels = np.asarray(line_levels, dtype=np.int64)
    if edge == 0:
        batch = clear.shape[0]
        empty = np.zeros((batch, 0), dtype=np.int64)
        return AxisSampleTable(
            offsets=empty, perp_levels=empty,
            valid=np.zeros((batch, 0), dtype=np.bool_),
        )
    size = edge if segment_size is None else segment_size
    offsets = np.arange(1, edge + 1, dtype=np.int64)
    length = np.minimum(clear, edge)[:, None]
    in_region = offsets <= length
    scale = edge + 2
    score = np.where(in_region, line_levels * scale + offsets, -1)
    segments = -(-edge // size)
    pad = segments * size - edge
    if pad:
        batch = clear.shape[0]
        filler = np.full((batch, pad), -1, dtype=np.int64)
        score = np.concatenate([score, filler], axis=-1)
        line_levels = np.concatenate([line_levels, filler], axis=-1)
    batch = clear.shape[0]
    score = np.reshape(score, (batch, segments, size))
    levels_w = np.reshape(line_levels, (batch, segments, size))
    # Plain integer indexing of the picked columns; window w's column k
    # is offset w * size + k + 1, padding included.
    pick = np.argmax(score, axis=-1)
    rows = np.arange(batch)[:, None]
    windows = np.arange(segments, dtype=np.int64)[None, :]
    best_score = score[rows, windows, pick]
    return AxisSampleTable(
        offsets=windows * size + pick + 1,
        perp_levels=levels_w[rows, windows, pick],
        valid=best_score >= 0,
    )


def _table_usable(
    table: AxisSampleTable, max_offsets: Array, required_levels: Array
) -> Array:
    """Some representative has ``offset <= max_offset`` and
    ``level >= required_level`` -- the batched ``best_for`` existence."""
    if table.offsets.shape[-1] == 0:
        return np.zeros(max_offsets.shape, dtype=np.bool_)
    usable = (
        table.valid[:, None, :]
        & (table.offsets[:, None, :] <= max_offsets[:, :, None])
        & (table.perp_levels[:, None, :] >= required_levels[:, :, None])
    )
    return np.any(usable, axis=-1)


def batch_pattern_extension2(
    levels: BatchedSafetyLevels,
    source: Coord,
    dests: Array,
    segment_size: int | None,
    mesh_shape: tuple[int, int],
) -> Array:
    """Theorem 1b across patterns.

    ``mask[b, i]`` equals
    ``extension2_decision_from_segments(...).ensures_minimal`` for pattern
    ``b`` with segments built for the source's identity frame (the
    experiment setting: segments are built once per pattern with
    ``Frame(origin=source)`` and reused for every destination).
    """
    dx, dy, xd, yd = _dest_offsets(source, dests)
    toward_x, toward_y = _toward(levels, source, dx, dy)
    source_safe = (xd <= toward_x) & (yd <= toward_y)
    east_table, north_table = build_source_sample_tables(
        levels, source, segment_size, mesh_shape
    )
    x_axis = (xd <= toward_x) & _table_usable(east_table, xd, yd)
    y_axis = (yd <= toward_y) & _table_usable(north_table, yd, xd)
    return source_safe | x_axis | y_axis


def build_source_sample_tables(
    levels: BatchedSafetyLevels,
    source: Coord,
    segment_size: int | None,
    mesh_shape: tuple[int, int],
) -> tuple[AxisSampleTable, AxisSampleTable]:
    """(East-axis, North-axis) sample tables for the fixed source.

    The identity-frame analogue of
    :func:`repro.core.segments.build_axis_segments`: the East-axis
    table samples nodes ``(sx+k, sy)`` with their North levels, the
    North-axis table nodes ``(sx, sy+k)`` with their East levels.
    """
    n, m = mesh_shape
    sx, sy = source
    east, _, _, north = levels.node(source)
    north_line, east_line = levels.axis_lines(source)
    east_table = build_axis_sample_table(north_line, east, n - 1 - sx, segment_size)
    north_table = build_axis_sample_table(east_line, north, m - 1 - sy, segment_size)
    return east_table, north_table


# ----------------------------------------------------------------------
# Extension 3 (Theorem 1c)
# ----------------------------------------------------------------------


def _local_pivot_axis(
    levels: BatchedSafetyLevels, px: Array, py: Array, offset: Array,
    forward: Array, ahead: Direction,
) -> tuple[Array, Array]:
    """One axis of every pivot in each destination's local frame.

    ``offset`` is each pivot's offset from the source along ``ahead``'s
    axis, ``(batch, p)``, and ``forward[b, i]`` holds when destination
    ``i`` lies ``ahead``-or-level of the source.  Returns the local offset
    and the local level toward the destination (exactly
    ``Frame.to_local_esl``), each ``(batch, k, p)``, or ``(batch, 1, p)``
    when every destination lies on one side of the source, as in the
    figures.  Only the sides some destination lies on are read.
    """
    if bool(np.all(forward)):
        return offset[:, None, :], levels.point_side(px, py, ahead)[:, None, :]
    back_offset = -offset[:, None, :]
    back_level = levels.point_side(px, py, ahead.opposite)[:, None, :]
    if not bool(np.any(forward)):
        return back_offset, back_level
    toward = forward[:, :, None]
    return (np.where(toward, offset[:, None, :], back_offset),
            np.where(toward, levels.point_side(px, py, ahead)[:, None, :], back_level))


def batch_pattern_extension3(
    unusable: Array,
    levels: BatchedSafetyLevels,
    source: Coord,
    dests: Array,
    pivots: Array,
    pivot_valid: Array | None = None,
) -> Array:
    """Theorem 1c across patterns.

    ``pivots`` is ``(p, 2)`` (one pivot list shared by every pattern, e.g.
    the recursive-centre scheme) or ``(batch, p, 2)`` (per-pattern lists,
    e.g. the random scheme; pad ragged lists and mask the padding via
    ``pivot_valid``).  An unmasked pivot outside the mesh raises
    ``ValueError``; pivots inside a pattern's faulty blocks are skipped
    for that pattern, as in the scalar decision.  A pivot's level is read
    only on the sides some destination lies on.  ``mask[b, i]`` equals
    the scalar ``extension3_decision(...).ensures_minimal``.
    """
    n, m = unusable.shape[-2], unusable.shape[-1]
    batch = unusable.shape[0]
    dx, dy, xd, yd = _dest_offsets(source, dests)
    src_east, src_north = _toward(levels, source, dx, dy)
    ensured = (xd <= src_east) & (yd <= src_north)
    if pivots.shape[-2] == 0:
        return ensured

    shared = pivots.ndim == 2
    if shared:
        pivots = np.broadcast_to(pivots[None, :, :], (batch,) + pivots.shape)
    px = pivots[:, :, 0]
    py = pivots[:, :, 1]
    outside = (px < 0) | (px >= n) | (py < 0) | (py >= m)
    if pivot_valid is not None:
        outside = outside & pivot_valid
    if bool(np.any(outside)):
        raise ValueError(f"unmasked pivot outside the {n}x{m} mesh")
    # Masked padding may point anywhere; clamp it so the reads stay in range.
    px = np.clip(px, 0, n - 1)
    py = np.clip(py, 0, m - 1)
    blocked_p = np.take_along_axis(np.reshape(unusable, (batch, n * m)), px * m + py, axis=1)
    open_pivot = ~blocked_p
    if pivot_valid is not None:
        open_pivot = open_pivot & pivot_valid
    # Local pivot coordinates and levels per (pattern, destination,
    # pivot): the frame's axis reflections depend on the destination's
    # quadrant.
    xi, pivot_east = _local_pivot_axis(levels, px, py, px - source[0], dx >= 0, Direction.EAST)
    yi, pivot_north = _local_pivot_axis(levels, px, py, py - source[1], dy >= 0, Direction.NORTH)

    # A usable pivot lies in the source's quadrant toward the destination,
    # within both the destination's box and the source's safe reach, and
    # reaches the destination itself.
    usable = open_pivot[:, None, :] & (xi >= 0) & (yi >= 0)
    source_reaches = (xi <= np.minimum(xd, src_east)[:, :, None]) & (
        yi <= np.minimum(yd, src_north)[:, :, None]
    )
    pivot_reaches = (xd[:, :, None] <= xi + pivot_east) & (yd[:, :, None] <= yi + pivot_north)
    chain = usable & source_reaches & pivot_reaches
    return ensured | np.any(chain, axis=-1)


# ----------------------------------------------------------------------
# Existence oracle: batched monotone reachability
# ----------------------------------------------------------------------


def _require_source_in_mesh(unusable: Array, source: Coord) -> None:
    n, m = unusable.shape[-2], unusable.shape[-1]
    if not (0 <= source[0] < n and 0 <= source[1] < m):
        raise ValueError(f"source {source} lies outside the {n}x{m} mesh")


def batch_reachability_map(
    unusable: Array, source: Coord, flip_x: bool = False, flip_y: bool = False
) -> Array:
    """Per-pattern monotone reachability over one source quadrant.

    The grid runs from the source to the mesh edge along the quadrant
    selected by ``flip_x``/``flip_y`` (local orientation, ``[b, 0, 0]`` is
    the source).  Entry ``[b, i, j]`` equals
    ``repro.faults.coverage.monotone_reachability(unusable[b], source,
    dest)[-1, -1]`` for the destination ``dest`` ``i`` columns and ``j``
    rows into that quadrant: the DP is a prefix computation, so one map
    serves every destination of the quadrant.  (A pattern whose source is
    swallowed by a block yields an all-False map, matching the scalar
    early return.)

    Each quadrant column of the whole batch is one Python int, pattern
    ``b``'s row ``j`` at bit ``b*(mq+1) + j`` under an always-blocked guard
    row.  The climb of :func:`repro.faults.coverage._climb_column` is then
    one carry-propagating add: ``free + seed`` carries from the lowest seed
    of each free run to the blocked cell above it -- at the latest the
    guard row, so no carry crosses into the next pattern.  A source
    outside the mesh raises ``ValueError``.
    """
    _require_source_in_mesh(unusable, source)
    sx, sy = source
    xs = slice(sx, None, -1) if flip_x else slice(sx, None)
    ys = slice(sy, None, -1) if flip_y else slice(sy, None)
    sub = unusable[:, xs, ys]
    batch, nq, mq = sub.shape
    # Column 0 seeds every pattern's source row; the quadrant's free
    # columns follow, the guard rows left blocked.
    columns = np.zeros((nq + 1, batch, mq + 1), dtype=np.bool_)
    columns[0, :, 0] = True
    columns[1:, :, :mq] = ~np.transpose(sub, (1, 0, 2))
    width = batch * (mq + 1)
    packed = np.packbits(np.reshape(columns, (nq + 1, width)), axis=1, bitorder="little")
    size = packed.shape[1]
    reach, *frees = [int.from_bytes(column, "little") for column in packed]
    climbed = []
    for free in frees:
        seed = reach & free
        reach = (((free + seed) ^ free) | seed) & free
        climbed.append(reach.to_bytes(size, "little"))
    packed = np.reshape(np.frombuffer(b"".join(climbed), dtype=np.uint8), (nq, size))
    bits = np.unpackbits(packed, axis=1, count=width, bitorder="little")
    rows = np.reshape(bits, (nq, batch, mq + 1))[:, :, :mq]
    return np.ascontiguousarray(np.transpose(rows, (1, 0, 2)), dtype=np.bool_)


def batch_pattern_path_exists(
    unusable: Array,
    source: Coord,
    dests: Array,
    maps: dict[tuple[bool, bool], Array] | None = None,
) -> Array:
    """Minimal-path existence across patterns and destinations.

    ``mask[b, i]`` equals ``minimal_path_exists(unusable[b], source,
    dests[b, i])`` for block-free endpoints (the experiment protocol
    guarantees both).  Builds at most one quadrant map per destination
    quadrant present; pass ``maps`` to reuse them across metrics.  A
    source outside the mesh raises ``ValueError``.
    """
    _require_source_in_mesh(unusable, source)
    dx, dy, xd, yd = _dest_offsets(source, dests)
    out = np.zeros(dx.shape, dtype=np.bool_)
    for flip_x in (False, True):
        for flip_y in (False, True):
            sel = ((dx < 0) == flip_x) & ((dy < 0) == flip_y)
            if not bool(np.any(sel)):
                continue
            key = (flip_x, flip_y)
            if maps is not None and key in maps:
                quadrant = maps[key]
            else:
                quadrant = batch_reachability_map(unusable, source, flip_x, flip_y)
                if maps is not None:
                    maps[key] = quadrant
            nq, mq = quadrant.shape[-2], quadrant.shape[-1]
            flat_idx = np.clip(xd, 0, nq - 1) * mq + np.clip(yd, 0, mq - 1)
            batch = quadrant.shape[0]
            gathered = np.take_along_axis(
                np.reshape(quadrant, (batch, nq * mq)), flat_idx, axis=1
            )
            out = np.where(sel, gathered, out)
    return out
