"""The paper's two local rules as one node program.

- **Definition 1** (:meth:`LocalRules._maybe_disable`): a node with an
  unusable neighbour in both dimensions disables itself and tells its
  neighbours, which count it as unusable in turn.
- **FORMATION** (:meth:`LocalRules._tighten_level`, Sec. 4): a node adopts
  a tighter extended safety level for one direction and forwards it to the
  opposite side, one more hop away.

Each process class names the message kind of each rule it runs and
leaves the other ``None``: block formation (``"disabled"``), safety
formation (``"esl"``) and the live :class:`~.dynamic_update.DynamicNode`
(``"unusable"`` and ``"esl"``).  :meth:`LocalRules.protocol_restart` is
the one restart of all three, and the first run's ``start`` calls it too:
it re-derives the faulty-neighbour directions from the network's
``faulty_dirs`` map, tightens in ``ESL_ORDER`` and then tries to disable.
:func:`live_unusable_grid` and :func:`live_safety_levels` are the one
read-out of a network of these processes.
"""

from __future__ import annotations

from itertools import chain
from typing import ClassVar

import numpy as np

from repro.core.safety import UNBOUNDED, ESLGrids, SafetyLevels, encode_levels
from repro.mesh.geometry import ESL_ORDER, Coord, Direction
from repro.simulator.messages import Message
from repro.simulator.network import NO_DIRS, MeshNetwork
from repro.simulator.protocols.reliable import ResilientProcess

#: A fresh node's levels (copied or updated from, cheaper than rebuilding).
_CLEAR_LEVELS: dict[Direction, int] = dict.fromkeys(ESL_ORDER, UNBOUNDED)


class LocalRules(ResilientProcess):
    """Definition 1 and FORMATION over ``unusable_dirs`` / ``disabled`` /
    ``levels``; a subclass picks its rules by their message kinds."""

    __slots__ = ("unusable_dirs", "disabled", "levels")

    #: Kind of Definition 1's announcement (None: no block labelling).
    DISABLE_KIND: ClassVar[str | None] = None
    #: Kind of FORMATION's forward (None: no safety levels).
    ESL_KIND: ClassVar[str | None] = None

    def __init__(self, coord: Coord, network: MeshNetwork, *, hardened: bool = False):
        super().__init__(coord, network, hardened=hardened)
        #: Immutable, so a restart can share the network's set.
        self.unusable_dirs: frozenset[Direction] = NO_DIRS
        self.disabled = False
        self.levels: dict[Direction, int] = _CLEAR_LEVELS.copy()

    def start(self) -> None:
        # At t=0 the network's fault set is the initial state.
        self.protocol_restart()

    def protocol_restart(self) -> None:
        # Amnesia restart: re-derive the only hard fact a node can sense
        # locally -- which neighbours are dead -- and rebuild the rest by
        # re-running the rules (standing in for a heartbeat detector).
        dirs = self.unusable_dirs = self.network.faulty_dirs.get(self.coord, NO_DIRS)
        self.disabled = False
        self.levels.update(_CLEAR_LEVELS)
        if not dirs:
            return  # most nodes: nothing to tighten, nothing to disable
        if self.ESL_KIND is not None:
            # ESL order, not set order: a frozenset of directions iterates
            # in hash (address) order, and the send order is the event order.
            for direction in ESL_ORDER:
                if direction in dirs:
                    self._tighten_level(direction, 0)
        self._maybe_disable()

    def handle_message(self, message: Message) -> None:
        kind = message.kind
        if kind == self.ESL_KIND:
            # A level arriving from the East is an E-chain value, etc.; a
            # disabled node is part of a block and relays none.
            if not self.disabled:
                self._tighten_level(message.arrival_direction, int(message.payload) + 1)
        elif kind == self.DISABLE_KIND:
            self.neighbor_became_unusable(message.arrival_direction)
        else:
            raise ValueError(f"unexpected message kind {kind!r}")

    def neighbor_became_unusable(self, direction: Direction) -> None:
        """The neighbour in ``direction`` failed or disabled itself."""
        if direction in self.unusable_dirs or self.disabled:
            return
        self.unusable_dirs |= {direction}
        if self.ESL_KIND is not None:
            self._tighten_level(direction, 0)
        self._maybe_disable()

    def _maybe_disable(self) -> None:
        """Definition 1: disable once unusable neighbours span both
        dimensions (callers have checked the node is not disabled)."""
        if self.DISABLE_KIND is None:
            return
        dirs = self.unusable_dirs
        if any(d.is_horizontal for d in dirs) and any(d.is_vertical for d in dirs):
            self.disabled = True
            self.rbroadcast(self.DISABLE_KIND)

    def _tighten_level(self, direction: Direction, value: int) -> None:
        """FORMATION: levels only shrink, so min-propagation converges
        regardless of message ordering."""
        if value >= self.levels[direction]:
            return
        self.levels[direction] = value
        self.rsend(direction.opposite, self.ESL_KIND, value)


def live_unusable_grid(network: MeshNetwork) -> np.ndarray:
    """Faulty nodes plus every :class:`LocalRules` process that disabled
    itself."""
    mesh = network.mesh
    grid = np.zeros((mesh.n, mesh.m), dtype=bool)
    blocked = list(network.faulty)
    blocked += [
        coord
        for coord, process in network.nodes.items()
        if isinstance(process, LocalRules) and process.disabled
    ]
    if blocked:
        grid[tuple(np.array(blocked).T)] = True
    return grid


def live_safety_levels(network: MeshNetwork) -> SafetyLevels:
    """Each live :class:`LocalRules` process's levels as ESL grids (0 where
    no such process runs; entries of blocked nodes carry no meaning)."""
    mesh = network.mesh
    live = [
        (coord, process.levels)
        for coord, process in network.nodes.items()
        if isinstance(process, LocalRules)
    ]
    grids = np.zeros((len(ESL_ORDER), mesh.n, mesh.m), dtype=np.int64)
    if live:
        count = len(live)
        coords = chain.from_iterable(coord for coord, _ in live)
        xs, ys = np.fromiter(coords, dtype=np.intp, count=2 * count).reshape(count, 2).T
        # Every levels dict keeps the key order of _CLEAR_LEVELS: ESL_ORDER.
        values = chain.from_iterable(levels.values() for _, levels in live)
        grids[:, xs, ys] = np.fromiter(values, dtype=np.int64, count=4 * count).reshape(count, 4).T
    return SafetyLevels(mesh, ESLGrids(*encode_levels(grids)))
