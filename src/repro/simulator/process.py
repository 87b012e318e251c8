"""The per-node process abstraction.

A :class:`NodeProcess` owns one mesh node's protocol state.  It can only
``send`` to its four neighbours and react to deliveries in
:meth:`on_message`; anything beyond that (reading global grids, touching
other processes) would break the distributed-information premise the paper
is about, so the protocols deliberately avoid it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

from repro.mesh.geometry import ESL_ORDER, Coord, Direction
from repro.simulator.messages import Message

if TYPE_CHECKING:
    from repro.simulator.network import MeshNetwork


class NodeProcess(abc.ABC):
    """Protocol state machine bound to one mesh node."""

    __slots__ = ("coord", "network")

    def __init__(self, coord: Coord, network: "MeshNetwork"):
        self.coord = coord
        self.network = network

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Called once at t=0; schedule initial sends here."""

    @abc.abstractmethod
    def on_message(self, message: Message) -> None:
        """React to a delivery; ``message.arrival_direction`` says whence."""

    # ------------------------------------------------------------------
    # Primitives available to protocol code
    # ------------------------------------------------------------------
    def send(self, direction: Direction, kind: str, payload: Any = None) -> bool:
        """Send to the neighbour in ``direction``.

        Returns False (a no-op) at mesh edges, so protocol code can write
        "forward in direction d (if any)" exactly as the paper does.
        """
        return self.network.send_from(self.coord, direction, kind, payload)

    def broadcast(self, kind: str, payload: Any = None) -> int:
        """Send to every existing neighbour; returns how many were sent."""
        count = 0
        for direction in ESL_ORDER:
            if self.send(direction, kind, payload):
                count += 1
        return count
