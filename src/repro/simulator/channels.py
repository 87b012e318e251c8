"""Point-to-point links between neighbouring nodes.

A channel models one directed mesh link: fixed latency, FIFO delivery,
per-channel counters.  Failed nodes simply have their channels marked down;
messages to a down channel are dropped (and counted), which is how the
simulator expresses that faulty nodes neither receive nor forward.

Channel state does not live in per-channel objects: a
:class:`~repro.simulator.network.MeshNetwork` keeps the up/carried/dropped
state of all ``4*n*m`` directed links in flat buffers (a ``bytearray``
and ``array('q')`` counters), exposed as numpy views indexed by
``(x, y, direction)``.  :class:`ChannelView` is a thin facade over one
slot of those views, handed out lazily by :class:`ChannelMap`, so
building a network allocates no per-channel objects at all.  Views read
counters and take links down; every message goes through the one send
path, :meth:`~repro.simulator.network.MeshNetwork.send_from`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterator

from repro.mesh.geometry import Coord, Direction

if TYPE_CHECKING:
    from repro.simulator.network import MeshNetwork


class ChannelView:
    """One directed link ``src -> dst``, viewed through the network's
    state arrays.

    Every read and write goes to the owning
    :class:`~repro.simulator.network.MeshNetwork`'s arrays, so views can be
    created and discarded freely without losing state.
    """

    __slots__ = ("_network", "_x", "_y", "_di", "src", "dst", "direction")

    def __init__(self, network: "MeshNetwork", src: Coord, dst: Coord, direction: Direction):
        self._network = network
        self._x, self._y = src
        self._di = direction.index
        self.src = src
        self.dst = dst
        self.direction = direction  # as seen from src

    @property
    def up(self) -> bool:
        return bool(self._network.channel_up[self._x, self._y, self._di])

    @property
    def messages_carried(self) -> int:
        return int(self._network.channel_carried[self._x, self._y, self._di])

    @property
    def messages_dropped(self) -> int:
        return int(self._network.channel_dropped[self._x, self._y, self._di])

    def take_down(self) -> None:
        # Route through the network so its running up-link count stays true.
        self._network.take_down_channel(self.src, self.direction)

    def __str__(self) -> str:
        state = "up" if self.up else "down"
        return f"Channel {self.src} -> {self.dst} ({state}, {self.messages_carried} msgs)"


def link_totals(network: "MeshNetwork") -> dict[str, int]:
    """Whole-network link accounting from the network's O(1) running
    totals; the per-tick sampler (:mod:`repro.obs.timeseries`) reads this
    once per simulated tick."""
    return {
        "links_up": network.channels_up_total,
        "carried": network.messages_carried_total,
        "dropped": network.messages_dropped_total,
        "lost": network.messages_lost_total,
        "duplicated": network.messages_duplicated_total,
        "retried": network.messages_retried_total,
    }


class ChannelMap(Mapping):
    """Read-through mapping ``(src, direction) -> ChannelView``.

    Keys exist for every in-bounds directed link (up or down); views are
    built on access instead of eagerly at network construction.  The
    network builds a map per ``network.channels`` access and keeps none,
    so the two do not form a reference cycle.
    """

    __slots__ = ("_network",)

    def __init__(self, network: "MeshNetwork"):
        self._network = network

    def __getitem__(self, key: tuple[Coord, Direction]) -> ChannelView:
        src, direction = key
        view = self._network.channel_view(src, direction)
        if view is None:
            raise KeyError(key)
        return view

    def __iter__(self) -> Iterator[tuple[Coord, Direction]]:
        mesh = self._network.mesh
        for coord in mesh.nodes():
            for direction, _neighbor in mesh.neighbor_items(coord):
                yield (coord, direction)

    def __len__(self) -> int:
        mesh = self._network.mesh
        # Two directed channels per undirected mesh edge.
        return 2 * (mesh.n * (mesh.m - 1) + mesh.m * (mesh.n - 1))
