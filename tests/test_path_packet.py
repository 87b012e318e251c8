"""Unit tests for Path and Packet records."""

import numpy as np
import pytest

from repro.mesh.geometry import Direction
from repro.routing.packet import Packet, PacketStatus
from repro.routing.path import Path


class TestPath:
    def test_minimal_path(self):
        path = Path.of([(0, 0), (1, 0), (1, 1), (2, 1)])
        assert path.hops == 3
        assert path.is_minimal
        assert not path.is_sub_minimal
        assert path.detours == 0
        hops = [Direction.between(a, b) for a, b in zip(path.nodes, path.nodes[1:])]
        assert hops == [Direction.EAST, Direction.NORTH, Direction.EAST]

    def test_sub_minimal_path(self):
        # One detour West, then across: D = 2, hops = 4.
        path = Path.of([(1, 0), (0, 0), (0, 1), (1, 1), (2, 1)])
        assert not path.is_minimal
        assert path.is_sub_minimal
        assert path.detours == 1

    def test_single_node(self):
        path = Path.of([(3, 3)])
        assert path.hops == 0
        assert path.is_minimal
        assert path.source == path.dest == (3, 3)

    def test_invalid_paths(self):
        with pytest.raises(ValueError):
            Path.of([])
        with pytest.raises(ValueError):
            Path.of([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            Path.of([(0, 0), (0, 0)])

    def test_avoids(self):
        blocked = np.zeros((4, 4), dtype=bool)
        path = Path.of([(0, 0), (1, 0), (2, 0)])
        assert path.avoids(blocked)
        blocked[1, 0] = True
        assert not path.avoids(blocked)

    def test_concat(self):
        a = Path.of([(0, 0), (1, 0)])
        b = Path.of([(1, 0), (1, 1)])
        joined = a.concat(b)
        assert joined.nodes == ((0, 0), (1, 0), (1, 1))
        with pytest.raises(ValueError):
            b.concat(a)

    def test_iteration_and_len(self):
        path = Path.of([(0, 0), (0, 1)])
        assert list(path) == [(0, 0), (0, 1)]
        assert len(path) == 2

    def test_str_mentions_kind(self):
        assert "minimal" in str(Path.of([(0, 0), (1, 0)]))


class TestPacket:
    def test_lifecycle(self):
        packet = Packet(source=(0, 0), dest=(1, 1))
        assert packet.status is PacketStatus.IN_FLIGHT
        assert packet.current == (0, 0)
        packet.record_hop((1, 0))
        assert packet.hops == 1
        packet.record_hop((1, 1))
        assert packet.status is PacketStatus.DELIVERED
        assert packet.trace == [(0, 0), (1, 0), (1, 1)]

    def test_drop(self):
        packet = Packet(source=(0, 0), dest=(5, 5))
        packet.drop("stuck")
        assert packet.status is PacketStatus.DROPPED
        assert packet.drop_reason == "stuck"
        with pytest.raises(RuntimeError):
            packet.record_hop((1, 0))

    def test_unique_ids(self):
        a = Packet(source=(0, 0), dest=(1, 1))
        b = Packet(source=(0, 0), dest=(1, 1))
        assert a.packet_id != b.packet_id
