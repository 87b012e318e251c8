"""A finished network's teardown, the reliability shim's dedup decisions,
and the channel arrays as views of the send path's link state.

The tests marked ``chaos`` run in CI's chaos convergence gate
(``pytest -m chaos``).
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.chaos import ChannelFaultPlan, ChaosSchedule, verify_convergence
from repro.faults.injection import uniform_faults
from repro.mesh.geometry import Direction
from repro.mesh.topology import Mesh2D
from repro.obs import Observatory
from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork
from repro.simulator.process import NodeProcess
from repro.simulator.protocols import run_block_formation, run_safety_propagation
from repro.simulator.protocols.block_formation import BlockFormationProcess
from repro.simulator.protocols.dynamic_update import DynamicNode
from repro.simulator.protocols.reliable import Envelope, ResilientProcess
from repro.simulator.protocols.safety_propagation import SafetyFormationProcess

EAST, WEST = Direction.EAST, Direction.WEST


@pytest.mark.chaos
def test_finished_convergence_leaves_no_cyclic_garbage():
    """``verify_convergence`` closes its network after the last read of
    the live state, so reference counting frees every node process and
    the observatory hookup: a ``DEBUG_SAVEALL`` collection after the run
    finds (almost) nothing."""
    mesh = Mesh2D(12, 12)
    rng = np.random.default_rng(2)
    faults = uniform_faults(mesh, 4, rng)
    schedule = ChaosSchedule.random(mesh, rng, events=6, forbidden=set(faults))
    plan = ChannelFaultPlan(drop=0.03, duplicate=0.02, seed=4)
    # A first run leaves the one-off garbage of lazy imports and caches.
    verify_convergence(mesh, faults, plan, schedule, seed=2, observatory=Observatory())
    plan.reset()
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report = verify_convergence(
            mesh, faults, plan, schedule, seed=2, observatory=Observatory()
        )
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert report.ok, report.summary()
    assert not any(isinstance(obj, DynamicNode) for obj in garbage)
    assert len(garbage) < 50


@pytest.mark.chaos
def test_finished_formation_runs_leave_no_process_garbage():
    """``run_block_formation`` and ``run_safety_propagation`` close their
    network after reading the result, so no formation process is left
    for the cyclic collector."""
    mesh = Mesh2D(24, 24)
    faults = uniform_faults(mesh, 14, np.random.default_rng(3))

    def form():
        run_safety_propagation(mesh, run_block_formation(mesh, faults).unusable)

    form()  # one-off garbage of lazy imports and caches
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        form()
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    processes = (BlockFormationProcess, SafetyFormationProcess)
    assert not any(isinstance(obj, processes) for obj in garbage)
    assert len(garbage) < 50


class _Receiver(ResilientProcess):
    """A hardened process that records what its protocol logic sees."""

    def __init__(self, coord, network):
        super().__init__(coord, network, hardened=True)
        self.handled: list = []

    def handle_message(self, message: Message) -> None:
        self.handled.append((message.arrival_direction, message.payload))


def test_close_drops_processes_and_events_but_keeps_accounting():
    network = MeshNetwork(Mesh2D(3, 1), Engine(), _Receiver)
    network.send_from((0, 0), EAST, "ping", None)
    network.close()
    assert network.nodes == {} and network.engine.pending == 0
    assert network.messages_carried_total == 1
    assert network.channel_carried[0, 0, EAST.index] == 1


@pytest.mark.chaos
def test_dedup_accepts_suppresses_and_reacks_per_epoch():
    """Within an epoch a duplicate is suppressed but re-acked; a revive's
    epoch bump lets the revived neighbour reuse its ``(direction, seq)``;
    an envelope of a stale epoch is discarded without an ack."""
    network = MeshNetwork(Mesh2D(3, 1), Engine(), _Receiver)
    receiver = network.nodes[(1, 0)]

    def deliver(src, arrival, epoch, seq, payload):
        receiver.on_message(Message(
            src, (1, 0), "data", Envelope(epoch, seq, payload), arrival,
        ))

    def acks(direction):
        return int(network.channel_carried[1, 0, direction.index])

    deliver((0, 0), WEST, 0, 1, "a")
    assert receiver.handled == [(WEST, "a")] and acks(WEST) == 1
    deliver((0, 0), WEST, 0, 1, "a")  # duplicate: re-acked, not handled
    assert receiver.handled == [(WEST, "a")] and acks(WEST) == 2
    deliver((2, 0), EAST, 0, 1, "b")  # same seq, other direction
    assert receiver.handled[-1] == (EAST, "b") and acks(EAST) == 1

    # Crash and revive the west neighbour as ChaosRunner does: the epoch
    # bump fences off the old incarnation's traffic.
    network.fail_node((0, 0))
    network.chaos_epoch += 1
    network.restore_node((0, 0), _Receiver)
    deliver((0, 0), WEST, 1, 1, "c")  # reused (direction, seq), new epoch
    assert receiver.handled[-1] == (WEST, "c") and acks(WEST) == 3
    deliver((0, 0), WEST, 1, 1, "c")
    assert len(receiver.handled) == 3 and acks(WEST) == 4

    deliver((0, 0), WEST, 0, 2, "d")  # stale epoch: no ack, not handled
    assert len(receiver.handled) == 3 and acks(WEST) == 4


class _Sink(NodeProcess):
    def on_message(self, message: Message) -> None:
        pass


def test_channel_arrays_show_the_send_path():
    """The ``channel_*`` arrays are the link state the send path writes,
    not copies of it."""
    mesh = Mesh2D(3, 2)
    network = MeshNetwork(mesh, Engine(), _Sink, chaos=ChannelFaultPlan(drop=1.0))
    e = EAST.index
    assert network.channel_up.sum() == network.channels_up_total
    network.send_from((0, 0), EAST, "ping", None)
    assert network.channel_carried[0, 0, e] == 1
    assert network.channel_lost[0, 0, e] == 1
    network.take_down_channel((0, 0), EAST)
    assert not network.channel_up[0, 0, e]
    assert network.channel_up.sum() == network.channels_up_total
    network.send_from((0, 0), EAST, "ping", None)
    assert network.channel_dropped[0, 0, e] == 1
    network.bring_up_channel((0, 0), EAST)
    assert network.channel_up[0, 0, e]
    assert network.channel_up.sum() == network.channels_up_total
    network.note_retry((1, 1), WEST)
    assert network.channel_retried[1, 1, WEST.index] == 1
    assert network.channel_carried.sum() == network.messages_carried_total
