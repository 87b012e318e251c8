"""Discrete-event message-passing simulator.

The paper's information models are *distributed*: fault-block labelling,
boundary-line distribution, and extended-safety-level formation all run as
local protocols where each node only talks to its four neighbours.  This
package provides the substrate to execute them as such:

- :mod:`repro.simulator.engine` -- a discrete-event engine (a
  tick-bucketed, time-ordered callback queue).
- :mod:`repro.simulator.messages` -- messages exchanged between nodes.
- :mod:`repro.simulator.channels` -- lazy per-link views over the
  network's flat link state (up flag, counters).
- :mod:`repro.simulator.process` -- the per-node process abstraction.
- :mod:`repro.simulator.network` -- a mesh of node processes wired by
  channels.
- :mod:`repro.simulator.protocols` -- the paper's protocols, each validated
  against its centralized counterpart in the test-suite:

  ==========================  =================================================
  protocol                    centralized counterpart
  ==========================  =================================================
  ``block_formation``         :func:`repro.faults.blocks.build_faulty_blocks`
  ``mcc_formation``           :func:`repro.faults.mcc.build_mccs`
  ``safety_propagation``      :func:`repro.core.safety.compute_safety_levels`
  ``boundary_distribution``   :class:`repro.core.boundaries.CanonicalBoundaryMap`
  ``region_exchange``         :func:`repro.core.segments.build_axis_segments`
  ``pivot_broadcast``         (pivot ESL table lookup)
  ==========================  =================================================

Block formation, safety propagation and the live
:class:`~repro.simulator.protocols.dynamic_update.DynamicNode` run one node
program, :class:`~repro.simulator.protocols.local_rules.LocalRules`: the
paper's Definition 1 and FORMATION rules, one restart, and one read-out of
a network (``live_unusable_grid`` / ``live_safety_levels``), each kept
once.  What a node senses locally -- the directions of its faulty
neighbours -- is the network's ``faulty_dirs`` map.

Each ``run_*`` entry point returns the protocol result plus a
:class:`~repro.simulator.network.NetworkStats` with message and convergence
accounting -- the raw material for the cost-versus-effectiveness ablation
bench (the paper's stated future work).  All of them drain through
:func:`~repro.simulator.protocols.reliable.drain_protocol`.
"""

from repro.simulator.engine import Engine
from repro.simulator.messages import Message
from repro.simulator.network import MeshNetwork, NetworkStats
from repro.simulator.process import NodeProcess

__all__ = ["Engine", "Message", "MeshNetwork", "NetworkStats", "NodeProcess"]
