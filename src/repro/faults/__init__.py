"""Fault models for 2-D meshes.

Three cooperating modules:

- :mod:`repro.faults.injection` -- random fault workload generators (the
  paper's "randomly generated faults" with the source/destination-outside-
  blocks constraint).
- :mod:`repro.faults.blocks` -- the **faulty block** model (paper Def. 1):
  iterative disabling of nodes with faulty/disabled neighbours in both
  dimensions, converging to disjoint rectangular blocks.
- :mod:`repro.faults.mcc` -- Wang's **minimal-connected-component** model
  (paper Def. 2): quadrant-aware *useless* / *can't-reach* labelling giving
  rectilinear-monotone polygonal blocks that disable fewer healthy nodes.
- :mod:`repro.faults.coverage` -- the optimal baseline: Wang's necessary and
  sufficient condition for the existence of a minimal path (coverage
  sequences), plus an exact monotone-path dynamic program used as ground
  truth throughout the test-suite.
- :mod:`repro.faults.incremental` -- O(affected) delta maintenance of
  blocks, MCCs, and ESLs under live fault arrival/revival, with
  generation-tagged cache invalidation.
"""

from repro.faults.blocks import BlockSet, FaultyBlock, build_faulty_blocks
from repro.faults.mcc import MCCComponent, MCCSet, MCCType, NodeStatus, build_mccs
from repro.faults.coverage import (
    minimal_path_exists,
    minimal_path_exists_wang,
    covering_sequence_on_x,
    covering_sequence_on_y,
)
from repro.faults.incremental import (
    IncrementalFaultEngine,
    IncrementalMCCState,
    UpdateReport,
)
from repro.faults.injection import (
    FaultScenario,
    clustered_faults,
    generate_scenario,
    injection_events,
    injection_sequence,
    uniform_faults,
)

__all__ = [
    "BlockSet",
    "FaultScenario",
    "FaultyBlock",
    "IncrementalFaultEngine",
    "IncrementalMCCState",
    "MCCComponent",
    "MCCSet",
    "MCCType",
    "NodeStatus",
    "UpdateReport",
    "build_faulty_blocks",
    "build_mccs",
    "clustered_faults",
    "covering_sequence_on_x",
    "covering_sequence_on_y",
    "generate_scenario",
    "injection_events",
    "injection_sequence",
    "minimal_path_exists",
    "minimal_path_exists_wang",
    "uniform_faults",
]
