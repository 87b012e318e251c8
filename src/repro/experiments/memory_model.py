"""Information-model memory accounting (the paper's scalability argument).

The introduction argues that coded fault information "reduces the memory
requirement [7] to store fault information at each node" compared with
models that hold detailed global state.  This module quantifies that claim
for one scenario by counting, per information model, the **words of state
per node** (one word = one coordinate/level/id):

- **routing table**: the global-information strawman -- every node stores a
  next-hop per destination: ``n*m - 1`` words each.
- **global fault map**: every node stores all block corners: ``4 * B``.
- **extended safety level**: 4 words, plus the boundary tags actually
  present at the node (block id + 4 corners + direction per tag), plus
  whatever extension information the configuration distributes (segment
  samples for Extension 2, pivot ESLs for Extension 3).

Used by the info-cost ablation and the examples; a
:class:`MemoryReport` prints as the comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.boundaries import BoundaryMap
from repro.faults.blocks import BlockSet
from repro.mesh.topology import Mesh2D

#: Extension 2's segment length: one representative per this many nodes.
SEGMENT_SIZE = 5
#: Extension 3's pivot count (the paper's strategy 2: three partition levels).
PIVOT_COUNT = 21


@dataclass(frozen=True)
class MemoryReport:
    """Per-node state (in words) for each information model."""

    mesh: Mesh2D
    routing_table_per_node: int
    global_map_per_node: int
    esl_per_node: float  # 4 + average boundary-tag words
    esl_max_node: int
    extension2_words_per_affected_node: float
    extension3_words_per_node: int

    def to_table(self) -> str:
        rows = [
            ("routing table (global)", f"{self.routing_table_per_node}"),
            ("global fault map", f"{self.global_map_per_node}"),
            ("ESL + boundary tags (avg)", f"{self.esl_per_node:.2f}"),
            ("ESL + boundary tags (max node)", f"{self.esl_max_node}"),
            ("+ Extension 2 (avg affected node)", f"{self.extension2_words_per_affected_node:.2f}"),
            ("+ Extension 3 (pivot table)", f"{self.extension3_words_per_node}"),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{'information model':<{width}}  words/node"]
        for name, value in rows:
            lines.append(f"{name:<{width}}  {value:>10}")
        return "\n".join(lines)


def measure_memory(blocks: BlockSet) -> MemoryReport:
    """Account the per-node state of every information model for a scenario."""
    mesh = blocks.mesh
    boundary = BoundaryMap.for_blocks(blocks)
    canonical = boundary.canonical(False, False)

    # Words per boundary tag: block id + 4 corner coordinates + direction.
    tag_words = 6
    tag_totals = [tag_words * len(tags) for tags in canonical.annotations.values()]
    nodes = mesh.size
    esl_avg = 4 + (sum(tag_totals) / nodes if nodes else 0.0)
    esl_max = 4 + (max(tag_totals) if tag_totals else 0)

    # Extension 2: affected rows/columns hold one (offset, level) pair per
    # segment representative; region length ~ mesh side, so words per
    # affected node ~ 2 * ceil(side / segment size) per axis.
    import math

    side = max(mesh.n, mesh.m)
    reps = math.ceil(side / SEGMENT_SIZE)
    extension2 = 2.0 * reps * 2  # two axes

    # Extension 3: every node stores each pivot's coordinates + 4 levels.
    extension3 = PIVOT_COUNT * 6

    return MemoryReport(
        mesh=mesh,
        routing_table_per_node=nodes - 1,
        global_map_per_node=4 * len(blocks),
        esl_per_node=esl_avg,
        esl_max_node=esl_max,
        extension2_words_per_affected_node=extension2,
        extension3_words_per_node=extension3,
    )
