"""Hop-by-hop trace of Wu's protocol around a faulty block.

Constructs the paper's Figure 3 situation: a destination in the critical
region R6 of a block (East of it, inside its row band), so a packet from
the South-West must stay on the block's L1 boundary line.  The trace prints,
at every hop, the node's boundary tags and which preferred direction the
stay-on rule forbids -- then contrasts the same situation for a destination
above the block, where the node is non-critical.

Run:  python examples/routing_trace.py
"""

from repro import Mesh2D, WuRouter, build_faulty_blocks, compute_safety_levels, is_safe
from repro.core.boundaries import BoundaryMap
from repro.viz import render_mesh


def trace(router: WuRouter, canonical, source, dest) -> None:
    print(f"\nrouting {source} -> {dest}:")
    path = router.route(source, dest)
    for node in path.nodes[:-1]:
        tags = canonical.tags_at(node)
        forbidden = canonical.forbidden_directions(node, dest)
        notes = []
        if tags:
            lines = ", ".join(
                f"{t.line.value}(block {t.block_index})" for t in tags
            )
            notes.append(f"on {lines}")
        if forbidden:
            notes.append(f"detour direction forbidden: "
                         f"{', '.join(d.name for d in forbidden)}")
        print(f"  {node}" + (f"  [{'; '.join(notes)}]" if notes else ""))
    print(f"  {path.dest}  [delivered, {path.hops} hops, "
          f"{'minimal' if path.is_minimal else 'NOT minimal'}]")


def main() -> None:
    mesh = Mesh2D(16, 16)
    faults = [(6, 6), (7, 7), (8, 8)]  # diagonal run -> block [6:8, 6:8]
    blocks = build_faulty_blocks(mesh, faults)
    levels = compute_safety_levels(mesh, blocks.unusable)
    boundaries = BoundaryMap.for_blocks(blocks)  # traced once, shared
    router = WuRouter(mesh, blocks, boundary_map=boundaries)
    canonical = boundaries.canonical(False, False)

    print("block:", blocks.blocks[0])
    print(render_mesh(mesh, faulty=blocks.faulty, blocked=blocks.unusable,
                      source=(1, 1)))

    source = (1, 1)
    r6_dest = (13, 7)   # East of the block, inside its row band
    r4_dest = (7, 13)   # North of the block, inside its column band
    free_dest = (13, 13)  # beyond the block entirely

    for dest in (r6_dest, r4_dest, free_dest):
        assert is_safe(levels, source, dest)
        trace(router, canonical, source, dest)


if __name__ == "__main__":
    main()
