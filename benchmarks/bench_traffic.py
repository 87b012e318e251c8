"""Traffic bench: what minimal routing buys under load.

Not a paper figure -- the paper measures decision percentages, not network
latency -- but the motivation it opens with ("routing time of packets is one
of the key factors") deserves numbers.  This bench drives the same random
workload through three policies on a faulty mesh and reports delivery,
latency, and path stretch:

- Wu's protocol on the safe-condition traffic (minimal, guaranteed);
- the greedy adaptive strawman (minimal when it survives, drops otherwise);
- the XY-with-detours baseline (delivers broadly, pays stretch).
"""

import numpy as np

from repro.core.conditions import is_safe
from repro.core.routing import WuRouter
from repro.core.safety import compute_safety_levels
from repro.experiments import ExperimentConfig
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.routing.detour import DetourRouter
from repro.routing.router import GreedyAdaptiveRouter
from repro.simulator.traffic import PathPolicy, run_workload, uniform_traffic

from conftest import OUT_DIR


def _setup(side: int, fault_count: int, seed: int):
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(seed)
    while True:
        faults = uniform_faults(mesh, fault_count, rng)
        blocks = build_faulty_blocks(mesh, faults)
        edge_free = not any(
            b.rect.xmin == 0 or b.rect.ymin == 0
            or b.rect.xmax == side - 1 or b.rect.ymax == side - 1
            for b in blocks
        )
        if edge_free:  # keep the detour baseline comparable
            return mesh, blocks, rng


def test_traffic_policies(benchmark, capsys):
    full = ExperimentConfig.from_environment().mesh_side == 200
    side = 64 if full else 32
    fault_count = round(200 * (side / 200) ** 2)
    mesh, blocks, rng = _setup(side, fault_count, seed=23)
    levels = compute_safety_levels(mesh, blocks.unusable)

    traffic = uniform_traffic(mesh, blocks.unusable, 600 if full else 200, rng, 40)
    safe_traffic = [(s, d, t) for (s, d, t) in traffic if is_safe(levels, s, d)]

    def run_all():
        wu = run_workload(mesh, WuRouter(mesh, blocks), safe_traffic)
        greedy = run_workload(mesh, GreedyAdaptiveRouter(mesh, blocks.unusable), traffic)
        detour = run_workload(mesh, PathPolicy(route=DetourRouter(mesh, blocks).route), traffic)
        return wu, greedy, detour

    wu, greedy, detour = benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        f"mesh {side}x{side}, {fault_count} faults, "
        f"{len(traffic)} packets ({len(safe_traffic)} safe-condition pairs)",
        f"{'policy':<22} {'delivered':>10} {'latency':>8} {'stretch':>8}",
        f"{'wu (safe pairs)':<22} {wu.delivery_rate:>10.3f} {wu.average_latency:>8.2f} {wu.average_stretch:>8.3f}",
        f"{'greedy adaptive':<22} {greedy.delivery_rate:>10.3f} {greedy.average_latency:>8.2f} {greedy.average_stretch:>8.3f}",
        f"{'xy + detours':<22} {detour.delivery_rate:>10.3f} {detour.average_latency:>8.2f} {detour.average_stretch:>8.3f}",
    ]
    report = "\n".join(lines)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "traffic.txt").write_text(report + "\n")
    with capsys.disabled():
        print("\n" + report)

    # Shape claims: Wu delivers all safe traffic minimally; the detour
    # baseline delivers everything but pays stretch; greedy sits in between.
    assert wu.delivery_rate == 1.0
    assert wu.average_stretch == 1.0
    assert detour.delivery_rate == 1.0
    assert detour.average_stretch >= 1.0
    assert greedy.delivery_rate <= 1.0
    benchmark.extra_info["detour_stretch"] = detour.average_stretch
    benchmark.extra_info["greedy_delivery"] = greedy.delivery_rate
