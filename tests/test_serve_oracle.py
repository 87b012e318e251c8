"""Oracle cross-check: every served answer -- fresh, stale, or degraded
-- must be *correct for the generation it claims*.

The serving layer's robustness story is that it never returns a silently
wrong answer: under pressure it may answer from an old snapshot or from
the block model instead of the MCC model, but the answer always names
the generation and model it used.  This suite holds it to that claim.
Fault history is recorded per generation while a pipeline serves queries
across chaos churn (refreshes deliberately withheld so answers span many
stale generations); afterwards every answer is re-derived from scratch
at its claimed generation and checked against *independent* oracles --
the scalar reference :func:`repro.core.conditions.is_safe` for
Definition 3 and :func:`repro.faults.coverage.batch_minimal_path_exists`
for minimal-path existence -- plus a from-scratch run of the same
decision cascade.
"""

import asyncio

import numpy as np
import pytest

from repro.core.conditions import is_safe
from repro.core.safety import compute_safety_levels
from repro.faults.coverage import batch_minimal_path_exists
from repro.faults.incremental import IncrementalFaultEngine
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType
from repro.mesh.topology import Mesh2D
from repro.serve import QueryPipeline, RoutingService

SIDE = 12
QUERIES_PER_PHASE = 12


def _serve_history(seed):
    """Serve queries across chaos churn; return every (result, claimed
    fault set) pair plus the mesh."""
    mesh = Mesh2D(SIDE, SIDE)
    rng = np.random.default_rng(seed)
    initial = uniform_faults(mesh, 6, rng, forbidden={mesh.center})
    service = RoutingService(mesh, initial)
    gen_to_faults = {0: frozenset(service.engine.faults)}

    # Chaos victims: usable nodes not in the initial pattern, so every
    # crash applies cleanly and the recorded history stays exact.
    victims = [
        (x, y) for x in range(SIDE) for y in range(SIDE)
        if not service.engine.unusable[x, y]
    ]
    rng.shuffle(victims)
    pairs = rng.integers(0, SIDE, size=(QUERIES_PER_PHASE * 4, 4))
    models = rng.random(QUERIES_PER_PHASE * 4) < 0.4

    async def scenario():
        # Refresher and heartbeat idle: the test drives refresh cadence
        # by hand so answers deterministically span stale generations.
        pipeline = QueryPipeline(
            service, max_staleness=None,
            refresh_delay_s=3600.0, heartbeat_s=3600.0,
        )
        await pipeline.start()
        results = []
        cursor = 0

        async def phase():
            nonlocal cursor
            for _ in range(QUERIES_PER_PHASE):
                x0, y0, x1, y1 = pairs[cursor]
                model = "mcc" if models[cursor] else "block"
                cursor += 1
                results.append(await pipeline.submit(
                    (int(x0), int(y0)), (int(x1), int(y1)), model=model,
                ))

        def churn(count):
            for _ in range(count):
                pipeline.ingest_fault("crash", victims.pop())
                gen_to_faults[service.generation] = frozenset(
                    service.engine.faults
                )

        try:
            await phase()                       # fresh: generation 0
            churn(3)
            await phase()                       # stale by 3 generations
            service.refresh()
            await phase()                       # fresh again: generation 3
            churn(2)
            service.refresh(include_mcc=False)  # degraded snapshot
            pipeline.breaker.open = True        # ... and a forced tier
            await phase()
        finally:
            await pipeline.drain()
        return results

    results = asyncio.run(scenario())
    return mesh, gen_to_faults, results


def _fault_grid(mesh, faults):
    grid = np.zeros((mesh.n, mesh.m), dtype=bool)
    for fault in faults:
        grid[fault] = True
    return grid


def _oracle_state(mesh, faults, model_used):
    """From-scratch blocked grid + safety levels for one generation."""
    engine = IncrementalFaultEngine(
        mesh, faults,
        mcc_types=(MCCType.TYPE_ONE,) if model_used == "mcc" else (),
    )
    if model_used == "mcc":
        blocked = engine.mcc_set(MCCType.TYPE_ONE).blocked
        return blocked, compute_safety_levels(mesh, blocked)
    return engine.unusable, engine.levels


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_served_answers_match_the_oracles_at_their_claimed_generation(seed):
    mesh, gen_to_faults, results = _serve_history(seed)
    assert len(results) == QUERIES_PER_PHASE * 4
    staleness_seen = set()
    degraded_seen = 0
    for result in results:
        assert result.ok, result
        answer = result.answer
        staleness_seen.add(answer.staleness)
        degraded_seen += answer.degraded
        faults = gen_to_faults[answer.generation]
        blocked, levels = _oracle_state(mesh, faults, answer.model_used)
        dest = np.array([answer.dest])

        if blocked[answer.source] or blocked[answer.dest]:
            assert answer.verdict == "blocked-endpoint"
            assert not answer.routable and answer.path is None
            continue
        assert answer.verdict != "blocked-endpoint"

        # Definition 3 against the scalar reference.
        assert (answer.verdict == "source-safe") == is_safe(
            levels, answer.source, answer.dest
        )

        # A minimal-routable verdict must be realizable per the
        # reachability-DP oracle (the safe conditions are sufficient),
        # both over the answering model's blocked grid and over the raw
        # faults alone.
        if answer.routable and answer.minimal:
            assert bool(
                batch_minimal_path_exists(blocked, answer.source, dest)[0]
            )
            assert bool(
                batch_minimal_path_exists(
                    _fault_grid(mesh, faults), answer.source, dest
                )[0]
            )

        # The cascade re-run from scratch at the claimed generation.
        oracle = RoutingService(
            mesh, faults, mcc_model=(answer.model_used == "mcc"),
        )
        expected = oracle.answer(
            answer.source, answer.dest, model=answer.model_used,
            want_path=False,
        )
        assert answer.verdict == expected.verdict
        assert answer.strategy == expected.strategy
        assert answer.routable == expected.routable
        assert answer.minimal == expected.minimal

        # Witness integrity: a hop-by-hop minimal path over the claimed
        # generation's usable nodes.
        if answer.path is not None:
            assert answer.path[0] == answer.source
            assert answer.path[-1] == answer.dest
            assert not any(blocked[node] for node in answer.path)
            for (x0, y0), (x1, y1) in zip(answer.path, answer.path[1:]):
                assert abs(x0 - x1) + abs(y0 - y1) == 1
            if answer.minimal:
                assert len(answer.path) == answer.distance + 1

    # The history must actually have exercised the degraded tiers --
    # otherwise this test silently stops covering them.
    assert 0 in staleness_seen
    assert max(staleness_seen) >= 3
    assert degraded_seen > 0


def test_mcc_queries_in_quadrants_ii_and_iv_answer_from_the_block_model():
    """Type-one MCCs only fit quadrant I/III routing.  This pair once got
    a minimal ``axis-node-safe`` MCC answer although the raw faults leave
    no minimal path."""
    mesh = Mesh2D(64, 64)
    faults = uniform_faults(mesh, 120, np.random.default_rng(6))
    service = RoutingService(mesh, faults)
    raw = _fault_grid(mesh, faults)
    source, dest = (43, 57), (63, 11)
    assert not batch_minimal_path_exists(raw, source, np.array([dest]))[0]

    answer = service.answer(source, dest, model="mcc")
    assert answer.model_used == "block"
    assert not answer.degraded
    assert not answer.minimal
    block = service.answer(source, dest, model="block")
    assert (answer.verdict, answer.strategy) == (block.verdict, block.strategy)

    # Quadrant I/III MCC queries still use the MCC snapshot, and the
    # mirrored quadrant II query is also rerouted.
    assert service.answer(dest, source, model="mcc").model_used == "block"
    assert service.answer((10, 10), (20, 20), model="mcc").model_used == "mcc"
    assert service.answer((20, 20), (10, 10), model="mcc").model_used == "mcc"
