"""Oracle cross-check: every served answer -- fresh, stale, or degraded
-- must be *correct for the generation it claims*.

The serving layer's robustness story is that it never returns a silently
wrong answer: under pressure it may answer from an old snapshot or from
the block model instead of the MCC model, but the answer always names
the generation and model it used.  This suite holds it to that claim.
Fault history is recorded per generation while a pipeline serves queries
across chaos churn (every pipeline answer is fresh, since ingestion
publishes), and while the library path answers from a snapshot held
back on purpose, so answers also span stale generations; afterwards
every answer is re-derived from scratch
at its claimed generation and checked against *independent* oracles --
the scalar reference :func:`repro.core.conditions.is_safe` for
Definition 3 and :func:`repro.faults.coverage.batch_minimal_path_exists`
for minimal-path existence -- plus the paper's decision cascade re-run
on that from-scratch state.  The reference state is built by the batch
builders (:func:`build_faulty_blocks`, :func:`build_mccs`,
:func:`compute_safety_levels`), never by the incremental engine the
served snapshots copy.
"""

import asyncio

import numpy as np
import pytest

from repro.core.conditions import DecisionKind, is_safe
from repro.core.extensions import decision_cascade
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.coverage import batch_minimal_path_exists
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.topology import Mesh2D
from repro.serve import QueryPipeline, RoutingService
from repro.serve import pipeline as pipeline_module

SIDE = 12
QUERIES_PER_PHASE = 12
STRATEGIES = {
    DecisionKind.SOURCE_SAFE: "definition3",
    DecisionKind.PREFERRED_NEIGHBOR_SAFE: "extension1",
    DecisionKind.AXIS_NODE_SAFE: "extension2",
    DecisionKind.PIVOT_SAFE: "extension3",
    DecisionKind.SPARE_NEIGHBOR_SAFE: "extension1-sub-minimal",
}


def _serve_history(seed):
    """Serve queries across chaos churn; return the mesh, the fault set of
    every generation, and every answer."""
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
        # The heartbeat idles, so the forced-open breaker stays open.
        pipeline = QueryPipeline(service, max_staleness=None)
        await pipeline.start()
        answers = []
        cursor = 0

        async def phase(pipelined):
            nonlocal cursor
            for _ in range(QUERIES_PER_PHASE):
                x0, y0, x1, y1 = pairs[cursor]
                source, dest = (int(x0), int(y0)), (int(x1), int(y1))
                model = "mcc" if models[cursor] else "block"
                cursor += 1
                if not pipelined:
                    answers.append(service.answer(
                        source, dest, model=model, max_staleness=None,
                    ))
                    continue
                result = await pipeline.submit(source, dest, model=model)
                assert result.ok, result
                assert result.answer.staleness == 0
                answers.append(result.answer)

        def churn(apply, count):
            for _ in range(count):
                apply("crash", victims.pop())
                gen_to_faults[service.generation] = frozenset(
                    service.engine.faults
                )

        try:
            await phase(True)                   # fresh: generation 0
            churn(service.engine.apply, 3)      # applied, not published
            await phase(False)                  # stale by 3 generations
            service.refresh()
            await phase(True)                   # fresh again: generation 3
            churn(pipeline.ingest_fault, 2)     # published at ingest
            pipeline.breaker.open = True        # forced degraded tier
            await phase(True)
        finally:
            await pipeline.drain()
        return answers

    answers = asyncio.run(scenario())
    return mesh, gen_to_faults, answers


def _fault_grid(mesh, faults):
    grid = np.zeros((mesh.n, mesh.m), dtype=bool)
    for fault in faults:
        grid[fault] = True
    return grid


def _oracle_state(mesh, faults, model_used):
    """From-scratch blocked grid + safety levels for one generation, built
    without the incremental engine that the served state comes from."""
    if model_used == "mcc":
        blocked = build_mccs(mesh, faults, MCCType.TYPE_ONE).blocked
    else:
        blocked = build_faulty_blocks(mesh, faults).unusable
    return blocked, compute_safety_levels(mesh, blocked)


@pytest.mark.parametrize("seed", [11, 23, 47])
def test_served_answers_match_the_oracles_at_their_claimed_generation(
    seed, monkeypatch,
):
    monkeypatch.setattr(pipeline_module, "HEARTBEAT_S", 3600.0)
    mesh, gen_to_faults, answers = _serve_history(seed)
    assert len(answers) == QUERIES_PER_PHASE * 4
    staleness_seen = set()
    degraded_seen = 0
    for answer in answers:
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

        # The cascade re-run on the from-scratch state.
        expected = next((
            decision for _, decision in decision_cascade(
                mesh, levels, blocked, answer.source, answer.dest
            ) if decision.kind is not DecisionKind.UNSAFE
        ), None)
        if expected is None:
            assert (answer.verdict, answer.strategy) == ("unsafe", "none")
            assert not answer.routable and not answer.minimal
        else:
            assert answer.verdict == expected.kind.value
            assert answer.strategy == STRATEGIES[expected.kind]
            assert answer.routable == expected.ensures_sub_minimal
            assert answer.minimal == expected.ensures_minimal
            assert answer.via == expected.via

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
