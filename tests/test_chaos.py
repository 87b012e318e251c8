"""Chaos engineering: unreliable channels, crash/revive, re-convergence.

Three layers of guarantees:

- **determinism**: a :class:`ChannelFaultPlan` is a pure function of its
  seed, and the per-send verdict stream does not depend on the verdicts
  themselves;
- **bit-identical defaults**: with no (or an inactive) plan, every
  protocol run produces exactly the state and stats it produced before
  the chaos layer existed;
- **convergence**: with active loss/duplication/corruption and mid-run
  crash/revive schedules, the hardened protocols plus stabilization
  pulses land on exactly the state the batch oracles compute for the
  final fault set.
"""

import os
import pathlib

import numpy as np
import pytest

from repro.chaos import (
    ChannelFaultPlan,
    ChaosEvent,
    ChaosRunner,
    ChaosSchedule,
    verify_convergence,
)
from repro.chaos.plan import _BLOCK
from repro.core.safety import compute_safety_levels
from repro.faults.blocks import build_faulty_blocks
from repro.faults.injection import uniform_faults
from repro.mesh.geometry import Direction
from repro.mesh.topology import Mesh2D
from repro.simulator.engine import Engine
from repro.simulator.network import MeshNetwork
from repro.simulator.protocols import (
    run_block_formation,
    run_safety_propagation,
    run_boundary_distribution,
)
from repro.obs import FlightRecorder
from repro.obs.recorder import index_path_for
from repro.simulator.protocols.dynamic_update import DynamicMesh
from repro.simulator.protocols.reliable import ResilientProcess


def _gate_recorder(name: str) -> FlightRecorder | None:
    """Flight-record a gate run when ``REPRO_CHAOS_ARTIFACTS`` names a
    directory (CI sets it so a red gate ships the evidence)."""
    root = os.environ.get("REPRO_CHAOS_ARTIFACTS")
    if not root:
        return None
    outdir = pathlib.Path(root)
    outdir.mkdir(parents=True, exist_ok=True)
    return FlightRecorder(outdir / f"{name}.jsonl")


def _finish_gate_artifacts(recorder: FlightRecorder | None, report) -> None:
    """Close the recording; keep the log (plus the replay/bisection
    verdict) only for failing runs, so the artifact directory holds
    exactly the failures worth downloading."""
    if recorder is None:
        return
    recorder.close()
    if report.ok:
        recorder.path.unlink(missing_ok=True)
        index_path_for(recorder.path).unlink(missing_ok=True)
        return
    text = report.summary() + "\n"
    if report.bisection is not None:
        text += report.bisection.render() + "\n"
    verdict = recorder.path.with_name(recorder.path.name + ".bisection.txt")
    verdict.write_text(text, encoding="utf-8")


class TestChannelFaultPlan:
    def test_inactive_by_default(self):
        plan = ChannelFaultPlan()
        assert not plan.active
        assert plan.draw() == (False, False, False, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelFaultPlan(drop=1.5)
        with pytest.raises(ValueError):
            ChannelFaultPlan(duplicate=-0.1)
        with pytest.raises(ValueError):
            ChannelFaultPlan(jitter=-1)

    def test_seed_determinism(self):
        a = ChannelFaultPlan(drop=0.3, duplicate=0.2, corrupt=0.1, jitter=3, seed=42)
        b = ChannelFaultPlan(drop=0.3, duplicate=0.2, corrupt=0.1, jitter=3, seed=42)
        assert [a.draw() for _ in range(200)] == [b.draw() for _ in range(200)]

    def test_reset_rewinds_the_stream(self):
        plan = ChannelFaultPlan(drop=0.5, seed=9)
        first = [plan.draw() for _ in range(50)]
        plan.reset()
        assert [plan.draw() for _ in range(50)] == first

    def test_verdict_stream_is_position_invariant(self):
        """Draw k consumes the same entropy whatever draws 1..k-1 said,
        so two plans differing only in probabilities stay aligned."""
        loose = ChannelFaultPlan(drop=0.9, duplicate=0.9, corrupt=0.9, seed=7)
        tight = ChannelFaultPlan(drop=0.0, duplicate=0.0, corrupt=0.0, jitter=0, seed=7)
        tight_probs = ChannelFaultPlan(drop=1e-12, seed=7)  # active, never fires
        for _ in range(100):
            loose.draw()
            tight.draw()
            tight_probs.draw()
        # After the same number of draws the underlying bit generators agree.
        assert (
            loose._rng.bit_generator.state["state"]
            == tight_probs._rng.bit_generator.state["state"]
        )

    @pytest.mark.parametrize("jitter", [0, 2])
    def test_verdicts_equal_one_random3_per_message(self, jitter):
        """Without jitter the plan draws its uniforms a block at a time;
        the verdicts must equal one ``random(3)`` per message (plus one
        ``integers`` draw with jitter) across a block boundary and after
        a ``reset()`` that discards a partly used block."""
        plan = ChannelFaultPlan(drop=0.3, duplicate=0.2, corrupt=0.1, jitter=jitter, seed=13)

        def reference(count):
            rng = np.random.default_rng(13)
            out = []
            for _ in range(count):
                u = rng.random(3)
                extra = int(rng.integers(0, jitter + 1)) if jitter else 0
                out.append((bool(u[0] < 0.3), bool(u[1] < 0.2), bool(u[2] < 0.1), extra))
            return out

        count = 2 * (_BLOCK // 3) + 7  # two block refills and a partial block
        drawn = [plan.draw() for _ in range(count)]
        assert drawn == reference(count)
        assert all(type(flag) is bool for verdict in drawn for flag in verdict[:3])
        plan.reset()
        assert [plan.draw() for _ in range(50)] == reference(50)


class TestChaosSchedule:
    def test_events_sorted_stably(self):
        events = [
            ChaosEvent(5.0, "crash", (1, 1)),
            ChaosEvent(2.0, "crash", (2, 2)),
            ChaosEvent(5.0, "revive", (1, 1)),
        ]
        schedule = ChaosSchedule(events)
        assert [e.time for e in schedule] == [2.0, 5.0, 5.0]
        # Equal-time events keep their scripted order.
        assert [e.action for e in schedule][1:] == ["crash", "revive"]
        assert schedule.horizon == 5.0

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ChaosEvent(1.0, "explode", (0, 0))
        with pytest.raises(ValueError):
            ChaosEvent(-1.0, "crash", (0, 0))

    def test_final_faults_replay(self):
        schedule = ChaosSchedule(
            [
                ChaosEvent(1.0, "crash", (1, 1)),
                ChaosEvent(2.0, "crash", (2, 2)),
                ChaosEvent(3.0, "revive", (1, 1)),
            ]
        )
        assert schedule.final_faults(()) == {(2, 2)}
        assert schedule.final_faults([(4, 4)]) == {(2, 2), (4, 4)}

    def test_random_respects_forbidden_and_distinct_victims(self):
        mesh = Mesh2D(8, 8)
        rng = np.random.default_rng(3)
        forbidden = {(x, y) for x in range(4) for y in range(8)}
        schedule = ChaosSchedule.random(mesh, rng, events=10, forbidden=forbidden)
        victims = [e.coord for e in schedule if e.action == "crash"]
        assert len(victims) == len(set(victims))
        assert not set(victims) & forbidden
        for event in schedule:
            assert 1.0 <= event.time

    def test_random_raises_when_region_too_small(self):
        mesh = Mesh2D(3, 3)
        rng = np.random.default_rng(0)
        forbidden = {(x, y) for x in range(3) for y in range(3)}
        with pytest.raises(RuntimeError):
            ChaosSchedule.random(mesh, rng, events=4, forbidden=forbidden)


class TestDefaultPathBitIdentical:
    """chaos=None and an inactive plan must not perturb anything."""

    @pytest.fixture()
    def scenario(self):
        mesh = Mesh2D(16, 16)
        faults = uniform_faults(mesh, 14, np.random.default_rng(11))
        blocks = build_faulty_blocks(mesh, faults)
        return mesh, faults, blocks

    def test_block_formation(self, scenario):
        mesh, faults, _ = scenario
        base = run_block_formation(mesh, faults)
        inert = run_block_formation(mesh, faults, chaos=ChannelFaultPlan())
        assert np.array_equal(base.unusable, inert.unusable)
        assert base.stats == inert.stats

    def test_safety_propagation(self, scenario):
        mesh, _, blocks = scenario
        base = run_safety_propagation(mesh, blocks.unusable)
        inert = run_safety_propagation(mesh, blocks.unusable, chaos=ChannelFaultPlan())
        for grid in ("east", "south", "west", "north"):
            assert np.array_equal(
                getattr(base.levels, grid), getattr(inert.levels, grid)
            )
        assert base.stats == inert.stats

    def test_boundary_distribution(self, scenario):
        mesh, _, blocks = scenario
        base = run_boundary_distribution(mesh, blocks.rects(), blocks.unusable)
        inert = run_boundary_distribution(
            mesh, blocks.rects(), blocks.unusable, chaos=ChannelFaultPlan()
        )
        assert base.annotations == inert.annotations
        assert base.stats == inert.stats

    def test_inactive_plan_does_not_harden(self, scenario):
        mesh, faults, _ = scenario
        result = run_block_formation(mesh, faults, chaos=ChannelFaultPlan())
        assert result.stats.retried == 0
        assert result.stats.lost == 0


class _Idle(ResilientProcess):
    def start(self):
        pass

    def handle_message(self, message):
        pass


class TestHardenedProtocolsUnderLoss:
    """Each protocol, hardened, converges to its oracle despite chaos."""

    @pytest.mark.parametrize("drop", [0.02, 0.08])
    def test_block_formation_converges(self, drop):
        mesh = Mesh2D(16, 16)
        faults = uniform_faults(mesh, 18, np.random.default_rng(5))
        plan = ChannelFaultPlan(drop=drop, duplicate=0.03, corrupt=0.02, seed=1)
        result = run_block_formation(mesh, faults, chaos=plan)
        expected = build_faulty_blocks(mesh, faults).unusable
        assert np.array_equal(result.unusable, expected)
        assert result.stats.lost > 0  # the chaos actually fired

    @pytest.mark.parametrize("drop", [0.02, 0.08])
    def test_safety_propagation_converges(self, drop):
        mesh = Mesh2D(16, 16)
        faults = uniform_faults(mesh, 18, np.random.default_rng(6))
        blocks = build_faulty_blocks(mesh, faults)
        plan = ChannelFaultPlan(drop=drop, duplicate=0.03, jitter=2, seed=2)
        result = run_safety_propagation(mesh, blocks.unusable, chaos=plan)
        oracle = compute_safety_levels(mesh, blocks.unusable)
        free = ~blocks.unusable
        for grid in ("east", "south", "west", "north"):
            got = getattr(result.levels, grid)
            want = getattr(oracle, grid)
            assert np.array_equal(got[free], want[free])

    def test_boundary_distribution_converges(self):
        mesh = Mesh2D(16, 16)
        faults = uniform_faults(mesh, 14, np.random.default_rng(7))
        blocks = build_faulty_blocks(mesh, faults)
        plan = ChannelFaultPlan(drop=0.05, duplicate=0.02, corrupt=0.02, seed=3)
        reliable = run_boundary_distribution(mesh, blocks.rects(), blocks.unusable)
        chaotic = run_boundary_distribution(
            mesh, blocks.rects(), blocks.unusable, chaos=plan
        )
        assert chaotic.annotations == reliable.annotations

    def test_chaos_counters_account_for_traffic(self):
        mesh = Mesh2D(12, 12)
        faults = uniform_faults(mesh, 12, np.random.default_rng(8))
        plan = ChannelFaultPlan(drop=0.1, duplicate=0.1, seed=4)
        stats = run_block_formation(mesh, faults, chaos=plan).stats
        assert stats.lost > 0
        assert stats.duplicated > 0
        assert stats.retried > 0
        assert "chaos" in str(stats)


class TestCrashRevive:
    def test_dynamic_mesh_revive_matches_oracle(self):
        mesh = Mesh2D(12, 12)
        dynamic = DynamicMesh(mesh)
        for fault in [(4, 4), (4, 5), (5, 4), (9, 2)]:
            dynamic.inject_fault(fault)
        dynamic.revive_node((4, 5))
        remaining = [(4, 4), (5, 4), (9, 2)]
        assert sorted(dynamic.faults) == remaining
        oracle_blocks = build_faulty_blocks(mesh, remaining)
        assert np.array_equal(dynamic.unusable_grid(), oracle_blocks.unusable)
        oracle_levels = compute_safety_levels(mesh, oracle_blocks.unusable)
        got = dynamic.safety_levels()
        free = ~oracle_blocks.unusable
        for grid in ("east", "south", "west", "north"):
            assert np.array_equal(
                getattr(got, grid)[free], getattr(oracle_levels, grid)[free]
            )

    def test_revive_requires_prior_injection(self):
        dynamic = DynamicMesh(Mesh2D(6, 6))
        with pytest.raises(ValueError):
            dynamic.revive_node((2, 2))

    def test_crash_only_schedule(self):
        mesh = Mesh2D(10, 10)
        schedule = ChaosSchedule(
            [ChaosEvent(float(t), "crash", (t, t)) for t in range(1, 5)]
        )
        report = verify_convergence(mesh, faults=[(8, 1)], schedule=schedule)
        assert report.ok
        assert set(report.final_faults) == {(8, 1), (1, 1), (2, 2), (3, 3), (4, 4)}

    def test_runner_skips_invalid_events(self):
        mesh = Mesh2D(8, 8)
        schedule = ChaosSchedule(
            [
                ChaosEvent(1.0, "crash", (3, 3)),
                ChaosEvent(2.0, "crash", (3, 3)),   # already down: skipped
                ChaosEvent(3.0, "revive", (5, 5)),  # never crashed: skipped
                ChaosEvent(4.0, "revive", (0, 0)),  # initial fault: skipped
            ]
        )
        runner = ChaosRunner(mesh, faults=[(0, 0)], schedule=schedule)
        outcome = runner.run()
        assert outcome.applied == 1
        assert outcome.skipped == 3
        assert outcome.crashed == ((3, 3),)
        assert set(outcome.final_faults) == {(0, 0), (3, 3)}

    def test_runner_is_single_use(self):
        runner = ChaosRunner(Mesh2D(4, 4))
        runner.run()
        with pytest.raises(RuntimeError):
            runner.run()


class TestConvergenceVerifier:
    def test_quiet_run_converges(self):
        mesh = Mesh2D(10, 10)
        report = verify_convergence(mesh, faults=[(3, 3), (3, 4), (7, 7)])
        assert report.ok
        assert report.pairs_checked > 0
        assert "CONVERGED" in report.summary()

    def test_report_surfaces_mismatch_details(self):
        # Sanity-check the report plumbing rather than the happy path:
        # a fabricated mismatch tuple round-trips through the summary.
        mesh = Mesh2D(6, 6)
        report = verify_convergence(mesh, faults=[(2, 2)])
        assert report.block_mismatches == ()
        assert report.esl_mismatches == ()
        assert report.safety_mismatches == ()

    @pytest.mark.chaos
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("drop", [0.01, 0.05])
    def test_reconverges_under_loss_and_churn(self, seed, drop):
        """The acceptance gate: 10-event schedules, two loss rates, three
        seeds -- ESLs and blocks must re-converge to ground truth."""
        mesh = Mesh2D(14, 14)
        rng = np.random.default_rng(seed)
        faults = uniform_faults(mesh, 10, rng)
        plan = ChannelFaultPlan(
            drop=drop, duplicate=0.02, corrupt=0.02, jitter=1, seed=seed
        )
        schedule = ChaosSchedule.random(
            mesh, rng, events=10, forbidden=set(faults)
        )
        recorder = _gate_recorder(f"gate_seed{seed}_drop{int(drop * 100):02d}pct")
        report = verify_convergence(
            mesh, faults, plan, schedule, seed=seed, recorder=recorder
        )
        _finish_gate_artifacts(recorder, report)
        assert report.ok, report.summary()
        assert report.outcome.stats.lost > 0


class TestGateArtifacts:
    """The CI hook around the chaos gate: record when asked, keep only
    failing evidence."""

    def test_disabled_without_the_env_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_ARTIFACTS", raising=False)
        assert _gate_recorder("probe") is None
        _finish_gate_artifacts(None, None)  # must tolerate the disabled case

    def test_passing_run_leaves_no_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_ARTIFACTS", str(tmp_path))
        recorder = _gate_recorder("probe")
        assert recorder is not None
        report = verify_convergence(Mesh2D(6, 6), faults=[(2, 2)], recorder=recorder)
        _finish_gate_artifacts(recorder, report)
        assert report.ok
        assert list(tmp_path.iterdir()) == []

    def test_failing_run_keeps_log_index_and_verdict(self, tmp_path, monkeypatch):
        import dataclasses

        monkeypatch.setenv("REPRO_CHAOS_ARTIFACTS", str(tmp_path))
        recorder = _gate_recorder("probe")
        report = verify_convergence(Mesh2D(6, 6), faults=[(2, 2)], recorder=recorder)
        # Fabricate a red gate: the artifacts must survive for upload.
        failing = dataclasses.replace(report, blocks_ok=False)
        _finish_gate_artifacts(recorder, failing)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"probe.jsonl", "probe.jsonl.idx", "probe.jsonl.bisection.txt"}
        verdict = (tmp_path / "probe.jsonl.bisection.txt").read_text()
        assert "DIVERGED" in verdict
        # The kept log is a valid, replayable recording.
        from repro.obs import replay_recording

        assert replay_recording(tmp_path / "probe.jsonl").identical


class TestNetworkPrimitives:
    def test_fail_and_restore_node_roundtrip(self):
        mesh = Mesh2D(5, 5)
        engine = Engine()
        network = MeshNetwork(mesh, engine, lambda c, n: _Idle(c, n))
        process = network.nodes[(2, 2)]
        popped = network.fail_node((2, 2))
        assert popped is process
        assert (2, 2) in network.faulty
        assert not network.channel_up[2, 2].any()
        restored = network.restore_node((2, 2), lambda c, n: _Idle(c, n))
        assert network.nodes[(2, 2)] is restored
        assert (2, 2) not in network.faulty
        assert network.channel_up[2, 2].all()

    def test_restore_keeps_links_to_faulty_neighbours_down(self):
        mesh = Mesh2D(5, 5)
        network = MeshNetwork(mesh, Engine(), lambda c, n: _Idle(c, n))
        network.fail_node((2, 2))
        network.fail_node((2, 3))
        network.restore_node((2, 2), lambda c, n: _Idle(c, n))
        x, y = 2, 2
        di_north = {d: i for i, d in enumerate(
            (Direction.EAST, Direction.SOUTH, Direction.WEST, Direction.NORTH)
        )}[Direction.NORTH]
        assert not network.channel_up[x, y, di_north]  # (2,3) still dead
        assert network.channel_up[x, y].sum() == 3

    def test_fail_node_rejects_double_fault(self):
        network = MeshNetwork(Mesh2D(4, 4), Engine(), lambda c, n: _Idle(c, n))
        network.fail_node((1, 1))
        with pytest.raises(ValueError):
            network.fail_node((1, 1))
