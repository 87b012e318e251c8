"""Alert rules: unit semantics on synthetic series, chaos integration."""

import numpy as np
import pytest

from repro.chaos import ChannelFaultPlan, ChaosSchedule, verify_convergence
from repro.chaos.schedule import ChaosEvent
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.obs import alerts
from repro.obs import (
    AlertEngine,
    Observatory,
    RatioRule,
    SampleStore,
    ThresholdRule,
    convergence_stall,
    default_rules,
    drop_rate_slo,
    queue_runaway,
    retransmit_storm,
)


def _store(**series):
    """A store fed from parallel lists: _store(a=[...], b=[...])."""
    store = SampleStore()
    length = max(len(values) for values in series.values())
    for tick in range(length):
        store.append(
            float(tick),
            {name: float(values[min(tick, len(values) - 1)]) for name, values in series.items()},
        )
    return store


class TestThresholdRule:
    def test_fires_on_breach(self):
        rule = ThresholdRule("deep", "q", ">", 10.0)
        assert rule.check(_store(q=[5, 11])) == 11.0
        assert rule.check(_store(q=[5, 9])) is None

    def test_missing_series_is_healthy(self):
        assert ThresholdRule("deep", "q", ">", 10.0).check(_store(x=[1])) is None

    def test_all_operators(self):
        store = _store(q=[5])
        assert ThresholdRule("r", "q", ">=", 5.0).check(store) == 5.0
        assert ThresholdRule("r", "q", "<=", 5.0).check(store) == 5.0
        assert ThresholdRule("r", "q", "<", 5.0).check(store) is None


class TestRatioRule:
    def test_ratio_with_floor(self):
        store = _store(r=[0] * 5 + [40] * 5, c=[0] * 5 + [10] * 5)
        rule = RatioRule("storm", "r", "c", 0.5, window=8.0, floor=16.0)
        assert rule.check(store) == pytest.approx(4.0)
        # Below the numerator floor: noise, not a storm.
        quiet = _store(r=[0] * 5 + [8] * 5, c=[0] * 5 + [1] * 5)
        assert rule.check(quiet) is None

    def test_offset_discounts_doomed_retries(self):
        # 40 retries, 36 of them into down links (dropped): live delta 4.
        store = _store(
            r=[0] * 5 + [40] * 5, d=[0] * 5 + [36] * 5, c=[0] * 5 + [10] * 5
        )
        rule = RatioRule("storm", "r", "c", 0.3, window=8.0, floor=16.0, offset="d")
        assert rule.check(store) is None
        without_offset = RatioRule("storm", "r", "c", 0.3, window=8.0, floor=16.0)
        assert without_offset.check(store) == pytest.approx(4.0)

    def test_quiet_during_warmup(self):
        store = _store(r=[0, 100], c=[0, 1])  # only 1 tick of history, window 8
        assert RatioRule("storm", "r", "c", 0.5, window=8.0, floor=1.0).check(store) is None

    def test_describe_mentions_offset(self):
        rule = RatioRule("storm", "r", "c", 0.3, offset="d")
        assert "(r - d)" in rule.describe(1.5)


class TestAlertEngine:
    def test_latch_one_alert_per_excursion(self):
        rule = ThresholdRule("deep", "q", ">", 10.0)
        engine = AlertEngine((rule,))
        store = SampleStore()
        pattern = [5, 20, 30, 5, 20]  # breach, breach, resolve, breach
        for tick, value in enumerate(pattern):
            store.append(float(tick), {"q": float(value)})
            engine.evaluate(float(tick), store)
        assert len(engine.firings) == 2
        assert engine.active == ("deep",)

    def test_for_ticks_consecutive_gate(self):
        rule = ThresholdRule("deep", "q", ">", 10.0, for_ticks=3)
        engine = AlertEngine((rule,))
        store = SampleStore()
        for tick, value in enumerate([20, 20, 5, 20, 20, 20]):
            store.append(float(tick), {"q": float(value)})
            engine.evaluate(float(tick), store)
        # First streak broke at 2; only the second reaches 3 consecutive.
        assert len(engine.firings) == 1
        assert engine.firings[0].tick == 5.0

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError):
            AlertEngine((queue_runaway(), queue_runaway()))

    def test_counts_zero_filled(self):
        engine = AlertEngine(default_rules())
        counts = engine.counts()
        assert counts["convergence-stall"] == 0
        assert set(counts) == {rule.name for rule in default_rules()}

    def test_fired_lookup(self):
        engine = AlertEngine((ThresholdRule("deep", "q", ">", 10.0),))
        store = SampleStore()
        store.append(0.0, {"q": 20.0})
        engine.evaluate(0.0, store)
        assert engine.fired()
        assert engine.counts() == {"deep": 1}
        assert not AlertEngine((ThresholdRule("other", "q", ">", 99.0),)).fired()


def _flap_schedule(mesh, faults, until=800.0):
    """Crash/revive flapping that keeps restarting formation waves."""
    victims = [c for c in [(4, 4), (4, 5)] if c not in set(faults)]
    events = []
    t = 20.0
    while t < until:
        for victim in victims:
            events.append(ChaosEvent(t, "crash", victim))
            events.append(ChaosEvent(t + 8.0, "revive", victim))
        t += 24.0
    return ChaosSchedule(events)


class TestChaosIntegration:
    def test_clean_run_is_silent_under_default_rules(self):
        mesh = Mesh2D(8, 8)
        rng = np.random.default_rng(1)
        faults = uniform_faults(mesh, 4, rng)
        observatory = Observatory()
        report = verify_convergence(
            mesh, faults, None, None, seed=1,
            observatory=observatory,
        )
        assert report.ok
        assert report.alerts == ()
        assert observatory.healthz()["status"] == "ok"

    def test_flap_schedule_fires_convergence_stall(self, monkeypatch):
        mesh = Mesh2D(8, 8)
        rng = np.random.default_rng(5)
        faults = uniform_faults(mesh, 3, rng)
        monkeypatch.setattr(alerts, "CONVERGENCE_DEADLINE", 512.0)
        observatory = Observatory(rules=(convergence_stall(),))
        report = verify_convergence(
            mesh, faults, None, _flap_schedule(mesh, faults),
            seed=5, observatory=observatory,
        )
        assert [alert.rule for alert in report.alerts] == ["convergence-stall"]
        # The stall is informational: the run still re-converged.
        assert report.ok
        assert "alert(s) fired: convergence-stall" in report.summary()

    def test_heavy_loss_fires_retransmit_storm(self):
        mesh = Mesh2D(10, 10)
        rng = np.random.default_rng(2)
        faults = uniform_faults(mesh, 4, rng)
        plan = ChannelFaultPlan(drop=0.4, duplicate=0.05, seed=2)
        observatory = Observatory(rules=(retransmit_storm(), drop_rate_slo()))
        report = verify_convergence(
            mesh, faults, plan, None, seed=2,
            observatory=observatory,
        )
        fired = {alert.rule for alert in report.alerts}
        assert "retransmit-storm" in fired

    def test_moderate_loss_stays_silent(self):
        """5% loss is the baseline chaos workload, not an incident."""
        mesh = Mesh2D(10, 10)
        rng = np.random.default_rng(3)
        faults = uniform_faults(mesh, 4, rng)
        plan = ChannelFaultPlan(drop=0.05, duplicate=0.02, seed=3)
        schedule = ChaosSchedule.random(mesh, rng, events=4, forbidden=set(faults))
        report = verify_convergence(
            mesh, faults, plan, schedule, seed=3,
            observatory=Observatory(),
        )
        assert report.ok
        assert report.alerts == ()
