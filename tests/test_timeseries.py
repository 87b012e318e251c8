"""Ring-buffer TSDB, the engine tick hook, and series replay determinism."""

import threading

import numpy as np
import pytest

from repro.chaos import ChannelFaultPlan, ChaosSchedule
from repro.chaos.runner import ChaosRunner
from repro.faults.injection import uniform_faults
from repro.mesh.topology import Mesh2D
from repro.obs import (
    SAMPLER_SERIES,
    Observatory,
    SampleStore,
    TimeSeries,
    use_observatory,
)
from repro.obs.replay import build_runner
from repro.simulator.engine import Engine


class TestTimeSeries:
    def test_plain_append(self):
        ts = TimeSeries("x", capacity=8)
        for tick in range(5):
            ts.append(float(tick), float(tick * 10))
        assert ts.ticks == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert ts.last == 40.0
        assert ts.last_tick == 4.0

    def test_equal_tick_replaces_last_value(self):
        ts = TimeSeries("x", capacity=8)
        ts.append(1.0, 5.0)
        ts.append(1.0, 7.0)
        assert ts.ticks == [1.0]
        assert ts.values == [7.0]

    def test_capacity_floor(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=4)

    def test_decimation_bounds_memory_and_doubles_stride(self):
        ts = TimeSeries("x", capacity=16)
        for tick in range(10_000):
            ts.append(float(tick), float(tick))
        assert 8 <= len(ts) <= 16
        assert ts.stride >= 512
        # Retained ticks are exactly the multiples of the final stride.
        assert all(tick % ts.stride == 0 for tick in ts.ticks)

    def test_decimation_keeps_first_and_covers_run(self):
        ts = TimeSeries("x", capacity=16)
        for tick in range(1000):
            ts.append(float(tick), float(tick))
        assert ts.ticks[0] == 0.0
        assert ts.ticks[-1] >= 1000 - ts.stride

    def test_decimation_is_pure_function_of_append_sequence(self):
        a, b = TimeSeries("a", capacity=16), TimeSeries("b", capacity=16)
        for tick in range(997):
            a.append(float(tick), float(tick % 7))
            b.append(float(tick), float(tick % 7))
        assert a.ticks == b.ticks
        assert a.values == b.values
        assert a.stride == b.stride

    def test_at_or_before(self):
        ts = TimeSeries("x", capacity=8)
        for tick in (1.0, 3.0, 5.0):
            ts.append(tick, tick * 2)
        assert ts.at_or_before(4.0) == (3.0, 6.0)
        assert ts.at_or_before(0.5) is None
        assert ts.at_or_before(5.0) == (5.0, 10.0)

    def test_bounds_and_to_dict(self):
        ts = TimeSeries("x", capacity=8)
        assert ts.bounds() == (0.0, 0.0)
        ts.append(0.0, 3.0)
        ts.append(1.0, -1.0)
        assert ts.bounds() == (-1.0, 3.0)
        assert ts.to_dict() == {"ticks": [0.0, 1.0], "values": [3.0, -1.0], "stride": 1}


class TestSampleStore:
    def test_append_and_snapshot(self):
        store = SampleStore()
        store.append(0.0, {"a": 1.0, "b": 2.0})
        store.append(1.0, {"a": 3.0, "b": 4.0})
        snap = store.snapshot()
        assert snap["series"]["a"]["values"] == [1.0, 3.0]
        assert store.last_tick() == 1.0
        assert store.last_row() == {"a": 3.0, "b": 4.0}
        assert len(store) == 2
        assert list(store) == ["a", "b"]

    def test_concurrent_snapshot_while_appending(self):
        store = SampleStore()
        stop = threading.Event()
        errors: list[BaseException] = []

        def scrape():
            try:
                while not stop.is_set():
                    snap = store.snapshot()
                    for body in snap["series"].values():
                        assert len(body["ticks"]) == len(body["values"])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=scrape)
        thread.start()
        for tick in range(2000):
            store.append(float(tick), {"a": float(tick), "b": float(-tick)})
        stop.set()
        thread.join()
        assert not errors


class TestEngineTickHook:
    def test_boundaries_fire_before_crossing_event(self):
        engine = Engine()
        seen: list[tuple[str, float]] = []
        engine.set_tick_hook(lambda tick: seen.append(("tick", tick)), interval=1.0)
        for t in (0.5, 1.5, 2.5):
            engine.schedule(t, lambda t=t: seen.append(("event", t)))
        engine.run()
        # Boundary k fires before the first event at-or-past it; a
        # terminal sample lands at the final clock value.
        assert seen == [
            ("tick", 0.0), ("event", 0.5),
            ("tick", 1.0), ("event", 1.5),
            ("tick", 2.0), ("event", 2.5),
            ("tick", 2.5),
        ]

    def test_until_jump_fires_trailing_boundaries(self):
        engine = Engine()
        ticks: list[float] = []
        engine.set_tick_hook(ticks.append, interval=1.0)
        engine.schedule(0.5, lambda: None)
        engine.run(until=3.0)
        # The clock jumped to 3.0; idle boundaries still fire in order.
        assert ticks == [0.0, 1.0, 2.0, 3.0]

    def test_interval_spacing(self):
        engine = Engine()
        ticks: list[float] = []
        engine.set_tick_hook(ticks.append, interval=4.0)
        for t in range(10):
            engine.schedule(float(t), lambda: None)
        engine.run()
        assert ticks == [0.0, 4.0, 8.0, 9.0]

    def test_hook_survives_multiple_runs_without_rewinding(self):
        engine = Engine()
        ticks: list[float] = []
        engine.set_tick_hook(ticks.append, interval=1.0)
        engine.schedule(0.5, lambda: None)
        engine.run()
        engine.schedule(1.0, lambda: None)  # 1.5 absolute
        engine.run()
        assert ticks == sorted(ticks)
        assert len(ticks) == len(set(ticks)) + 0  # strictly increasing

    def test_no_hook_no_change(self):
        engine = Engine()
        fired: list[float] = []
        engine.schedule(1.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [1.0]

    def test_invalid_interval_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.set_tick_hook(lambda tick: None, interval=0.0)

    def test_max_events_budget_still_enforced(self):
        engine = Engine()
        engine.set_tick_hook(lambda tick: None, interval=1.0)
        for t in range(10):
            engine.schedule(float(t), lambda: None)
        with pytest.raises(RuntimeError):
            engine.run(max_events=3)


def _chaos_scenario(side=10, n_faults=4, seed=3):
    mesh = Mesh2D(side, side)
    rng = np.random.default_rng(seed)
    faults = uniform_faults(mesh, n_faults, rng)
    plan = ChannelFaultPlan(drop=0.08, duplicate=0.02, seed=seed)
    schedule = ChaosSchedule.random(mesh, rng, events=4, forbidden=set(faults))
    return mesh, faults, plan, schedule


class TestObservatorySampling:
    def test_sampler_emits_every_series(self):
        mesh, faults, plan, schedule = _chaos_scenario()
        observatory = Observatory(rules=())
        runner = ChaosRunner(
            mesh, faults=faults, plan=plan, schedule=schedule,
            observatory=observatory,
        )
        runner.run()
        names = observatory.store.names()
        for name in SAMPLER_SERIES:
            assert name in names
        carried = observatory.store.get("net.carried")
        assert carried.last > 0
        # Counters sampled per tick are monotone.
        assert carried.values == sorted(carried.values)

    def test_series_match_final_network_stats(self):
        mesh, faults, plan, schedule = _chaos_scenario()
        observatory = Observatory(rules=())
        runner = ChaosRunner(
            mesh, faults=faults, plan=plan, schedule=schedule,
            observatory=observatory,
        )
        outcome = runner.run()
        store = observatory.store
        assert store.get("net.carried").last == outcome.stats.messages
        assert store.get("net.dropped").last == outcome.stats.dropped
        assert store.get("net.faulty").last == len(outcome.final_faults)
        assert store.get("engine.tick").last == runner.engine.now

    def test_ambient_observatory_slot(self):
        mesh, faults, plan, schedule = _chaos_scenario()
        observatory = Observatory(rules=())
        runner = ChaosRunner(mesh, faults=faults, plan=plan, schedule=schedule)
        with use_observatory(observatory):
            runner.run()
        assert len(observatory.store) >= len(SAMPLER_SERIES)

    def test_on_sample_callback(self):
        mesh, faults, plan, schedule = _chaos_scenario()
        seen: list[float] = []
        observatory = Observatory(rules=())
        observatory.on_sample = seen.append
        ChaosRunner(
            mesh, faults=faults, plan=plan, schedule=schedule,
            observatory=observatory,
        ).run()
        assert seen and seen == sorted(seen)

    def test_rebuilt_run_replays_to_bit_identical_series(self):
        """The tentpole determinism property: same recipe, same series."""
        mesh, faults, plan, schedule = _chaos_scenario()
        first = Observatory(rules=())
        runner = ChaosRunner(
            mesh, faults=faults, plan=plan, schedule=schedule,
            observatory=first,
        )
        recipe = runner.recipe()
        runner.run()

        second = Observatory(rules=())
        rebuilt = build_runner(recipe)
        rebuilt.network.observatory = second
        rebuilt.run()
        assert first.store.snapshot() == second.store.snapshot()

    def test_observatory_does_not_perturb_flight_recording(self):
        from repro.obs import FlightRecorder
        from repro.obs.recorder import canonical

        mesh, faults, plan, schedule = _chaos_scenario()
        plain_recorder = FlightRecorder()
        ChaosRunner(
            mesh, faults=faults, plan=plan, schedule=schedule,
            recorder=plain_recorder,
        ).run()

        observed_recorder = FlightRecorder()
        ChaosRunner(
            mesh, faults=faults, plan=plan, schedule=schedule,
            recorder=observed_recorder, observatory=Observatory(),
        ).run()
        plain = [canonical(event.to_dict()) for event in plain_recorder.events]
        observed = [canonical(event.to_dict()) for event in observed_recorder.events]
        assert plain == observed
