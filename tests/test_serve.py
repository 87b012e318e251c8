"""The serving layer: snapshot fencing, degradation tiers, admission
control, deadlines, and the HTTP front end."""

import asyncio
import json

import numpy as np
import pytest

from repro.core.boundaries import CanonicalBoundaryMap
from repro.core.routing import WuRouter, route_with_decision
from repro.core.safety import compute_safety_levels
from repro.faults.injection import uniform_faults
from repro.faults.mcc import MCCType, build_mccs
from repro.mesh.topology import Mesh2D
from repro.parallel.cache import StaleArtifactError
from repro.serve import pipeline as pipeline_module
from repro.serve import service as service_module
from repro.serve import (
    QueryError,
    QueryPipeline,
    RoutingService,
    ServeApp,
    ServiceBreaker,
    default_breaker_rules,
    run_qps_sweep,
)
from tests.promtext import parse


def _service(side=12, faults=6, seed=3, **kwargs):
    mesh = Mesh2D(side, side)
    coords = uniform_faults(mesh, faults, np.random.default_rng(seed),
                            forbidden={mesh.center})
    return RoutingService(mesh, coords, **kwargs)


class TestRoutingService:
    def test_fault_free_mesh_is_source_safe_everywhere(self):
        service = RoutingService(Mesh2D(8, 8))
        answer = service.answer((0, 0), (7, 7))
        assert answer.verdict == "source-safe"
        assert answer.strategy == "definition3"
        assert answer.routable and answer.minimal and not answer.degraded
        assert answer.generation == 0 and answer.staleness == 0
        assert answer.path is not None
        assert len(answer.path) == answer.distance + 1
        assert answer.path[0] == (0, 0) and answer.path[-1] == (7, 7)

    def test_witness_avoids_blocked_nodes(self):
        service = _service()
        snapshot = service.snapshot()
        usable = [
            (x, y) for x in range(12) for y in range(12)
            if not snapshot.blocked[x, y]
        ]
        served = 0
        for source in usable[:6]:
            for dest in usable[-6:]:
                answer = service.answer(source, dest)
                if answer.path is None:
                    continue
                served += 1
                assert not any(snapshot.blocked[node] for node in answer.path)
                if answer.minimal:
                    assert len(answer.path) == answer.distance + 1
        assert served > 0

    def test_blocked_endpoint_verdict(self):
        service = _service()
        blocked = service.snapshot().blocked
        coord = next(
            (x, y) for x in range(12) for y in range(12) if blocked[x, y]
        )
        answer = service.answer(coord, (0, 0))
        assert answer.verdict == "blocked-endpoint"
        assert not answer.routable and answer.path is None

    def test_malformed_queries_raise(self):
        service = _service()
        with pytest.raises(QueryError, match="model"):
            service.answer((0, 0), (1, 1), model="quantum")
        with pytest.raises(QueryError, match="outside"):
            service.answer((0, 0), (99, 99))

    def test_staleness_fencing_and_refresh(self):
        service = _service()
        victim = next(
            (x, y) for x in range(12) for y in range(12)
            if not service.engine.unusable[x, y] and (x, y) != (0, 0)
        )
        service.engine.apply("crash", victim)  # not yet published
        answer = service.answer((0, 0), (11, 11))
        assert answer.staleness == 1
        assert answer.generation == 0  # answered from the old snapshot
        with pytest.raises(StaleArtifactError):
            service.answer((0, 0), (11, 11), max_staleness=0)
        service.refresh()
        answer = service.answer((0, 0), (11, 11), max_staleness=0)
        assert answer.staleness == 0 and answer.generation == 1

    def test_refresh_is_noop_when_current(self):
        service = _service()
        before = service.refreshes
        assert service.refresh() is service.snapshot()
        assert service.refreshes == before

    def test_mcc_answers_and_degraded_fallback(self):
        service = _service()
        answer = service.answer((0, 0), (11, 11), model="mcc")
        assert answer.model == "mcc" and answer.model_used == "mcc"
        assert answer.path is None  # witnesses are block-model only
        degraded = service.answer((0, 0), (11, 11), model="mcc", degraded=True)
        assert degraded.model_used == "block"
        assert degraded.degraded

    def test_refresh_publishes_private_copies_of_the_mcc_grids(self):
        service = _service()
        victims = [
            (x, y) for x in range(12) for y in range(12)
            if not service.engine.unusable[x, y]
        ]
        service.engine.apply("crash", victims[0])
        snapshot = service.refresh()
        assert snapshot.generation == 1
        mesh, faults = service.mesh, service.engine.faults
        want_blocked = build_mccs(mesh, faults, MCCType.TYPE_ONE).blocked
        want_levels = compute_safety_levels(mesh, want_blocked)
        grids = ("east", "south", "west", "north")

        def assert_published():
            assert np.array_equal(snapshot.mcc_blocked, want_blocked)
            for grid in grids:
                assert np.array_equal(
                    getattr(snapshot.mcc_levels, grid), getattr(want_levels, grid)
                )

        assert_published()
        answer = service.answer((0, 0), (11, 11), model="mcc")
        assert answer.model_used == "mcc" and not answer.degraded
        # The engine mutates its grids in place; the snapshot must not move.
        service.engine.apply("crash", victims[-1])
        live = service.engine.track_mcc(MCCType.TYPE_ONE)
        assert not np.array_equal(live.blocked, want_blocked)
        assert_published()

    def test_witness_cache_revalidates_across_generations(self):
        # A crash in the far corner leaves both the decision and the
        # served path for a row-0 pair untouched, so the cached witness
        # must survive revalidation instead of rebuilding.
        service = RoutingService(Mesh2D(12, 12))
        first = service.answer((0, 0), (5, 0))
        assert first.verdict == "source-safe" and first.path is not None
        service.apply_fault("crash", (11, 11))
        again = service.answer((0, 0), (5, 0))
        assert again.generation == 1
        assert again.verdict == "source-safe"
        assert again.path == first.path
        assert service._witnesses.stats()["revalidated"] >= 1

    def test_jsonable_round_trips(self):
        answer = _service().answer((0, 0), (11, 11))
        payload = json.loads(json.dumps(answer.jsonable()))
        assert payload["source"] == [0, 0]
        assert payload["verdict"] == answer.verdict
        assert payload["staleness"] == 0


def _network_64(seed=2002, pairs=120, **kwargs):
    """The service on a seeded 64x64 network with 40 faults, and a fixed
    set of distinct hot pairs of usable nodes."""
    service = _service(side=64, faults=40, seed=seed, **kwargs)
    usable = np.argwhere(~service.snapshot().blocked)
    rng = np.random.default_rng(seed)
    hot = []
    while len(hot) < pairs:
        a, b = rng.integers(0, len(usable), size=2)
        pair = (tuple(map(int, usable[a])), tuple(map(int, usable[b])))
        if a != b and pair not in hot:
            hot.append(pair)
    return service, hot


@pytest.fixture
def builds(monkeypatch):
    """Every ``CanonicalBoundaryMap.build`` call, as its reflected rects."""
    calls = []
    build = CanonicalBoundaryMap.build

    def spy(mesh, rects, unusable):
        calls.append(tuple(rects))
        return build(mesh, rects, unusable)

    monkeypatch.setattr(CanonicalBoundaryMap, "build", staticmethod(spy))
    return calls


def _orientations(snapshot):
    """The reflected rects of each orientation of the snapshot's map."""
    bmap = snapshot.boundaries
    return {
        tuple(bmap.reflection(flip_x, flip_y).to_local_rect(r) for r in bmap.rects)
        for flip_x in (False, True) for flip_y in (False, True)
    }


class TestSnapshotBoundaryMap:
    """A served generation traces its boundary lines once, into the map
    its snapshot owns, and every witness of that generation routes on it."""

    def test_one_build_per_orientation_per_generation(self, builds):
        service, hot = _network_64()
        witnesses = sum(service.answer(s, d).path is not None for s, d in hot[:50])
        assert witnesses >= 40
        assert len(builds) <= 4
        assert len(set(builds)) == len(builds)
        assert set(builds) <= _orientations(service.snapshot())

    def test_refresh_after_a_crash_traces_the_new_block_set(self, builds):
        service, hot = _network_64()
        old = service.snapshot()
        for source, dest in hot:
            before = service.answer(source, dest)
            if before.path is None or len(before.path) < 3:
                continue
            victim = before.path[len(before.path) // 2]
            service.engine.apply("crash", victim)
            new = service.refresh()
            traced = len(builds)
            after = service.answer(source, dest)
            if after.path is not None:
                break
            service.engine.apply("revive", victim)
            old = service.refresh()
        assert after.generation == new.generation
        assert victim not in after.path
        assert new.boundaries is not old.boundaries
        assert len(builds) > traced
        assert set(builds[traced:]) <= _orientations(new)
        assert not set(builds[traced:]) & _orientations(old)

    def test_in_flight_query_keeps_its_snapshot_map(self, monkeypatch):
        service, hot = _network_64()
        routed_on = []

        class Recording(WuRouter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                routed_on.append(self.boundaries)

        monkeypatch.setattr("repro.serve.service.WuRouter", Recording)
        (source, dest), (victim, _) = hot[0], hot[1]
        old = service.snapshot()
        cascade = service._cascade

        def cascade_then_crash(*args):
            # The fault lands, and a new snapshot is published, while this
            # query is between its cascade and its witness.
            decision = cascade(*args)
            service.apply_fault("crash", victim)
            return decision

        service._cascade = cascade_then_crash
        answer = service.answer(source, dest)
        assert service.snapshot() is not old
        assert answer.generation == old.generation and answer.path is not None
        assert routed_on == [old.boundaries]

    def test_served_witnesses_equal_unshared_map_routes(self):
        service, hot = _network_64()
        snapshot = service.snapshot()
        served = 0
        for source, dest in hot:
            answer = service.answer(source, dest)
            if answer.path is None:
                continue
            decision = service._cascade(snapshot.levels, snapshot.blocked, source, dest)
            reference = route_with_decision(
                WuRouter(service.mesh, snapshot.block_set), decision,
                blocked=snapshot.blocked,
            )
            assert answer.path == reference.nodes
            served += 1
        assert served >= 100


class TestServiceBreaker:
    def test_trips_on_queue_runaway_and_recovers(self, monkeypatch):
        monkeypatch.setattr(service_module, "RECOVERY_TICKS", 2)
        breaker = ServiceBreaker()
        healthy = {"serve.queue_depth": 0.1, "serve.arrived": 10.0,
                   "serve.shed": 0.0}
        hot = dict(healthy, **{"serve.queue_depth": 0.95})
        assert breaker.observe(healthy) is False
        assert breaker.observe(hot) is False  # for_ticks=2: not yet
        assert breaker.observe(hot) is True
        assert breaker.trips == 1
        assert breaker.observe(healthy) is True  # hysteresis
        assert breaker.observe(healthy) is False
        assert breaker.state()["open"] is False

    def test_latches_while_any_rule_fires(self):
        breaker = ServiceBreaker()
        full = {"serve.queue_depth": 1.0, "serve.arrived": 5.0,
                "serve.shed": 0.0}
        breaker.observe(full)
        assert breaker.observe(full) is True
        assert "serve-queue-runaway" in breaker.state()["active"]

    def test_default_rules_cover_the_slo_axes(self):
        names = {rule.name for rule in default_breaker_rules()}
        assert names == {"serve-queue-runaway", "serve-shed-slo"}


class TestQueryPipeline:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_submit_answers_and_counts(self):
        async def scenario():
            pipeline = QueryPipeline(_service())
            await pipeline.start()
            try:
                result = await pipeline.submit((0, 0), (11, 11))
            finally:
                await pipeline.drain()
            return pipeline, result

        pipeline, result = self._run(scenario())
        assert result.ok
        assert result.answer is not None and result.answer.generation == 0
        assert result.latency_s >= 0.0
        assert pipeline.counters["served"] == 1
        assert pipeline.stats()["shed_fraction"] == 0.0

    def test_queue_full_sheds_immediately(self):
        async def scenario():
            pipeline = QueryPipeline(_service(), queue_limit=1)
            # Not started: fill the queue by hand so no worker drains it.
            pipeline._queue = asyncio.Queue(1)
            pipeline._queue.put_nowait(None)
            pipeline.accepting = True
            return pipeline, await pipeline.submit((0, 0), (1, 1))

        pipeline, result = self._run(scenario())
        assert result.status == "overloaded" and result.error == "queue full"
        assert pipeline.counters["shed_overload"] == 1

    def test_expired_requests_are_shed_not_answered(self):
        async def scenario():
            pipeline = QueryPipeline(_service())
            await pipeline.start()
            try:
                return pipeline, await pipeline.submit(
                    (0, 0), (11, 11), deadline_s=0.0
                )
            finally:
                await pipeline.drain()

        pipeline, result = self._run(scenario())
        assert result.status == "deadline_exceeded"
        assert pipeline.counters["shed_deadline"] == 1

    def test_bad_request_surfaces_cleanly(self):
        async def scenario():
            pipeline = QueryPipeline(_service())
            await pipeline.start()
            try:
                return await pipeline.submit((0, 0), (99, 99))
            finally:
                await pipeline.drain()

        result = self._run(scenario())
        assert result.status == "bad_request"
        assert "outside" in result.error

    def test_query_right_after_ingest_answers_the_new_generation(self):
        async def scenario():
            pipeline = QueryPipeline(_service(), max_staleness=4)
            await pipeline.start()
            victim = next(
                (x, y) for x in range(12) for y in range(12)
                if not pipeline.service.engine.unusable[x, y]
            )
            pipeline.ingest_fault("crash", victim)
            try:
                return await pipeline.submit((0, 0), (11, 11))
            finally:
                await pipeline.drain()

        result = self._run(scenario())
        assert result.ok
        assert result.answer.staleness == 0
        assert result.answer.generation == 1

    def test_open_breaker_forces_degraded_answers(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "HEARTBEAT_S", 60.0)

        async def scenario():
            pipeline = QueryPipeline(_service())
            pipeline.breaker.open = True
            await pipeline.start()
            try:
                return await pipeline.submit((0, 0), (11, 11), model="mcc")
            finally:
                await pipeline.drain()

        result = self._run(scenario())
        assert result.ok
        assert result.answer.degraded
        assert result.answer.model_used == "block"
        assert result.answer.path is None

    def test_drain_stops_admission(self):
        async def scenario():
            pipeline = QueryPipeline(_service())
            await pipeline.start()
            assert await pipeline.drain() is True
            return pipeline, await pipeline.submit((0, 0), (1, 1))

        pipeline, result = self._run(scenario())
        assert result.status == "overloaded" and result.error == "draining"
        assert not pipeline.accepting

    def test_drain_out_of_grace_resolves_every_submit(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "HEARTBEAT_S", 3600.0)

        async def scenario():
            # A long deadline and workers held on an event that is never
            # set: every query is in flight or queued when the drain's
            # grace runs out.
            pipeline = QueryPipeline(_service(), deadline_s=30.0)
            held = asyncio.Event()

            async def process(request):
                await held.wait()

            pipeline._process = process
            await pipeline.start()
            submits = [
                asyncio.create_task(pipeline.submit((0, 0), (11, 11)))
                for _ in range(50)
            ]
            await asyncio.sleep(0.02)
            drained = await pipeline.drain(grace_s=0.05)
            results = await asyncio.wait_for(asyncio.gather(*submits), 2.0)
            return pipeline, drained, results

        pipeline, drained, results = self._run(scenario())
        assert drained is False
        assert all(
            (r.status, r.error) == ("overloaded", "draining") for r in results
        )
        counters = pipeline.counters
        assert counters["arrived"] == 50
        assert counters["arrived"] == sum(counters[outcome] for outcome in (
            "served", "shed_overload", "shed_deadline", "bad_requests", "errors",
        ))

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError, match="queue_limit"):
            QueryPipeline(_service(), queue_limit=0)
        with pytest.raises(ValueError, match="workers"):
            QueryPipeline(_service(), workers=0)


class TestServeApp:
    def _request(self, app_coro_factory):
        return asyncio.run(app_coro_factory())

    @staticmethod
    async def _get(host, port, target, method="GET"):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            f"{method} {target} HTTP/1.1\r\nHost: {host}\r\n"
            "Connection: close\r\n\r\n".encode("ascii")
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\r\n\r\n")
        status = int(head.split(None, 2)[1])
        headers = dict(
            line.split(": ", 1)
            for line in head.decode("latin-1").split("\r\n")[1:]
            if ": " in line
        )
        return status, body.decode("utf-8"), headers

    def test_query_fault_health_metrics_cycle(self):
        async def scenario():
            service = _service()
            pipeline = QueryPipeline(service)
            app = ServeApp(service, pipeline)
            await app.start()
            host, port = app.host, app.port
            try:
                results = {}
                results["readyz"] = await self._get(host, port, "/readyz")
                results["query"] = await self._get(
                    host, port, "/query?source=0,0&dest=11,11")
                results["bad"] = await self._get(
                    host, port, "/query?source=zap&dest=0,0")
                results["fault"] = await self._get(
                    host, port, "/fault?event=crash&coord=6,6", method="POST")
                results["conflict"] = await self._get(
                    host, port, "/fault?event=crash&coord=6,6", method="POST")
                results["outside"] = await self._get(
                    host, port, "/fault?event=crash&coord=99,99", method="POST")
                results["unknown_event"] = await self._get(
                    host, port, "/fault?event=melt&coord=6,6", method="POST")
                results["wrong_method"] = await self._get(
                    host, port, "/fault?event=crash&coord=6,6")
                results["healthz"] = await self._get(host, port, "/healthz")
                results["metrics"] = await self._get(host, port, "/metrics")
                results["missing"] = await self._get(host, port, "/nope")
                return results
            finally:
                await app.shutdown()

        results = self._request(scenario)
        assert results["readyz"][0] == 200
        status, body, headers = results["query"]
        assert status == 200
        assert int(headers["Content-Length"]) == len(body.encode("utf-8"))
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert {"verdict", "strategy", "generation", "staleness",
                "degraded"} <= set(payload["answer"])
        assert results["bad"][0] == 400
        fault = json.loads(results["fault"][1])
        assert results["fault"][0] == 200 and fault["generation"] == 1
        assert results["conflict"][0] == 409
        outside = json.loads(results["outside"][1])
        assert results["outside"][0] == 400
        assert outside["status"] == "bad_request"
        assert "outside the 12x12 mesh" in outside["error"]
        unknown = json.loads(results["unknown_event"][1])
        assert results["unknown_event"][0] == 400
        assert "crash, inject, revive" in unknown["error"]
        assert results["wrong_method"][0] == 405
        health = json.loads(results["healthz"][1])
        assert results["healthz"][0] == 200 and health["status"] == "ok"
        families = parse(results["metrics"][1])
        assert "repro_serve_requests_total" in families
        assert "repro_serve_generation" in families
        assert results["missing"][0] == 404

    def test_shutdown_notice_flips_readyz_before_close(self):
        async def scenario():
            service = _service()
            app = ServeApp(service, QueryPipeline(service), notice_s=0.3)
            await app.start()
            host, port = app.host, app.port
            shutdown = asyncio.create_task(app.shutdown())
            await asyncio.sleep(0.05)  # inside the notice window
            status, body, _ = await self._get(host, port, "/readyz")
            await shutdown
            return status, json.loads(body)

        status, payload = self._request(scenario)
        assert status == 503
        assert payload["status"] == "draining"

    def test_malformed_query_counts_on_the_scrape(self):
        """A ``/query`` rejected before the pipeline still arrives and is
        a bad request, so the scraped counters reconcile."""
        async def scenario():
            service = _service()
            app = ServeApp(service, QueryPipeline(service))
            await app.start()
            try:
                bad = await self._get(app.host, app.port, "/query?source=zap&dest=0,0")
                metrics = await self._get(app.host, app.port, "/metrics")
            finally:
                await app.shutdown()
            return bad[0], parse(metrics[1])

        status, families = self._request(scenario)
        assert status == 400
        arrived = families["repro_serve_arrived_total"].samples[0].value
        outcomes = {
            sample.label_dict["outcome"]: sample.value
            for sample in families["repro_serve_requests_total"].samples
        }
        assert arrived == 1 and outcomes["bad_request"] == 1
        assert arrived == sum(outcomes[outcome] for outcome in (
            "served", "shed_overload", "shed_deadline", "bad_request", "error",
        ))


    def test_query_in_shutdown_notice_counts_as_shed(self):
        """A ``/query`` refused in the shutdown notice window arrived and
        was shed, like ``submit``'s own draining path."""
        async def scenario():
            service = _service()
            app = ServeApp(service, QueryPipeline(service), notice_s=0.3)
            await app.start()
            host, port = app.host, app.port
            shutdown = asyncio.create_task(app.shutdown())
            await asyncio.sleep(0.05)  # inside the notice window
            refused = await self._get(host, port, "/query?source=0,0&dest=11,11")
            metrics = await self._get(host, port, "/metrics")
            await shutdown
            return refused[0], parse(metrics[1])

        status, families = self._request(scenario)
        assert status == 503
        assert families["repro_serve_arrived_total"].samples[0].value == 1
        outcomes = {
            sample.label_dict["outcome"]: sample.value
            for sample in families["repro_serve_requests_total"].samples
        }
        assert outcomes["shed_overload"] == 1


class TestLoadGenerator:
    def test_mini_sweep_report_shape(self):
        report = run_qps_sweep(
            side=10, faults=5, seed=7,
            stages=((400.0, 24),), chaos_events=3,
        )
        assert [s["qps"] for s in report["stages"]] == [400.0]
        stage = report["stages"][0]
        assert stage["ok"] + stage["shed"] + stage["errors"] <= stage["queries"]
        assert stage["errors"] == 0
        assert stage["p50_ms"] is None or stage["p50_ms"] >= 0.0
        totals = report["totals"]
        assert totals["counters"]["arrived"] == 24
        assert totals["service"]["generation"] >= 1  # chaos actually landed
        assert report["config"]["seed"] == 7
