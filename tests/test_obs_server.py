"""The asyncio listener: telemetry scrapes, health, framing, drain, push."""

import asyncio
import contextlib
import gc
import json
import threading
import urllib.request

import pytest

from repro.mesh.topology import Mesh2D
from repro.obs import (
    MetricsSink,
    Observatory,
    SampleStore,
    TelemetryApp,
    ThresholdRule,
    Tracer,
    atomic_write_text,
    render_timeseries,
)
from repro.serve import QueryPipeline, RoutingService, ServeApp
from tests.promtext import PromParseError, parse


def _get(url, method="GET"):
    request = urllib.request.Request(url, method=method)
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, response.read().decode("utf-8"), dict(response.headers)


def _observed_observatory(breach=False):
    observatory = Observatory(rules=(ThresholdRule("deep", "q", ">", 10.0),))
    values = [1.0, 2.0, 20.0 if breach else 3.0]
    for tick, value in enumerate(values):
        observatory.store.append(float(tick), {"q": value, "r": value * 2})
        observatory.alerts.evaluate(float(tick), observatory.store)
    return observatory


@contextlib.contextmanager
def serving(app):
    """Run ``app`` on an event loop in a background thread.

    The tests then scrape it with blocking ``urllib`` calls, exactly as
    an external poller would.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(app.start(), loop).result(timeout=5)
    try:
        yield app
    finally:
        asyncio.run_coroutine_threadsafe(app.shutdown(), loop).result(timeout=10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()


class TestEndpoints:
    def test_metrics_scrape_parses_strictly(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        tracer.emit("protocol_msg", msg="esl", time=0, queue=1)
        observatory = _observed_observatory()
        with serving(TelemetryApp(observatory=observatory, metrics=metrics)) as app:
            status, body, headers = _get(app.url("/metrics"))
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse(body)
        assert "repro_live_sample" in families
        assert "repro_live_tick" in families
        assert "repro_alert_active" in families
        sample_labels = {
            sample.label_dict["series"]
            for sample in families["repro_live_sample"].samples
        }
        assert sample_labels == {"q", "r"}

    def test_metrics_scrape_exports_tracer_hot_counters(self):
        metrics = MetricsSink()
        tracer = Tracer(metrics)
        tracer.count("sim.messages", 7)
        with serving(TelemetryApp(metrics=metrics, tracer=tracer)) as app:
            _, body, _ = _get(app.url("/metrics"))
        samples = parse(body)["repro_hot_counter_total"].samples
        assert [(s.labels, s.value) for s in samples] == [((("name", "sim.messages"),), 7)]

    def test_series_json_matches_snapshot(self):
        observatory = _observed_observatory()
        with serving(TelemetryApp(observatory=observatory)) as app:
            status, body, _ = _get(app.url("/series.json"))
        assert status == 200
        payload = json.loads(body)
        assert payload["series"] == observatory.store.snapshot()["series"]
        assert payload["alerts"] == []
        assert payload["firing"] == []

    def test_healthz_ok_then_alerting_503(self):
        with serving(TelemetryApp(observatory=_observed_observatory())) as app:
            status, body, _ = _get(app.url("/healthz"))
            assert status == 200
            assert json.loads(body)["status"] == "ok"

        breaching = TelemetryApp(observatory=_observed_observatory(breach=True))
        with serving(breaching) as app:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(app.url("/healthz"))
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["status"] == "alerting"
            assert payload["firing"] == ["deep"]

    def test_unknown_path_404(self):
        with serving(TelemetryApp(observatory=_observed_observatory())) as app:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(app.url("/nope"))
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["paths"] == [
                "/metrics", "/series.json", "/healthz", "/readyz",
            ]

    def test_non_get_405(self):
        with serving(TelemetryApp(observatory=_observed_observatory())) as app:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(app.url("/metrics"), method="POST")
            assert excinfo.value.code == 405

    def test_no_sources_still_valid(self):
        with serving(TelemetryApp()) as app:
            status, body, _ = _get(app.url("/metrics"))
            assert status == 200
            assert body.startswith("#")
            parse(body)
            status, body, _ = _get(app.url("/healthz"))
            assert json.loads(body)["status"] == "ok"

    def test_double_start_rejected(self):
        async def scenario():
            app = TelemetryApp()
            await app.start()
            try:
                with pytest.raises(RuntimeError):
                    await app.start()
            finally:
                await app.shutdown()

        asyncio.run(scenario())


class TestReadiness:
    def test_readyz_ready_then_draining_503(self):
        with serving(TelemetryApp(observatory=_observed_observatory())) as app:
            status, body, _ = _get(app.url("/readyz"))
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ready"
            assert payload["inflight"] == 1  # this scrape counts itself

            app.ready = False
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(app.url("/readyz"))
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["status"] == "draining"

            app.ready = True
            status, _, _ = _get(app.url("/readyz"))
            assert status == 200

    def test_drain_idle_server_stops_immediately(self):
        async def scenario():
            app = TelemetryApp(observatory=_observed_observatory(), grace_s=1.0)
            await app.start()
            url = app.url("/readyz")
            assert (await asyncio.to_thread(_get, url))[0] == 200
            assert await app.shutdown() is True
            return url

        url = asyncio.run(scenario())
        with pytest.raises(urllib.error.URLError):
            _get(url)

    def test_draining_still_serves_scrapes(self):
        # Out of rotation is not down: /metrics keeps answering so the
        # final scrape during a rolling restart still lands.
        with serving(TelemetryApp(observatory=_observed_observatory())) as app:
            app.ready = False
            status, body, _ = _get(app.url("/metrics"))
            assert status == 200
            parse(body)


class TestConcurrentScrapes:
    def test_series_json_content_length_under_churn(self):
        # Regression: /series.json used to compute Content-Length from
        # the *character* count of a payload rendered once and the body
        # from a second render -- a store append between the two (or any
        # non-ASCII sample name) produced a short read.  Bodies are now
        # encoded to bytes first, so every concurrent response must be
        # exactly its declared length and parse as JSON.
        observatory = _observed_observatory()
        errors: list[str] = []
        with serving(TelemetryApp(observatory=observatory)) as app:
            url = app.url("/series.json")
            stop = threading.Event()

            def churn():
                tick = 3.0
                while not stop.is_set():
                    observatory.store.append(tick, {"q": tick, "r": 2 * tick})
                    tick += 1.0

            def scrape():
                for _ in range(20):
                    try:
                        status, body, headers = _get(url)
                    except OSError as exc:  # pragma: no cover - failure detail
                        errors.append(f"scrape failed: {exc}")
                        return
                    declared = int(headers["Content-Length"])
                    actual = len(body.encode("utf-8"))
                    if declared != actual:
                        errors.append(f"Content-Length {declared} != {actual}")
                        return
                    try:
                        json.loads(body)
                    except ValueError as exc:
                        errors.append(f"torn JSON body: {exc}")
                        return

            writer = threading.Thread(target=churn)
            scrapers = [threading.Thread(target=scrape) for _ in range(4)]
            writer.start()
            for thread in scrapers:
                thread.start()
            for thread in scrapers:
                thread.join()
            stop.set()
            writer.join()
        assert errors == []


def _telemetry_app(**listener):
    return TelemetryApp(observatory=_observed_observatory(), **listener)


def _serve_app(**listener):
    service = RoutingService(Mesh2D(8, 8), [(3, 3)])
    return ServeApp(service, QueryPipeline(service), **listener)


async def _exchange(host, port, raw):
    """Send raw bytes, then read the whole answer until the server closes."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    answer = await asyncio.wait_for(reader.read(), timeout=5)
    writer.close()
    await writer.wait_closed()
    return answer


BIG = 70 * 1024


@pytest.mark.parametrize("make_app", [_telemetry_app, _serve_app],
                         ids=["telemetry", "serve"])
class TestRequestFraming:
    CASES = [
        (b"GET /healthz HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * BIG + b"\r\n\r\n", 431),
        (b"GET /" + b"a" * BIG + b" HTTP/1.1\r\n\r\n", 414),
        (b"\x16\x03\x01 not http at all\r\n\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % BIG, 413),
    ]

    def test_malformed_requests_are_answered(self, make_app):
        async def scenario():
            loop = asyncio.get_running_loop()
            seen = []
            loop.set_exception_handler(lambda _loop, context: seen.append(context))
            app = make_app()
            await app.start()
            try:
                answers = [
                    await _exchange(app.host, app.port, raw) for raw, _ in self.CASES
                ]
                # A well-formed request still works on the same listener.
                answers.append(await _exchange(
                    app.host, app.port, b"GET /healthz HTTP/1.1\r\n\r\n"))
            finally:
                await app.shutdown()
            gc.collect()  # surface any "exception was never retrieved"
            await asyncio.sleep(0)
            return answers, seen

        answers, seen = asyncio.run(scenario())
        expected = [code for _, code in self.CASES] + [200]
        statuses = [int(answer.split(None, 2)[1]) for answer in answers]
        assert statuses == expected
        for answer in answers[:-1]:
            body = json.loads(answer.partition(b"\r\n\r\n")[2])
            assert body["status"] == "bad_request" and body["error"]
        assert seen == []

    def test_stalled_client_cannot_pin_shutdown(self, make_app):
        # A client that sends part of a request head and stalls holds its
        # connection open; shutdown must still finish inside its bound,
        # report the unfinished drain, and close the straggler.
        async def scenario():
            app = make_app(grace_s=0.2, notice_s=0.1)
            await app.start()
            reader, writer = await asyncio.open_connection(app.host, app.port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: x")
            await writer.drain()
            await asyncio.sleep(0.05)
            assert app.inflight == 1
            loop = asyncio.get_running_loop()
            started = loop.time()
            drained = await app.shutdown()
            elapsed = loop.time() - started
            try:
                tail = await asyncio.wait_for(reader.read(), timeout=1.0)
            except ConnectionResetError:
                tail = b""
            writer.close()
            return drained, elapsed, tail, app.inflight

        drained, elapsed, tail, inflight = asyncio.run(scenario())
        assert drained is False
        assert elapsed < 0.1 + 0.2 + 1.0
        assert tail == b""  # closed without an answer
        assert inflight == 0


class TestPushMode:
    def test_write_metrics_and_series(self, tmp_path):
        observatory = _observed_observatory()
        app = TelemetryApp(observatory=observatory)
        metrics_path = tmp_path / "out" / "metrics.prom"
        series_path = tmp_path / "out" / "series.json"
        atomic_write_text(str(metrics_path), app.render_metrics())
        atomic_write_text(str(series_path), json.dumps(app.series_json()))
        parse(metrics_path.read_text())
        payload = json.loads(series_path.read_text())
        assert payload["series"] == observatory.store.snapshot()["series"]
        # No temp droppings left behind.
        assert sorted(p.name for p in metrics_path.parent.iterdir()) == [
            "metrics.prom", "series.json",
        ]

    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "file.txt"
        atomic_write_text(str(target), "one\n")
        atomic_write_text(str(target), "two\n")
        assert target.read_text() == "two\n"

    def test_atomic_write_failure_leaves_no_temp(self, tmp_path):
        target = tmp_path / "dir"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_text(str(target), "boom")  # destination is a directory
        assert list(tmp_path.iterdir()) == [target]


class TestRenderTimeseries:
    def test_alert_families(self):
        observatory = _observed_observatory(breach=True)
        text = render_timeseries(observatory.store, observatory.alerts)
        families = parse(text)
        active = {
            sample.label_dict["rule"]: sample.value
            for sample in families["repro_alert_active"].samples
        }
        assert active == {"deep": 1.0}
        fired = {
            sample.label_dict["rule"]: sample.value
            for sample in families["repro_alerts_fired_total"].samples
        }
        assert fired == {"deep": 1.0}

    def test_empty_store_renders_empty(self):
        assert render_timeseries(SampleStore()) == ""

    def test_strictness_of_test_parser(self):
        with pytest.raises(PromParseError):
            parse("no_type_header 1\n")
        with pytest.raises(PromParseError):
            parse("# TYPE a gauge\n# TYPE a gauge\na 1\n")
        with pytest.raises(PromParseError):
            parse("# TYPE a gauge\na 1\na 2\n")
        with pytest.raises(PromParseError):
            parse("# TYPE a gauge\na 1")  # missing trailing newline
