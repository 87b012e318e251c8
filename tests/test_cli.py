"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _run(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_coordinate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["route", "--dest", "banana"])

    def test_bad_figure_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])


class TestScenario:
    def test_renders_blocks(self):
        code, output = _run(["scenario", "--side", "16", "--faults", "10", "--seed", "4"])
        assert code == 0
        assert "blocks" in output
        assert "#" in output

    def test_renders_mcc(self):
        code, output = _run(
            ["scenario", "--side", "16", "--faults", "12", "--seed", "4", "--mcc"]
        )
        assert code == 0
        assert "can't-reach" in output


class TestRoute:
    def test_wu_route(self):
        code, output = _run(
            ["route", "--side", "16", "--faults", "8", "--seed", "3", "--dest", "14,14"]
        )
        assert code == 0
        assert "delivered" in output and "minimal" in output
        assert "D" in output

    @pytest.mark.parametrize("router", ["greedy", "detour", "oracle"])
    def test_other_routers(self, router):
        code, output = _run(
            [
                "route", "--side", "16", "--faults", "5", "--seed", "3",
                "--dest", "14,14", "--router", router,
            ]
        )
        assert code == 0
        assert "delivered" in output

    def test_source_flag(self):
        code, output = _run(
            [
                "route", "--side", "16", "--faults", "0", "--seed", "1",
                "--source", "2,2", "--dest", "5,5",
            ]
        )
        assert code == 0
        assert "6 hops" in output

    def test_endpoint_errors(self):
        code, output = _run(
            [
                "route", "--side", "16", "--faults", "0", "--seed", "1",
                "--dest", "99,99",
            ]
        )
        assert code == 2
        assert "outside the mesh" in output


class TestTrace:
    def test_safe_source_trace(self):
        code, output = _run(["trace", "0,0", "7,7", "--faults", "3", "--seed", "1"])
        assert code == 0
        assert "Definition 3 (safe source): fires" in output
        assert "hop   1:" in output
        assert "delivered in" in output

    def test_endpoint_errors(self):
        code, output = _run(["trace", "0,0", "99,99", "--faults", "3", "--seed", "1"])
        assert code == 2
        assert "outside the mesh" in output

    def test_jsonl_dump_round_trips(self, tmp_path):
        from repro.obs import read_jsonl

        target = tmp_path / "trace.jsonl"
        code, output = _run(
            ["trace", "0,0", "7,7", "--faults", "3", "--seed", "1", "--jsonl", str(target)]
        )
        assert code == 0
        events = read_jsonl(target)
        assert sum(1 for e in events if e.kind == "hop") == 14
        assert f"wrote {len(events)} events" in output


class TestStats:
    def test_table(self):
        code, output = _run(
            ["stats", "--side", "16", "--faults", "10", "--seed", "3", "--routes", "10"]
        )
        assert code == 0
        for section in ("events", "protocol messages", "routes", "spans"):
            assert section in output

    def test_json_snapshot(self):
        import json

        code, output = _run(
            ["stats", "--side", "16", "--faults", "10", "--seed", "3",
             "--routes", "5", "--json"]
        )
        assert code == 0
        snapshot = json.loads(output)
        assert snapshot["routes"]["delivered"] >= 1
        assert "esl" in snapshot["protocol_messages"]

    def test_profile_lists_top_functions(self):
        import json

        argv = ["stats", "--side", "12", "--faults", "5", "--seed", "3",
                "--routes", "5", "--profile"]
        code, output = _run(argv)
        assert code == 0
        assert "top functions (cumulative, top 10)" in output
        for stage in ("esl", "protocols", "incremental", "routing"):
            assert f"stats.{stage}" in output
        code, output = _run([*argv, "--json"])
        assert code == 0
        rows = json.loads(output)["top_functions"]
        assert len(rows) == 10
        assert {"function", "calls", "tottime_s", "cumtime_s"} <= set(rows[0])


class TestChaosVerb:
    def test_converges_and_exits_zero(self):
        code, output = _run(
            ["chaos", "--side", "12", "--faults", "5", "--seed", "3",
             "--loss", "0.05", "--events", "6"]
        )
        assert code == 0
        assert "CONVERGED" in output

    def test_no_schedule(self):
        code, output = _run(
            ["chaos", "--side", "10", "--faults", "4", "--events", "0",
             "--loss", "0.02"]
        )
        assert code == 0
        assert "0 chaos events" in output

    def test_rejects_bad_probability(self):
        code, output = _run(["chaos", "--side", "10", "--loss", "1.5"])
        assert code == 2
        assert "probability" in output

    @pytest.mark.parametrize("verb", ["chaos", "top", "serve-metrics"])
    @pytest.mark.parametrize("flag", ["--jitter", "--pulses", "--events"])
    def test_rejects_negative_counts(self, verb, flag):
        code, output = _run([verb, "--side", "10", flag, "-1"])
        assert code == 2
        assert f"error: {flag} must be >= 0, got -1" in output

    def test_stats_chaos_emits_hot_counters(self):
        code, output = _run(
            ["stats", "--side", "12", "--faults", "6", "--seed", "3",
             "--routes", "5", "--chaos", "0.05", "--prom"]
        )
        assert code == 0
        assert 'repro_hot_counter_total{name="chaos.retries"}' in output
        assert 'repro_hot_counter_total{name="chaos.drops"}' in output


class TestStatsOut:
    def test_prom_out_writes_valid_exposition(self, tmp_path):
        from tests.promtext import parse

        target = tmp_path / "deep" / "metrics.prom"
        target.parent.mkdir()
        code, output = _run(
            ["stats", "--side", "12", "--faults", "5", "--seed", "3",
             "--routes", "5", "--prom", "--out", str(target)]
        )
        assert code == 0
        assert f"wrote {target}" in output
        parse(target.read_text())
        # Atomic write leaves no temp files behind.
        assert [p.name for p in target.parent.iterdir()] == ["metrics.prom"]

    def test_out_requires_prom(self, tmp_path):
        code, output = _run(
            ["stats", "--side", "12", "--faults", "5", "--seed", "3",
             "--routes", "5", "--out", str(tmp_path / "x.prom")]
        )
        assert code == 2
        assert "add --prom" in output

    def test_unwritable_out_is_run_failure(self, tmp_path):
        code, output = _run(
            ["stats", "--side", "12", "--faults", "5", "--seed", "3",
             "--routes", "5", "--prom", "--out", str(tmp_path)]  # a directory
        )
        assert code == 1
        assert "error" in output.lower()


class TestTopVerb:
    def test_once_renders_final_panel(self):
        code, output = _run(
            ["top", "--side", "10", "--faults", "4", "--seed", "3",
             "--loss", "0.05", "--events", "4", "--once", "--no-color"]
        )
        assert code == 0
        assert "repro top  t=" in output
        assert "net.carried" in output
        assert "CONVERGED" in output
        assert "\x1b[" not in output

    def test_refresh_validation(self):
        code, output = _run(["top", "--side", "10", "--refresh", "0"])
        assert code == 2
        assert "--refresh" in output


class TestServeMetricsVerb:
    def test_push_files_and_exit_zero(self, tmp_path):
        import json

        from tests.promtext import parse

        prom = tmp_path / "metrics.prom"
        series = tmp_path / "series.json"
        code, output = _run(
            ["serve-metrics", "--side", "10", "--faults", "4", "--seed", "3",
             "--loss", "0.05", "--events", "4",
             "--push", str(prom), "--series-out", str(series)]
        )
        assert code == 0
        assert "serving http://" in output
        families = parse(prom.read_text())
        assert "repro_live_sample" in families
        payload = json.loads(series.read_text())
        assert "net.carried" in payload["series"]

    def test_fail_on_alerts_is_clean_on_benign_run(self, tmp_path):
        code, output = _run(
            ["serve-metrics", "--side", "10", "--faults", "4", "--seed", "3",
             "--loss", "0.05", "--events", "4", "--fail-on-alerts"]
        )
        assert code == 0
        assert "FAIL" not in output

    def test_linger_validation(self):
        code, output = _run(["serve-metrics", "--side", "10", "--linger", "-1"])
        assert code == 2
        assert "--linger" in output

    def test_grace_validation(self):
        code, output = _run(["serve-metrics", "--side", "10", "--grace", "-1"])
        assert code == 2
        assert "--grace" in output

    def test_sigterm_during_linger_drains_and_exits_zero(self):
        import os
        import pathlib
        import signal
        import subprocess
        import sys
        import time

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve-metrics",
             "--side", "10", "--faults", "4", "--seed", "3",
             "--loss", "0.05", "--events", "4", "--linger", "30"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            lines = []
            for line in process.stdout:
                lines.append(line)
                if "serving http://" in line:
                    break
            assert any("serving http://" in line for line in lines), lines
            process.send_signal(signal.SIGTERM)
            started = time.monotonic()
            output, _ = process.communicate(timeout=10)
            elapsed = time.monotonic() - started
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, output
        assert "shutdown requested" in output
        assert elapsed < 10


class TestServeVerb:
    def test_ttl_run_serves_and_drains(self):
        code, output = _run(
            ["serve", "--side", "10", "--faults", "4", "--seed", "3",
             "--ttl", "0.5", "--events", "2", "--event-interval", "0.05"]
        )
        assert code == 0
        assert "serving http://" in output and "/query" in output
        assert "drained:" in output
        assert "generation 2" in output  # both chaos events landed

    def test_live_queries_over_http(self):
        import json
        import threading
        import urllib.request

        from repro.cli import main

        lines: list[str] = []
        banner = threading.Event()

        def out(line: str) -> None:
            lines.append(line)
            if "serving http://" in line:
                banner.set()

        thread = threading.Thread(
            target=main,
            args=(["serve", "--side", "10", "--faults", "4", "--seed", "3",
                   "--ttl", "3"], out),
        )
        thread.start()
        try:
            assert banner.wait(timeout=10), lines
            base = lines[0].split()[1].rsplit("/query", 1)[0]
            with urllib.request.urlopen(
                base + "/query?source=0,0&dest=9,9", timeout=5
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert payload["status"] == "ok"
            assert payload["answer"]["generation"] == 0
            assert payload["answer"]["verdict"] in (
                "source-safe", "preferred-neighbor-safe", "axis-node-safe",
                "pivot-safe", "spare-neighbor-safe", "unsafe",
                "blocked-endpoint",
            )
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    @pytest.mark.parametrize("argv, flag", [
        (["serve", "--workers", "0"], "--workers"),
        (["serve", "--queue-limit", "0"], "--queue-limit"),
        (["serve", "--deadline-ms", "0"], "--deadline-ms"),
        (["serve", "--max-staleness", "-1"], "--max-staleness"),
        (["serve", "--ttl", "0"], "--ttl"),
        (["serve", "--notice", "-1"], "--notice"),
    ])
    def test_argument_validation(self, argv, flag):
        code, output = _run(argv)
        assert code == 2
        assert flag in output


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    """One small flight-recorded chaos run shared by the replay tests."""
    log = tmp_path_factory.mktemp("recording") / "run.jsonl"
    code, output = _run(
        ["chaos", "--side", "8", "--faults", "3", "--seed", "3",
         "--loss", "0.05", "--dup", "0.02", "--events", "4",
         "--record", str(log)]
    )
    assert code == 0, output
    assert "recorded" in output and "run.jsonl.idx" in output
    return log


class TestReplayVerb:
    def test_record_writes_log_and_index(self, recording):
        assert recording.exists()
        assert recording.with_name("run.jsonl.idx").exists()

    def test_replay_is_bit_identical(self, recording):
        code, output = _run(["replay", str(recording)])
        assert code == 0
        assert "REPLAY OK" in output and "streams identical" in output

    def test_time_travel_snapshot(self, recording):
        code, output = _run(["replay", str(recording), "--at", "5"])
        assert code == 0
        assert "t=5" in output
        assert "faults" in output

    def test_lineage_of_the_header(self, recording):
        code, output = _run(["replay", str(recording), "--lineage", "0"])
        assert code == 0
        assert "run_meta" in output

    def test_lineage_of_a_delivery_walks_to_its_send(self, recording):
        from repro.obs import read_recording

        delivery = next(
            e for e in read_recording(recording) if e.kind == "msg_deliver"
        )
        code, output = _run(["replay", str(recording), "--lineage", str(delivery.seq)])
        assert code == 0
        assert "msg_send" in output and "msg_deliver" in output

    def test_lineage_unknown_event(self, recording):
        code, output = _run(["replay", str(recording), "--lineage", "9999999"])
        assert code == 2
        assert "not in this recording" in output

    def test_print_with_kind_filter(self, recording):
        code, output = _run(
            ["replay", str(recording), "--print",
             "--kind", "chaos_crash", "--kind", "chaos_revive"]
        )
        assert code == 0
        body, tally = output.splitlines()[:-1], output.splitlines()[-1]
        assert body  # the 4-event schedule applied something
        assert all("chaos_crash" in line or "chaos_revive" in line for line in body)
        assert " of " in tally and "events" in tally

    def test_print_with_node_filter(self, recording):
        code, unfiltered = _run(["replay", str(recording), "--print"])
        assert code == 0
        code, filtered = _run(["replay", str(recording), "--print", "--node", "0,0"])
        assert code == 0
        assert 0 < len(filtered.splitlines()) < len(unfiltered.splitlines())

    def test_unknown_kind_rejected(self, recording):
        code, output = _run(["replay", str(recording), "--print", "--kind", "banana"])
        assert code == 2
        assert "unknown event kind" in output

    def test_missing_log(self, tmp_path):
        code, output = _run(["replay", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "does not exist" in output

    def test_bisect_against_itself(self, recording):
        code, output = _run(["replay", str(recording), "--bisect", str(recording)])
        assert code == 0
        assert "identical" in output

    def test_bisect_pinpoints_a_perturbed_copy(self, recording, tmp_path):
        from repro.obs import RecorderSink, TraceEvent, read_recording

        events = read_recording(recording)
        target = next(
            e for e in events if e.kind == "msg_deliver" and e.seq > len(events) // 2
        )
        tampered = TraceEvent(
            kind=target.kind,
            seq=target.seq,
            data={**dict(target.data), "msg": "tampered"},
            cause=target.cause,
        )
        other = tmp_path / "perturbed.jsonl"
        sink = RecorderSink(other)
        for event in events:
            sink.record(tampered if event.seq == target.seq else event)
        sink.close()
        code, output = _run(["replay", str(recording), "--bisect", str(other)])
        assert code == 1
        assert f"first divergence at event {target.seq}" in output
        assert "ancestry" in output and "index probes" in output


class TestTraceFilters:
    BASE = ["trace", "0,0", "7,7", "--faults", "3", "--seed", "1"]

    def test_kind_filter_narrows_the_log(self):
        code, unfiltered = _run(self.BASE)
        assert code == 0
        code, output = _run([*self.BASE, "--kind", "hop"])
        assert code == 0
        assert unfiltered.count("hop ") > 0
        assert output.count("hop ") == unfiltered.count("hop ")
        assert "leg:" in unfiltered and "leg:" not in output  # route_start hidden

    def test_node_filter_narrows_the_log(self):
        code, unfiltered = _run(self.BASE)
        code, output = _run([*self.BASE, "--node", "0,0", "--node", "1,0"])
        assert code == 0
        assert 0 < output.count("hop ") < unfiltered.count("hop ")

    def test_unknown_kind_rejected(self):
        code, output = _run([*self.BASE, "--kind", "banana"])
        assert code == 2
        assert "unknown event kind" in output


class TestProtocols:
    def test_cost_table(self):
        code, output = _run(["protocols", "--side", "16", "--faults", "10"])
        assert code == 0
        for name in ("block formation", "ESL formation", "pivot broadcast"):
            assert name in output


class TestFigures:
    def test_single_quick_figure_with_csv(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        # Shrink the quick preset further for test speed.
        from repro.experiments import ExperimentConfig

        tiny = ExperimentConfig.scaled(side=32, patterns_per_count=2, destinations_per_pattern=4)
        monkeypatch.setattr(ExperimentConfig, "quick", staticmethod(lambda: tiny))
        code, output = _run(["figures", "fig7", "--csv", str(tmp_path)])
        assert code == 0
        assert "fig7" in output
        assert (tmp_path / "fig7.csv").exists()

    def test_plot_flag(self, monkeypatch):
        from repro.experiments import ExperimentConfig

        tiny = ExperimentConfig.scaled(side=32, patterns_per_count=2, destinations_per_pattern=4)
        monkeypatch.setattr(ExperimentConfig, "quick", staticmethod(lambda: tiny))
        code, output = _run(["figures", "fig8", "--plot"])
        assert code == 0
        assert "o=" in output  # the ASCII plot legend

    def test_condition_sweep_runs(self, monkeypatch):
        from repro.experiments import ExperimentConfig

        tiny = ExperimentConfig.scaled(side=32, patterns_per_count=2, destinations_per_pattern=4)
        monkeypatch.setattr(ExperimentConfig, "quick", staticmethod(lambda: tiny))
        code, output = _run(["figures", "fig9"])
        assert code == 0
        assert "fig9" in output


class TestMemoryAndSweep:
    def test_memory_table(self):
        code, output = _run(["memory", "--side", "16", "--faults", "10"])
        assert code == 0
        assert "routing table" in output
        assert "ESL + boundary tags" in output

    def test_sweep(self):
        code, output = _run(["sweep", "--sides", "24", "32", "--patterns", "2"])
        assert code == 0
        assert "size invariance" in output
        assert "safe_source" in output


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (["scenario", "--side", "0"], "--side"),
        (["serve", "--side", "1"], "--faults"),
        (["sweep", "--sides", "20", "--patterns", "0"], "--patterns"),
        (["sweep", "--sides", "5"], "--sides"),
        (["stats", "--routes", "-1"], "--routes"),
    ])
    def test_bad_scenario_size_is_a_usage_error(self, argv, flag):
        code, output = _run(argv)
        assert code == 2
        assert output.startswith("error:") and flag in output
