"""The ``repro bench`` harness: registry, runner, BENCH files, compare gate."""

import copy
import json

import pytest

from repro.bench import (
    BenchConfig,
    BenchRegistry,
    Workload,
    builtin_registry,
    compare_results,
    next_bench_path,
    run_benchmarks,
)
from repro.bench.runner import load_result, write_result
from repro.cli import main


def _tiny_registry() -> BenchRegistry:
    registry = BenchRegistry()

    @registry.register("micro.noop", description="does nothing, quickly")
    def run_noop(config):
        return sum(range(100))

    def pair_setup(config):
        return list(range(200 if config.quick else 2000))

    @registry.register("macro.sum", kind="macro", setup=pair_setup,
                       repeats=4, quick_repeats=2)
    def run_sum(state):
        return sum(state)

    return registry


class TestRegistry:
    def test_register_and_select(self):
        registry = _tiny_registry()
        assert registry.names() == ["micro.noop", "macro.sum"]
        assert [w.name for w in registry.select(["macro.*"])] == ["macro.sum"]
        assert len(registry.select(None)) == 2

    def test_duplicate_name_rejected(self):
        registry = _tiny_registry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.add(Workload(name="micro.noop", kind="micro", run=lambda s: s))

    def test_unknown_pattern_fails_loudly(self):
        with pytest.raises(KeyError, match="no workload matches"):
            _tiny_registry().select(["macro.typo*"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Workload(name="x", kind="mega", run=lambda s: s)

    def test_builtins_cover_both_kinds(self):
        registry = builtin_registry()
        kinds = {registry.get(name).kind for name in registry.names()}
        assert kinds == {"micro", "macro"}
        assert "micro.esl_compute" in registry
        assert "macro.fig9_sweep" in registry

    def test_serve_sweep_registered_as_macro(self):
        registry = builtin_registry()
        assert "serve.qps_sweep" in registry
        workload = registry.get("serve.qps_sweep")
        assert workload.kind == "macro"
        assert workload.setup is None  # receives BenchConfig directly

    def test_incremental_vs_full_rebuild_pair_registered(self):
        """The delta-maintenance headline pair shares one setup so the
        p50 ratio is the per-event maintenance speedup."""
        registry = builtin_registry()
        incremental = registry.get("faults.incremental_update")
        full = registry.get("faults.full_rebuild")
        assert incremental.setup is full.setup
        assert incremental.repeats == full.repeats

    def test_incremental_workload_beats_full_rebuild_quick(self):
        """CI-scale teeth for the perf claim: even at --quick scale the
        delta-maintained run must beat rebuilding from scratch."""
        from repro.bench.runner import BenchConfig, run_benchmarks

        registry = builtin_registry()
        config = BenchConfig(quick=True, repeats=3, seed=2002)
        result = run_benchmarks(
            registry.select(["faults.*"]), config
        )
        incremental = result["workloads"]["faults.incremental_update"]
        full = result["workloads"]["faults.full_rebuild"]
        assert incremental["wall_time_s"]["p50"] < full["wall_time_s"]["p50"]

    def test_discovery_runs_hooks(self, tmp_path):
        (tmp_path / "bench_fake.py").write_text(
            "def register_workloads(registry):\n"
            "    registry.add_called = True\n"
            "    @registry.register('micro.discovered')\n"
            "    def run(config):\n"
            "        return config.seed\n"
        )
        (tmp_path / "bench_broken.py").write_text("raise RuntimeError('boom')\n")
        (tmp_path / "bench_plain.py").write_text("X = 1\n")  # no hook: fine
        registry = BenchRegistry()
        warnings = registry.load_directory(tmp_path)
        assert "micro.discovered" in registry
        assert len(warnings) == 1 and "bench_broken.py" in warnings[0]

    def test_discovery_of_repo_benchmarks(self):
        registry = builtin_registry()
        warnings = registry.load_directory("benchmarks")
        assert warnings == []
        assert "micro.existence_oracle" in registry
        assert "macro.traffic_wu" in registry

    def test_missing_directory_warns(self):
        warnings = BenchRegistry().load_directory("no/such/dir")
        assert len(warnings) == 1 and "does not exist" in warnings[0]


class TestRunner:
    def test_result_shape(self):
        result = run_benchmarks(
            _tiny_registry().select(None), BenchConfig(quick=True)
        )
        assert result["schema"] == 1 and result["quick"] is True
        noop = result["workloads"]["micro.noop"]
        assert noop["kind"] == "micro"
        assert noop["repeats"] == 5  # quick default
        wall = noop["wall_time_s"]
        assert wall["count"] == 5 and wall["p50"] is not None
        assert result["workloads"]["macro.sum"]["repeats"] == 2
        json.dumps(result)  # fully JSON-ready

    def test_repeats_override(self):
        result = run_benchmarks(
            _tiny_registry().select(["micro.noop"]),
            BenchConfig(quick=True, repeats=3),
        )
        assert result["workloads"]["micro.noop"]["wall_time_s"]["count"] == 3

    def test_setupless_workload_receives_config(self):
        seen = {}
        registry = BenchRegistry()

        @registry.register("micro.probe")
        def run(config):
            seen["config"] = config

        run_benchmarks(registry.select(None), BenchConfig(quick=True, seed=77))
        assert isinstance(seen["config"], BenchConfig)
        assert seen["config"].seed == 77

    def test_every_run_gets_a_fresh_artifact_cache(self):
        from repro.parallel.cache import get_artifact_cache

        caches = []
        registry = BenchRegistry()

        @registry.register("micro.memo")
        def run(config):
            cache = get_artifact_cache()
            caches.append((cache, len(cache)))
            cache.get_or_build("memo", lambda: 1)

        outer = get_artifact_cache()
        run_benchmarks(registry.select(None), BenchConfig(quick=True, repeats=3))
        # warm-up + 3 timed + 1 profiled, none served from another's entry
        assert len({id(cache) for cache, _ in caches}) == 5
        assert all(size == 0 for _, size in caches)
        assert get_artifact_cache() is outer and "memo" not in outer

    def test_traced_run_collects_metrics(self):
        registry = BenchRegistry()

        @registry.register("micro.traced")
        def run(config):
            from repro.obs import get_tracer
            get_tracer().emit("route_end", hops=4, minimal=True, detours=0)

        result = run_benchmarks(registry.select(None), BenchConfig(quick=True))
        metrics = result["workloads"]["micro.traced"]["metrics"]
        # only the single traced run feeds the metrics, not the timed repeats
        assert metrics["routes"]["delivered"] == 1
        assert metrics["routes"]["hops"]["p50"] == 4.0


class TestBenchFiles:
    def test_next_bench_path_appends(self, tmp_path):
        assert next_bench_path(tmp_path).name == "BENCH_1.json"
        (tmp_path / "BENCH_1.json").write_text("{}")
        (tmp_path / "BENCH_7.json").write_text("{}")
        (tmp_path / "BENCH_notanumber.json").write_text("{}")
        assert next_bench_path(tmp_path).name == "BENCH_8.json"

    def test_write_and_load_round_trip(self, tmp_path):
        result = {"schema": 1, "workloads": {}}
        path = write_result(result, tmp_path / "sub" / "BENCH_1.json")
        assert load_result(path) == result


def _fake_result(p50_by_name: dict) -> dict:
    return {
        "schema": 1,
        "workloads": {
            name: {"wall_time_s": {"p50": p50, "count": 5}}
            for name, p50 in p50_by_name.items()
        },
    }


class TestCompare:
    def test_within_tolerance_passes(self):
        old = _fake_result({"a": 0.100, "b": 0.050})
        new = _fake_result({"a": 0.110, "b": 0.045})
        lines, regressed = compare_results(new, old, tolerance=0.15)
        assert regressed == []
        assert all("ok" in line for line in lines)

    def test_regression_detected(self):
        old = _fake_result({"a": 0.100, "b": 0.050})
        new = _fake_result({"a": 0.200, "b": 0.050})
        lines, regressed = compare_results(new, old, tolerance=0.15)
        assert regressed == ["a"]
        assert any("REGRESSED" in line and "x2.00" in line for line in lines)

    def test_boundary_is_not_regression(self):
        old = _fake_result({"a": 0.100})
        new = _fake_result({"a": 0.115})
        _, regressed = compare_results(new, old, tolerance=0.15)
        assert regressed == []

    def test_one_sided_workloads_never_fail(self):
        old = _fake_result({"retired": 0.1, "common": 0.1})
        new = _fake_result({"added": 0.2, "common": 0.1})
        lines, regressed = compare_results(new, old, tolerance=0.0)
        assert regressed == []
        removed = next(line for line in lines if "retired" in line)
        assert removed.startswith("- retired: removed")
        assert "in baseline only" in removed and "p50 100.00ms" in removed
        added = next(line for line in lines if "added" in line)
        assert added.startswith("+ added: added")
        assert "no baseline" in added and "p50 200.00ms" in added

    def test_one_sided_workload_without_wall_time(self):
        old = _fake_result({})
        new = {"schema": 1, "workloads": {"fresh": {}}}
        lines, regressed = compare_results(new, old)
        assert regressed == []
        assert lines == ["+ fresh: added (no baseline, no wall-time recorded)"]

    def test_missing_p50_reported_not_fatal(self):
        old = _fake_result({"a": 0.1})
        new = copy.deepcopy(old)
        new["workloads"]["a"]["wall_time_s"]["p50"] = None
        lines, regressed = compare_results(new, old)
        assert regressed == []
        assert any("no comparable wall-time" in line for line in lines)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_results(_fake_result({}), _fake_result({}), tolerance=-0.1)


class TestBenchCli:
    def _run(self, *argv: str) -> tuple[int, str]:
        lines: list[str] = []
        code = main(["bench", *argv], out=lines.append)
        return code, "\n".join(lines)

    def test_list(self):
        code, text = self._run("--list")
        assert code == 0
        assert "micro.esl_compute" in text and "[macro]" in text

    def test_quick_run_writes_bench_file(self, tmp_path):
        out_path = tmp_path / "BENCH_1.json"
        code, text = self._run(
            "--quick", "--only", "micro.wu_single_route",
            "--out", str(out_path), "--repeats", "2",
        )
        assert code == 0 and "wrote" in text
        result = load_result(out_path)
        assert set(result["workloads"]) == {"micro.wu_single_route"}
        assert result["workloads"]["micro.wu_single_route"]["hot_counters"][
            "router.routes"
        ] >= 1

    def test_compare_gate_pass_and_fail(self, tmp_path):
        out_path = tmp_path / "new.json"
        code, _ = self._run(
            "--quick", "--only", "micro.esl_compute",
            "--out", str(out_path), "--repeats", "2",
        )
        assert code == 0
        result = load_result(out_path)

        # generous baseline: passes
        slow = copy.deepcopy(result)
        for workload in slow["workloads"].values():
            workload["wall_time_s"]["p50"] *= 100
        baseline = tmp_path / "slow.json"
        baseline.write_text(json.dumps(slow))
        code, text = self._run(
            "--quick", "--only", "micro.esl_compute", "--repeats", "2",
            "--no-write", "--compare", str(baseline),
        )
        assert code == 0 and "compare: ok" in text

        # impossible baseline: fails non-zero
        fast = copy.deepcopy(result)
        for workload in fast["workloads"].values():
            workload["wall_time_s"]["p50"] /= 1e6
        baseline.write_text(json.dumps(fast))
        code, text = self._run(
            "--quick", "--only", "micro.esl_compute", "--repeats", "2",
            "--no-write", "--compare", str(baseline),
        )
        assert code == 1 and "FAIL" in text and "REGRESSED" in text

    def test_no_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _ = self._run(
            "--quick", "--only", "micro.esl_compute", "--repeats", "2",
            "--no-write", "--bench-dir", "benchmarks",
        )
        assert code == 0
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_compare_missing_baseline_is_a_clear_error(self, tmp_path):
        code, text = self._run(
            "--quick", "--only", "micro.esl_compute", "--repeats", "2",
            "--no-write", "--compare", str(tmp_path / "nope.json"),
        )
        assert code == 2
        assert "does not exist" in text
        assert "Traceback" not in text

    def test_compare_corrupt_baseline_is_a_clear_error(self, tmp_path):
        baseline = tmp_path / "corrupt.json"
        baseline.write_text("{not json")
        code, text = self._run(
            "--quick", "--only", "micro.esl_compute", "--repeats", "2",
            "--no-write", "--compare", str(baseline),
        )
        assert code == 2
        assert "not valid JSON" in text

    def test_compare_non_bench_json_is_a_clear_error(self, tmp_path):
        baseline = tmp_path / "other.json"
        baseline.write_text(json.dumps({"something": "else"}))
        code, text = self._run(
            "--quick", "--only", "micro.esl_compute", "--repeats", "2",
            "--no-write", "--compare", str(baseline),
        )
        assert code == 2
        assert "workloads" in text
