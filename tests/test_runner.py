"""Tests for the campaign runner: registry, cache, instrumentation, fan-out.

The end-to-end tests use the cheapest catalogue experiments (fig3,
fig13) so the suite demonstrates cache hit/miss and parallel-vs-serial
equivalence without paying for a heavy DES workload.
"""

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS as CLI_EXPERIMENTS
from repro.cli import _to_jsonable
from repro.cli import main as cli_main
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    UnknownExperimentError,
    resolve_names,
)
from repro.runner import (
    ResultCache,
    RunRecord,
    execute_experiment,
    instrumented_call,
    run_campaign,
    source_hash,
    streams_by_worker,
)

CHEAP = ["fig3", "fig13"]
REPO_ROOT = Path(__file__).resolve().parents[1]
#: ``repro list --params`` as it read while the catalogue imported every
#: module: names, descriptions and each entry's ``default_params``.
CATALOGUE_LISTING = REPO_ROOT / "tests" / "data" / "catalogue_list_params.txt"


def _record(name="fig3", seed=7, **overrides):
    base = dict(
        experiment=name,
        seed=seed,
        cached=False,
        wall_time_s=1.0,
        events_scheduled=10,
        events_executed=8,
        events_cancelled=2,
        rng_streams_drawn=3,
        peak_rss_kib=1024,
        worker_pid=1,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestRegistry:
    def test_cli_and_registry_share_one_catalogue(self):
        assert CLI_EXPERIMENTS is EXPERIMENTS

    def test_specs_are_complete(self):
        for name, spec in EXPERIMENTS.items():
            assert isinstance(spec, ExperimentSpec)
            assert spec.name == name
            assert spec.module.__name__ == f"repro.experiments.{spec.module_name}"
            assert callable(spec.module.run)
            assert spec.description

    def test_listing_and_params_are_unchanged(self, capsys):
        assert cli_main(["list", "--params"]) == 0
        assert capsys.readouterr().out == CATALOGUE_LISTING.read_text()
        assert cli_main(["list"]) == 0
        names_only = [
            line for line in CATALOGUE_LISTING.read_text().splitlines(keepends=True)
            if "params:" not in line
        ]
        assert capsys.readouterr().out == "".join(names_only)

    def test_spec_is_not_iterable(self):
        # The legacy tuple-unpack shim is gone: specs are accessed by field.
        with pytest.raises(TypeError):
            iter(EXPERIMENTS["fig3"])

    def test_default_params_excludes_seed_and_scenario(self):
        params = EXPERIMENTS["fig16"].default_params
        assert params == {"trials": 3}
        assert EXPERIMENTS["tab4"].default_params == {}

    def test_run_forwards_known_params_and_rejects_unknown(self):
        spec = EXPERIMENTS["tab1"]
        result = spec.run(7, num_points=50)
        assert result is not None
        with pytest.raises(TypeError) as excinfo:
            spec.run(7, num_pts=50)
        assert "num_pts" in str(excinfo.value)
        assert "num_points" in str(excinfo.value)

    def test_resolve_names_dedupes_preserving_order(self):
        assert resolve_names(["fig7", "fig3", "fig7", "fig3"]) == ["fig7", "fig3"]

    def test_resolve_names_rejects_unknown(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            resolve_names(["fig3", "fig99"])
        assert "fig99" in str(excinfo.value)

    def test_resolve_all_returns_catalogue_order(self):
        assert resolve_names([], run_all=True) == list(EXPERIMENTS)
        assert resolve_names(["fig7"], run_all=True) == list(EXPERIMENTS)


def _catalogue_modules_after(code: str) -> list[str]:
    """The catalogue modules a fresh interpreter holds after running ``code``."""
    script = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    ).stdout.split()
    catalogue = {f"repro.experiments.{spec.module_name}" for spec in EXPERIMENTS.values()}
    return sorted(catalogue.intersection(loaded))


class TestLazyCatalogue:
    """The catalogue names its modules; a module loads when it runs."""

    def test_reading_the_catalogue_imports_no_experiment(self):
        code = (
            "import contextlib, io\n"
            "import repro.experiments.registry\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['list'])\n"
            "    main(['paper-index'])\n"
            "from repro.experiments.registry import resolve_names\n"
            "resolve_names(['fig7', 'remedy_comparison'])\n"
        )
        assert _catalogue_modules_after(code) == []

    def test_a_run_imports_its_module_alone(self, tmp_path):
        code = (
            "import sys\n"
            "from repro.runner import worker\n"
            "timed = worker.instrumented_call\n"
            "def clock_starts(*args):\n"
            "    # The module is imported before the run's clock starts.\n"
            "    assert 'repro.experiments.tab1_physical_info' in sys.modules\n"
            "    return timed(*args)\n"
            "worker.instrumented_call = clock_starts\n"
            f"_, record = worker.execute_experiment('tab1', 7, cache_root={str(tmp_path)!r})\n"
            "assert not record.cached\n"
        )
        assert _catalogue_modules_after(code) == ["repro.experiments.tab1_physical_info"]
        # A cache hit in a fresh process: unpickling imports the result's module.
        code = code.replace("assert not", "assert")
        assert _catalogue_modules_after(code) == ["repro.experiments.tab1_physical_info"]

    def test_submodules_import_from_the_package(self):
        from repro.experiments import fig7_throughput

        assert fig7_throughput is EXPERIMENTS["fig7"].module


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load("fig3", 7) is None
        cache.store("fig3", 7, {"answer": 42}, _record())
        hit = cache.load("fig3", 7)
        assert hit.result == {"answer": 42}
        assert hit.record.cached  # served-from-cache copies are marked
        assert hit.record.wall_time_s == 1.0  # original provenance kept

    def test_keys_separate_by_seed_and_scenario(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = [
            cache.store("fig3", 7, "seven", _record()),
            cache.store("fig3", 8, "eight", _record(seed=8)),
            cache.store("fig3", 7, "dense", _record(), scenario_digest="51f3490f674ab1b6"),
        ]
        assert [path.name for path in paths] == [
            "fig3--seed=7.pkl",
            "fig3--seed=8.pkl",
            "fig3--seed=7--scn=51f3490f674ab1b6.pkl",
        ]
        assert cache.load("fig3", 7).result == "seven"
        assert cache.load("fig3", 8).result == "eight"
        assert cache.load("fig3", 7, scenario_digest="51f3490f674ab1b6").result == "dense"
        assert cache.load("fig3", 9) is None

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("fig3", 7, "ok", _record())
        path.write_bytes(b"not a pickle")
        with pytest.warns(UserWarning, match="dropping corrupt cache entry"):
            assert cache.load("fig3", 7) is None
        assert not path.exists()

    def test_corrupt_entry_warns_and_counts(self, tmp_path):
        from repro import instruments
        from repro.metrics import MetricRegistry

        cache = ResultCache(tmp_path)
        path = cache.store("fig3", 7, "ok", _record())
        path.write_bytes(b"not a pickle")
        registry = MetricRegistry()
        with instruments.using(registry=registry):
            with pytest.warns(UserWarning, match="dropping corrupt cache entry"):
                assert cache.load("fig3", 7) is None
        assert registry.counter("cache.corrupt_dropped_count").value == 1

    def test_failed_store_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path)

        class Unpicklable:
            def __reduce__(self):
                raise TypeError("refuses to pickle")

        with pytest.raises(TypeError, match="refuses to pickle"):
            cache.store("fig3", 7, Unpicklable(), _record())
        strays = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert strays == []  # no .tmp.<pid> debris, no partial entry
        assert cache.load("fig3", 7) is None

    def test_entries_live_under_source_hash(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store("fig3", 7, "ok", _record())
        assert path.parent.name == source_hash()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store("fig3", 7, "a", _record())
        cache.store("fig13", 7, "b", _record(name="fig13"))
        assert cache.clear() == 2
        assert cache.load("fig3", 7) is None


class TestInstrumentation:
    def test_record_captures_deltas(self):
        from repro.net.sim import Simulator

        def job():
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None).cancel()
            sim.run()
            return "done"

        result, record = instrumented_call("job", 3, job)
        assert result == "done"
        assert record.experiment == "job"
        assert record.seed == 3
        assert not record.cached
        assert record.wall_time_s > 0
        assert record.events_scheduled == 2
        assert record.events_executed == 1
        assert record.events_cancelled == 1
        assert record.peak_rss_kib > 0
        assert record.as_cached().cached

    def test_record_rss_semantics(self):
        # peak_rss_kib is the process high-water mark *after* the run;
        # rss_growth_kib is the delta across the run and never negative.
        _, record = instrumented_call("job", 3, lambda: None)
        assert record.peak_rss_kib > 0
        assert 0 <= record.rss_growth_kib <= record.peak_rss_kib

    def test_trace_summary_absent_without_tracer(self):
        _, record = instrumented_call("job", 3, lambda: None)
        assert record.trace_summary is None

    def test_trace_summary_is_a_delta_under_installed_tracer(self):
        from repro import instruments
        from repro.trace import Tracer

        tracer = Tracer()
        with instruments.using(tracer=tracer):
            tracer.instant("pre.existing", 0.0)  # must not leak into the delta

            def job():
                tracer.complete("job.work", 0.0, 1.0)
                tracer.counter("job.metric", 0.5, 1.0)
                return "done"

            result, record = instrumented_call("job", 3, job)
        assert result == "done"
        assert record.trace_summary == {
            "spans": 1, "instants": 0, "counter_samples": 1, "dropped": 0
        }

    def test_one_record_per_run_keeps_callers_tracer_and_profiler(self, monkeypatch):
        from repro import instruments
        from repro.audit import Auditor
        from repro.runner import ProfileCollector
        from repro.trace import Tracer

        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)
        tracer, collector, outer_auditor = Tracer(), ProfileCollector(), Auditor()
        seen = []
        with instruments.using(
            tracer=tracer, profiler=collector, auditor=outer_auditor
        ) as outer:
            instrumented_call("job", 3, lambda: seen.append(instruments.current()))
            assert instruments.current() is outer
            monkeypatch.setenv("REPRO_NO_AUDIT", "1")
            instrumented_call("job", 4, lambda: seen.append(instruments.current()))
        audited, unaudited = seen
        assert audited.tracer is tracer and audited.profiler is collector
        assert audited.registry.origin == "job:3"
        assert audited.auditor.enabled and audited.auditor is not outer_auditor
        # With audits off the run keeps the caller's auditor.
        assert unaudited.auditor is outer_auditor
        assert unaudited.registry.origin == "job:4"

    def test_record_is_picklable_and_jsonable(self):
        record = _record()
        assert pickle.loads(pickle.dumps(record)) == record
        payload = json.loads(json.dumps(record.as_dict()))
        assert payload["experiment"] == "fig3"
        assert payload["rss_growth_kib"] == 0
        assert payload["trace_summary"] is None

    def test_streams_by_worker_sums_per_pid(self):
        records = [
            _record(rng_streams_drawn=3, worker_pid=100),
            _record(name="fig13", rng_streams_drawn=4, worker_pid=200),
            _record(name="fig6", rng_streams_drawn=5, worker_pid=100),
        ]
        assert streams_by_worker(records) == {100: 8, 200: 4}

    def test_streams_by_worker_skips_cached_records(self):
        records = [
            _record(rng_streams_drawn=3, worker_pid=100),
            _record(name="fig13", rng_streams_drawn=9, worker_pid=100, cached=True),
        ]
        assert streams_by_worker(records) == {100: 3}
        assert streams_by_worker([]) == {}


class TestExecuteExperiment:
    def test_cold_run_stores_then_hits(self, tmp_path):
        result, record = execute_experiment("fig13", 7, str(tmp_path))
        assert not record.cached
        assert record.rng_streams_drawn > 0
        cached_result, cached_record = execute_experiment("fig13", 7, str(tmp_path))
        assert cached_record.cached
        assert _to_jsonable(cached_result) == _to_jsonable(result)

    def test_without_cache_root_never_writes(self, tmp_path):
        execute_experiment("fig13", 7, None)
        assert not any(tmp_path.iterdir())


class TestRunCampaign:
    def test_serial_parallel_and_cached_results_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        serial = run_campaign(CHEAP, seed=7, parallel=1, cache=None)
        parallel = run_campaign(CHEAP, seed=7, parallel=2, cache=cache)
        cached = run_campaign(CHEAP, seed=7, parallel=1, cache=cache)
        assert [o.name for o in serial] == CHEAP
        assert [o.name for o in parallel] == CHEAP
        assert not any(o.record.cached for o in parallel)
        assert all(o.record.cached for o in cached)
        for s, p, c in zip(serial, parallel, cached):
            assert _to_jsonable(s.result) == _to_jsonable(p.result)
            assert _to_jsonable(s.result) == _to_jsonable(c.result)

    def test_serial_and_parallel_cached_results_byte_identical(self, tmp_path):
        """Same seed, serial vs --parallel 2: the cached payloads match byte
        for byte, not merely structurally."""
        serial_cache = ResultCache(tmp_path / "serial")
        parallel_cache = ResultCache(tmp_path / "parallel")
        serial = run_campaign(CHEAP, seed=7, parallel=1, cache=serial_cache)
        parallel = run_campaign(CHEAP, seed=7, parallel=2, cache=parallel_cache)
        for s, p in zip(serial, parallel):
            assert pickle.dumps(s.result) == pickle.dumps(p.result)

    def test_second_invocation_at_least_5x_faster_via_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        started = time.perf_counter()
        run_campaign(CHEAP, seed=7, cache=cache)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        outcomes = run_campaign(CHEAP, seed=7, cache=cache)
        warm_s = time.perf_counter() - started
        assert all(o.record.cached for o in outcomes)
        assert warm_s < cold_s / 5, f"cache gave only {cold_s / warm_s:.1f}x"

    def test_progress_reports_every_outcome(self, tmp_path):
        seen = []
        run_campaign(["fig13"], seed=7, cache=None, progress=seen.append)
        assert [o.name for o in seen] == ["fig13"]
        assert seen[0].record.experiment == "fig13"

    def test_duplicate_names_run_once(self):
        calls = []
        outcomes = run_campaign(
            ["fig13", "fig13"], seed=7, cache=None, progress=calls.append
        )
        assert [o.name for o in outcomes] == ["fig13"]
        assert len(calls) == 1

    def test_unknown_name_raises_before_running(self):
        with pytest.raises(UnknownExperimentError):
            run_campaign(["nope"], seed=7, cache=None)

    def test_empty_request(self):
        assert run_campaign([], seed=7, cache=None) == []


class TestProfiling:
    def test_profiled_call_returns_result_and_rows(self):
        from repro.runner import ProfileCollector
        from repro.runner.profiling import profiled_call

        collector = ProfileCollector(top_n=5)
        result, rows = profiled_call("x", collector, lambda: sum(range(1000)))
        assert result == sum(range(1000))
        assert collector.runs == 1
        assert len(rows) <= 5
        for row in rows:
            assert {"function", "ncalls", "tottime_s", "cumtime_s"} <= set(row)

    def test_install_stack_mirrors_trace(self):
        from repro import instruments
        from repro.runner import ProfileCollector

        assert instruments.current().profiler is None
        collector = ProfileCollector()
        installed = instruments.using(profiler=collector)
        installed.__enter__()
        assert instruments.current().profiler is collector
        with pytest.raises(RuntimeError, match="different record"):
            instruments.using(profiler=ProfileCollector()).__exit__(None, None, None)
        installed.__exit__(None, None, None)
        assert instruments.current().profiler is None

    def test_empty_collector_refuses_dump(self, tmp_path):
        from repro.runner import ProfileCollector

        collector = ProfileCollector()
        assert collector.empty
        with pytest.raises(RuntimeError, match="no profiled runs"):
            collector.dump(str(tmp_path / "out.pstats"))

    def test_instrumented_call_attaches_profile_top(self, tmp_path):
        import pstats

        from repro import instruments
        from repro.runner import ProfileCollector

        collector = ProfileCollector()
        with instruments.using(profiler=collector):
            _, record = instrumented_call("fig13", 7, lambda: EXPERIMENTS["fig13"].run(7))
        assert record.profile_top is not None
        assert any("fig13" in row["function"] for row in record.profile_top)
        path = tmp_path / "campaign.pstats"
        collector.dump(str(path))
        stats = pstats.Stats(str(path))
        assert stats.total_calls > 0

    def test_uninstrumented_record_has_no_profile(self):
        _, record = instrumented_call("fig13", 7, lambda: EXPERIMENTS["fig13"].run(7))
        assert record.profile_top is None


class TestCampaignMetrics:
    def test_record_metrics_snapshot_for_instrumented_experiment(self):
        _, record = instrumented_call("fig13", 7, lambda: EXPERIMENTS["fig13"].run(7))
        assert record.metrics is not None
        assert "fig13.rtt_gap.mean_ms" in record.metrics["metrics"]

    def test_record_metrics_none_without_kpis(self):
        _, record = instrumented_call("fig3", 7, lambda: EXPERIMENTS["fig3"].run(7))
        assert record.metrics is None

    def test_serial_and_parallel_merged_metrics_byte_identical(self):
        from repro.runner import merged_metrics

        serial = run_campaign(["fig13", "fig22"], seed=7, parallel=1, cache=None)
        parallel = run_campaign(["fig13", "fig22"], seed=7, parallel=2, cache=None)
        assert json.dumps(merged_metrics(serial), sort_keys=True) == json.dumps(
            merged_metrics(parallel), sort_keys=True
        )
