"""Tests for the CLI: JSON export fidelity, dedupe, metadata, flags."""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.cli import _to_jsonable, main


@dataclasses.dataclass(frozen=True)
class _NumpyResult:
    count: np.int64
    ratio: np.float32
    flag: np.bool_
    trace: np.ndarray
    nested: dict


def _numpy_result() -> _NumpyResult:
    return _NumpyResult(
        count=np.int64(42),
        ratio=np.float32(0.5),
        flag=np.bool_(True),
        trace=np.array([[1.5, 2.5], [3.5, 4.5]]),
        nested={"depth": np.int32(7), "values": (np.float64(1.0), np.uint8(3))},
    )


class TestToJsonable:
    def test_numpy_scalars_become_numbers(self):
        out = _to_jsonable(_numpy_result())
        assert out["count"] == 42 and isinstance(out["count"], int)
        assert out["ratio"] == 0.5 and isinstance(out["ratio"], float)
        assert out["flag"] is True
        assert out["nested"]["depth"] == 7
        assert out["nested"]["values"] == [1.0, 3]

    def test_ndarray_becomes_nested_lists(self):
        out = _to_jsonable(_numpy_result())
        assert out["trace"] == [[1.5, 2.5], [3.5, 4.5]]

    def test_round_trips_through_json_without_repr_strings(self):
        text = json.dumps(_to_jsonable(_numpy_result()))
        assert "np." in repr(np.int64(42))  # the failure mode being guarded
        assert "np." not in text
        assert json.loads(text)["count"] == 42

    def test_plain_python_passthrough(self):
        value = {"a": [1, 2.5, "x", None, True], "b": (1, 2)}
        assert _to_jsonable(value) == {"a": [1, 2.5, "x", None, True], "b": [1, 2]}

    def test_opaque_objects_still_fall_back_to_repr(self):
        assert _to_jsonable(object).startswith("<class")


class TestRunCommand:
    def test_duplicate_names_export_once_with_metadata(self, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        assert main(["run", "fig13", "fig13", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["seed"] == 7
        assert list(payload["experiments"]) == ["fig13"]
        entry = payload["experiments"]["fig13"]
        assert entry["wall_time_s"] > 0
        assert entry["cached"] is False
        assert entry["record"]["seed"] == 7
        # The experiment ran once, not twice.
        out = capsys.readouterr().out
        assert out.count("== fig13:") == 1

    def test_second_run_serves_from_cache(self, tmp_path, capsys):
        assert main(["run", "fig13"]) == 0
        assert main(["run", "fig13"]) == 0
        assert "[cache]" in capsys.readouterr().out

    def test_no_cache_flag_bypasses_cache(self, tmp_path, capsys):
        assert main(["run", "fig13", "--no-cache"]) == 0
        assert main(["run", "fig13", "--no-cache"]) == 0
        assert "[cache]" not in capsys.readouterr().out

    def test_timings_table(self, tmp_path, capsys):
        assert main(["run", "fig13", "--observe", "timings", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Campaign timings" in out
        assert "rng streams" in out

    def test_run_without_names_or_all_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_seed_flows_into_export(self, tmp_path):
        out_file = tmp_path / "out.json"
        assert main(["run", "fig13", "--seed", "11", "--json", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["seed"] == 11
        assert payload["experiments"]["fig13"]["record"]["seed"] == 11


class TestTraceFlag:
    """`run --observe trace`; fig23 drives the energy simulator directly (no
    in-process result caching), so every traced run actually emits records."""

    def _trace(self, out_dir, *extra):
        assert main(
            ["run", "fig23", "--observe", "trace", "--out", str(out_dir), *extra]
        ) == 0
        return out_dir / "trace.jsonl"

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        trace_file = self._trace(tmp_path, "--no-cache")
        assert "wrote trace" in capsys.readouterr().out
        lines = trace_file.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["meta"]["experiments"] == ["fig23"]
        assert header["meta"]["seed"] == 7
        assert len(lines) > 1  # energy.* spans made it to disk

    def test_trace_writes_chrome_json(self, tmp_path):
        trace_file = tmp_path / "fig23.trace.json"
        jsonl = self._trace(tmp_path, "--no-cache")
        assert main(["inspect", "export", str(jsonl), str(trace_file)]) == 0
        document = json.loads(trace_file.read_text())
        assert isinstance(document["traceEvents"], list)
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        assert document["otherData"]["experiments"] == ["fig23"]

    def test_trace_forces_serial(self, tmp_path, capsys):
        self._trace(tmp_path, "--parallel", "4")
        assert "ignoring --parallel" in capsys.readouterr().err

    def test_traced_run_matches_untraced_export(self, tmp_path):
        plain_file = tmp_path / "plain.json"
        traced_file = tmp_path / "traced.json"
        assert main(["run", "fig23", "--no-cache", "--json", str(plain_file)]) == 0
        self._trace(tmp_path, "--no-cache", "--json", str(traced_file))
        plain = json.loads(plain_file.read_text())["experiments"]["fig23"]["result"]
        traced = json.loads(traced_file.read_text())["experiments"]["fig23"]["result"]
        assert json.dumps(plain, sort_keys=True) == json.dumps(traced, sort_keys=True)


class TestTraceCommand:
    """``repro inspect`` on trace files, and its kind detection."""

    def _write_trace(self, path):
        from repro.trace import Tracer, write_jsonl

        tracer = Tracer()
        tracer.complete("ho.phase:rrc", 1.0, 1.5, kind="5G-5G")
        tracer.counter("sim.queue_depth", 1.0, 3.0)
        write_jsonl(tracer, str(path))

    def test_summary(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        self._write_trace(trace_file)
        assert main(["inspect", "show", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "ho.phase:rrc" in out
        assert "sim.queue_depth" in out

    def test_export_to_chrome(self, tmp_path, capsys):
        trace_file = tmp_path / "t.jsonl"
        out_file = tmp_path / "t.json"
        self._write_trace(trace_file)
        assert main(["inspect", "export", str(trace_file), str(out_file)]) == 0
        assert "trace event(s)" in capsys.readouterr().out
        assert isinstance(json.loads(out_file.read_text())["traceEvents"], list)
        # The Chrome document is recognised as a trace too.
        assert main(["inspect", "show", str(out_file)]) == 0
        assert "ho.phase:rrc" in capsys.readouterr().out

    def test_diff_identical_exits_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(a)
        self._write_trace(b)
        assert main(["inspect", "diff", str(a), str(b)]) == 0
        assert "(identical)" in capsys.readouterr().out

    def test_diff_divergent_exits_one(self, tmp_path, capsys):
        from repro.trace import Tracer, write_jsonl

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self._write_trace(a)
        other = Tracer()
        other.complete("ho.phase:rrc", 1.0, 1.9, kind="5G-5G")
        write_jsonl(other, str(b))
        assert main(["inspect", "diff", str(a), str(b)]) == 1
        assert "span total (ms)" in capsys.readouterr().out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["inspect", "show", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_empty_file_fails_with_message(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["inspect", "show", str(empty)]) == 1
        assert "empty file" in capsys.readouterr().err
        empty.write_text("\n  \n")
        assert main(["inspect", "export", str(empty), str(tmp_path / "out.json")]) == 1
        assert "empty file" in capsys.readouterr().err

    def test_truncated_file_fails_with_message(self, tmp_path, capsys):
        trunc = tmp_path / "trunc.jsonl"
        good = '{"kind": "header", "tool": "repro.trace", "schema_version": 1}'
        trunc.write_text(good + '\n{"kind": "span", "name"')
        assert main(["inspect", "diff", str(trunc), str(trunc)]) == 1
        assert "truncated or malformed trace JSONL" in capsys.readouterr().err
        chrome = tmp_path / "trunc.json"
        chrome.write_text('{"displayTimeUnit":"ms","traceEvents":[{"ph":"X"')
        assert main(["inspect", "show", str(chrome)]) == 1
        assert "truncated or malformed trace JSON" in capsys.readouterr().err

    def test_unrecognised_artifacts_fail_with_message(self, tmp_path, capsys):
        stray = tmp_path / "notes.json"
        stray.write_text('{"hello": "world"}\n')
        assert main(["inspect", "show", str(stray)]) == 1
        assert "not a repro artifact" in capsys.readouterr().err
        trace_file, metrics_file = tmp_path / "t.jsonl", tmp_path / "m.jsonl"
        self._write_trace(trace_file)
        metrics_file.write_text(
            '{"kind": "header", "metrics": 0, "schema_version": 1, "tool": "repro.metrics"}\n'
        )
        assert main(["inspect", "diff", str(trace_file), str(metrics_file)]) == 1
        assert "cannot diff" in capsys.readouterr().err
        assert main(["inspect", "diff", str(tmp_path), str(tmp_path)]) == 1
        assert "cannot diff" in capsys.readouterr().err
        audit_file = tmp_path / "a.audit.jsonl"
        audit_file.write_text('{"kind": "header", "schema_version": 1, "tool": "repro.audit"}\n')
        assert main(["inspect", "export", str(audit_file), str(tmp_path / "x")]) == 1
        assert "no export format" in capsys.readouterr().err

    def test_artifact_kind_reads_the_header_not_the_name(self, tmp_path):
        from repro.inspection import artifact_kind

        for tool, kind in (("trace", "trace"), ("metrics", "metrics"), ("audit", "audit")):
            path = tmp_path / f"misnamed-{tool}.txt"
            path.write_text(json.dumps({"kind": "header", "tool": f"repro.{tool}"}) + "\n")
            assert artifact_kind(str(path)) == kind
        assert artifact_kind(str(tmp_path)) == "heartbeats"


class TestRunObservability:
    """`run --observe KIND --out DIR` end-to-end through the CLI."""

    def _run(self, out_dir, *args):
        assert main(["run", *args, "--out", str(out_dir)]) == 0
        return out_dir

    def test_metrics_export_serial_vs_parallel_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path / "serial", "fig13", "fig22", "--no-cache",
                      "--observe", "metrics") / "campaign.metrics.jsonl"
        b = self._run(tmp_path / "parallel", "fig13", "fig22", "--no-cache",
                      "--parallel", "2", "--observe", "metrics") / "campaign.metrics.jsonl"
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_metrics_file_round_trips_through_metrics_show(self, tmp_path, capsys):
        path = self._run(tmp_path, "fig13", "--no-cache", "--observe", "metrics")
        path = path / "campaign.metrics.jsonl"
        capsys.readouterr()
        assert main(["inspect", "show", str(path)]) == 0
        assert "fig13.rtt_gap.mean_ms" in capsys.readouterr().out

    def test_metrics_header_carries_campaign_meta(self, tmp_path, capsys):
        import json

        self._run(tmp_path, "fig13", "--no-cache", "--seed", "11", "--observe", "metrics")
        capsys.readouterr()
        header = json.loads((tmp_path / "campaign.metrics.jsonl").read_text().splitlines()[0])
        assert header["meta"] == {"experiments": ["fig13"], "seed": 11}

    def test_profile_writes_pstats_and_prints_hotspots(self, tmp_path, capsys):
        import pstats

        path = self._run(tmp_path, "fig13", "--no-cache", "--observe", "profile")
        path = path / "profile.pstats"
        out = capsys.readouterr().out
        assert "Profile" in out and "cumulative" in out
        assert pstats.Stats(str(path)).total_calls > 0

    def test_profile_forces_serial_uncached(self, tmp_path, capsys):
        self._run(tmp_path, "fig13", "--observe", "profile", "--parallel", "4")
        assert "ignoring --parallel" in capsys.readouterr().err

    def test_audit_dumps_every_run_next_to_heartbeats(self, tmp_path, capsys):
        from repro.audit import dump_basename, load_audit

        self._run(tmp_path, "fig13", "fig23", "--no-cache", "--observe", "audit")
        capsys.readouterr()
        for name in ("fig13", "fig23"):
            header, _ = load_audit(str(tmp_path / dump_basename(name, 7)))
            assert header["meta"] == {"experiment": name, "seed": 7}
        assert len(list(tmp_path.glob("hb-*.json"))) == 1
        assert main(["inspect", "show", str(tmp_path)]) == 0
        assert "no stalled workers" in capsys.readouterr().out

    def test_kinds_combine_in_one_directory(self, tmp_path, capsys):
        self._run(tmp_path, "fig13", "--no-cache", "--observe", "metrics,audit",
                  "--observe", "timings")
        assert "Campaign timings" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith("hb-")) == [
            "campaign.metrics.jsonl", "fig13-seed7.audit.jsonl"
        ]

    def test_unknown_kind_exits_2_naming_the_kinds(self, tmp_path, capsys):
        assert main(["run", "fig13", "--observe", "trace,flamegraph",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "flamegraph" in err
        assert "trace, metrics, profile, audit, timings" in err
        assert list(tmp_path.iterdir()) == []

    def test_no_audit_env_writes_no_audit_artifacts(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("REPRO_NO_AUDIT", "1")
        self._run(tmp_path, "fig11", "--no-cache", "--observe", "metrics,audit")
        capsys.readouterr()
        assert not list(tmp_path.glob("*.audit.jsonl"))
        assert "audit." not in (tmp_path / "campaign.metrics.jsonl").read_text()

    def test_run_leaves_the_environment_alone(self, monkeypatch, tmp_path, capsys):
        from repro.runner import execute_experiment

        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)
        before = dict(os.environ)
        self._run(tmp_path, "fig13", "--no-cache")
        capsys.readouterr()
        assert dict(os.environ) == before
        # A later library run is audited (no setting leaked from the CLI)
        # and writes nothing into the CLI's out directory.
        _, record = execute_experiment("fig11", 7)
        assert "audit.checks_count" in record.metrics["metrics"]
        assert len(list(tmp_path.iterdir())) == 1


class TestBenchCommand:
    def _point(self, tmp_path, name="point.json", extra=()):
        out = tmp_path / name
        code = main(
            ["bench", "fig13", "--out", str(out),
             "--baseline", str(tmp_path / "absent.json"), *extra]
        )
        return code, out

    def test_writes_valid_trajectory_point(self, tmp_path, capsys):
        import json

        code, out = self._point(tmp_path)
        assert code == 0  # no baseline yet: hint, not failure
        err = capsys.readouterr().err
        assert "no baseline" in err
        payload = json.loads(out.read_text())
        assert payload["tool"] == "repro.bench"
        assert payload["experiments"]["fig13"]["wall_time_norm"] > 0
        assert "fig13.rtt_gap.mean_ms" in payload["experiments"]["fig13"]["kpis"]

    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "fig13", "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(
            ["bench", "fig13", "--out", str(tmp_path / "p2.json"),
             "--baseline", str(baseline)]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_gate_fails_on_injected_slowdown(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "baseline.json"
        assert main(
            ["bench", "fig13", "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        slowed = json.loads(baseline.read_text())
        slowed["experiments"]["fig13"]["wall_time_norm"] *= 2.0
        doctored = tmp_path / "slow.json"
        doctored.write_text(json.dumps(slowed))
        capsys.readouterr()
        # fig13 runs in ~20 ms, under the wall-noise floor — disable the
        # floor so the doctored slowdown is actually gated.
        assert main(
            ["bench", "--compare", str(doctored), "--baseline", str(baseline),
             "--min-wall-s", "0"]
        ) == 1
        assert "wall time" in capsys.readouterr().out

    def test_compare_missing_point_exits_two(self, tmp_path, capsys):
        assert main(["bench", "--compare", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err
