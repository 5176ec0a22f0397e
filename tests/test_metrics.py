"""Tests for repro.metrics: the quantile sketch, registry, merge algebra, exporters.

The load-bearing property is merge determinism: per-worker registry
snapshots must combine into byte-identical campaign snapshots regardless
of completion order.  The property test at the bottom proves it over
real catalogue experiments (a cheap subset in tier-1; the whole
catalogue when ``REPRO_FULL_METRICS_SWEEP=1``, which CI sets).
"""

import json
import os
import random

import pytest

from repro import instruments
from repro.cli import main
from repro.core.rng import RngFactory
from repro.experiments.registry import EXPERIMENTS
from repro.metrics import (
    MetricRegistry,
    ReservoirQuantile,
    diff_snapshots,
    load_snapshot,
    merge_snapshots,
    summarize_entry,
    to_prometheus_lines,
    write_jsonl,
)
from repro.metrics.core import NULL_REGISTRY
from repro.runner import bench_payload, compare_payloads, merged_metrics, run_campaign

#: Cheap catalogue experiments that register KPIs (tier-1 subset).
KPI_CHEAP = ["fig13", "fig21", "fig22", "tab4"]


def _canon(snapshot):
    return json.dumps(snapshot, sort_keys=True)


def _samples(tag, n=400):
    rng = RngFactory(99).stream(f"metrics:{tag}")
    return [float(v) for v in rng.normal(50.0, 12.0, size=n)]


class TestReservoirQuantile:
    def test_quantiles_close_to_exact(self):
        xs = _samples("reservoir", n=3000)
        sketch = ReservoirQuantile(k=512, tag="t")
        for x in xs:
            sketch.observe(x)
        exact = sorted(xs)[len(xs) // 2]
        assert sketch.quantile(50.0) == pytest.approx(exact, abs=3.0)
        assert sketch.mean == pytest.approx(sum(xs) / len(xs))
        assert sketch.count == len(xs)

    def test_retention_is_deterministic_per_tag(self):
        xs = _samples("det", n=1000)
        a, b = ReservoirQuantile(k=64, tag="t"), ReservoirQuantile(k=64, tag="t")
        for x in xs:
            a.observe(x)
            b.observe(x)
        assert a.items() == b.items()
        c = ReservoirQuantile(k=64, tag="other")
        for x in xs:
            c.observe(x)
        assert c.items() != a.items()

    def test_empty_raises_uniform_message(self):
        with pytest.raises(ValueError, match="^empty sample$"):
            ReservoirQuantile(k=8, tag="t").quantile(50.0)


class TestRegistry:
    def test_kind_clash_raises(self):
        reg = MetricRegistry(origin="a")
        reg.counter("x.events_count")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x.events_count")

    def test_invalid_name_rejected(self):
        reg = MetricRegistry(origin="a")
        with pytest.raises(ValueError, match="invalid metric name"):
            reg.counter("Bad-Name")

    def test_unobserved_metrics_omitted_from_snapshot(self):
        reg = MetricRegistry(origin="a")
        reg.gauge("x.unset_ms")
        reg.quantile("x.empty_ms")
        reg.counter("x.zero_count")  # counters report even at zero
        names = set(reg.snapshot()["metrics"])
        assert names == {"x.zero_count"}

    def test_ambient_stack_and_null_registry(self):
        def current():
            return instruments.current().registry

        assert current() is NULL_REGISTRY
        current().gauge("ignored.value_ms").set(1.0)  # absorbed, no error
        reg = MetricRegistry(origin="t")
        with instruments.using(registry=reg):
            assert current() is reg
            current().counter("t.hits_count").inc()
        assert current() is NULL_REGISTRY
        assert reg.snapshot()["metrics"]["t.hits_count"]["parts"] == {"t": 1.0}


class TestMergeAlgebra:
    def _registry(self, origin, shift):
        reg = MetricRegistry(origin=origin)
        reg.counter("m.events_count").inc(3 + shift)
        reg.gauge("m.headline_ms").set(10.0 * (shift + 1))
        for x in _samples(origin, n=200):
            reg.quantile("m.latency_ms").observe(x + shift)
        return reg

    def test_merge_is_order_independent_and_associative(self):
        snaps = [self._registry(f"exp:{i}", i).snapshot() for i in range(6)]
        reference = _canon(merge_snapshots(snaps))
        shuffler = random.Random(7)  # replint: ignore[REP001] — seeded, test-only
        for _ in range(10):
            order = snaps[:]
            shuffler.shuffle(order)
            assert _canon(merge_snapshots(order)) == reference
            pair = merge_snapshots(order[:3])
            assert _canon(merge_snapshots([pair, merge_snapshots(order[3:])])) == reference

    def test_duplicate_origin_dedupes_conflict_raises(self):
        snap = self._registry("exp:0", 0).snapshot()
        assert _canon(merge_snapshots([snap, snap])) == _canon(merge_snapshots([snap]))
        other = self._registry("exp:0", 1).snapshot()
        with pytest.raises(ValueError, match="conflicting parts"):
            merge_snapshots([snap, other])

    def test_summaries_fold_deterministically(self):
        snaps = [self._registry(f"exp:{i}", i).snapshot() for i in range(3)]
        merged = merge_snapshots(snaps)
        counter = summarize_entry(merged["metrics"]["m.events_count"])
        assert counter["value"] == pytest.approx(3 + 4 + 5)
        gauge = summarize_entry(merged["metrics"]["m.headline_ms"])
        assert gauge["value"] == pytest.approx(30.0)  # greatest origin exp:2
        quantile = summarize_entry(merged["metrics"]["m.latency_ms"])
        assert quantile["count"] == 600
        assert quantile["p50"] == pytest.approx(51.0, abs=4.0)


class TestExport:
    def _snapshot(self):
        reg = MetricRegistry(origin="exp:7")
        reg.gauge("e.headline_ms").set(42.0)
        for x in _samples("export", n=100):
            reg.quantile("e.latency_ms").observe(x)
        reg.counter("e.events_count").inc(5)
        return merge_snapshots([reg.snapshot()])

    def test_jsonl_round_trip_is_identity(self, tmp_path):
        snapshot = self._snapshot()
        path = tmp_path / "m.jsonl"
        count = write_jsonl(snapshot, str(path))
        assert count == 3
        assert _canon(load_snapshot(str(path))) == _canon(snapshot)

    def test_jsonl_lines_have_header_and_summaries(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_jsonl(self._snapshot(), str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header" and lines[0]["tool"] == "repro.metrics"
        assert lines[0]["metrics"] == 3
        for record in lines[1:]:
            assert {"name", "kind", "parts", "summary"} <= set(record)

    def test_prometheus_exposition_shape(self):
        text = "\n".join(to_prometheus_lines(self._snapshot()))
        assert "# TYPE e_events_count counter" in text
        assert "# TYPE e_headline_ms gauge" in text
        assert 'e_latency_ms{quantile="0.5"}' in text
        assert "e_latency_ms_count 100.0" in text
        # Non-finite min/max sentinels never leak into values.
        assert "Inf" not in text and "NaN" not in text

    def test_diff_tolerance_and_missing(self):
        a = self._snapshot()
        b = json.loads(json.dumps(a))
        assert diff_snapshots(a, b) == []
        b["metrics"]["e.headline_ms"]["parts"]["exp:7"] = [1, 44.0]
        deltas = diff_snapshots(a, b, tolerance=0.10)
        assert deltas == []  # ~4.5% drift is inside 10%
        deltas = diff_snapshots(a, b, tolerance=0.01)
        assert [(d.name, d.field) for d in deltas] == [("e.headline_ms", "value")]
        del b["metrics"]["e.events_count"]
        missing = [d for d in diff_snapshots(a, b, tolerance=1.0) if d.missing]
        assert missing[0].name == "e.events_count"


class TestMetricsCli:
    """``repro inspect`` on metrics snapshots."""

    def _export(self, tmp_path):
        path = tmp_path / "m.jsonl"
        reg = MetricRegistry(origin="exp:7")
        reg.gauge("c.headline_ms").set(1.5)
        write_jsonl(merge_snapshots([reg.snapshot()]), str(path))
        return path

    def test_show_and_export(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["inspect", "show", str(path)]) == 0
        assert "c.headline_ms" in capsys.readouterr().out
        out = tmp_path / "m.prom"
        assert main(["inspect", "export", str(path), str(out)]) == 0
        assert "exposition line(s)" in capsys.readouterr().out
        assert "c_headline_ms 1.5" in out.read_text()

    def test_diff_exit_codes(self, tmp_path, capsys):
        path = self._export(tmp_path)
        assert main(["inspect", "diff", str(path), str(path)]) == 0
        other = tmp_path / "n.jsonl"
        reg = MetricRegistry(origin="exp:8")
        reg.gauge("c.headline_ms").set(9.9)
        write_jsonl(merge_snapshots([reg.snapshot()]), str(other))
        assert main(["inspect", "diff", str(path), str(other)]) == 1
        assert main(["inspect", "diff", str(path), str(other), "--tolerance", "10"]) == 0
        assert "(identical within tolerance)" in capsys.readouterr().out

    def test_load_failures_exit_1(self, tmp_path, capsys):
        assert main(["inspect", "show", str(tmp_path / "nope.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["inspect", "show", str(empty)]) == 1
        err = capsys.readouterr().err
        assert "no such file" in err and "empty file" in err
        header = '{"kind": "header", "tool": "repro.metrics", "schema_version": 1}'
        empty.write_text(header + '\n{"kind": "gauge"')
        assert main(["inspect", "show", str(empty)]) == 1
        assert "truncated or malformed metrics JSONL" in capsys.readouterr().err


class TestCampaignMergeProperty:
    """Per-worker registries merge order-independently to the serial snapshot."""

    def _experiment_names(self):
        if os.environ.get("REPRO_FULL_METRICS_SWEEP") == "1":
            return list(EXPERIMENTS)
        return KPI_CHEAP

    def test_shuffled_merges_equal_serial_registry(self):
        names = self._experiment_names()
        outcomes = run_campaign(names, seed=7, parallel=1, cache=None)
        serial = _canon(merged_metrics(outcomes))
        snaps = [o.record.metrics for o in outcomes]
        shuffler = random.Random(13)  # replint: ignore[REP001] — seeded, test-only
        for _ in range(8):
            order = snaps[:]
            shuffler.shuffle(order)
            assert _canon(merge_snapshots(order)) == serial
        # KPI helpers actually fired: the cheap subset registers gauges.
        merged = merged_metrics(outcomes)
        assert any(name.startswith("fig22.") for name in merged["metrics"])

    def test_rerun_is_byte_identical(self):
        first = run_campaign(KPI_CHEAP, seed=7, parallel=1, cache=None)
        second = run_campaign(KPI_CHEAP, seed=7, parallel=1, cache=None)
        assert _canon(merged_metrics(first)) == _canon(merged_metrics(second))


class TestBench:
    def test_payload_shape_and_kpis(self):
        payload = bench_payload(["fig13", "fig22"], seed=7, date="2026-01-01")
        assert payload["tool"] == "repro.bench"
        assert payload["date"] == "2026-01-01"
        assert payload["calibration_s"] > 0
        exp = payload["experiments"]["fig22"]
        assert exp["wall_time_norm"] == pytest.approx(
            exp["wall_time_s"] / payload["calibration_s"]
        )
        assert "fig22.energy_per_bit.5g.t5_nj" in exp["kpis"]
        assert "fig13.rtt.5g.paths_ms/p50" in payload["experiments"]["fig13"]["kpis"]

    def _payload(self):
        return {
            "experiments": {
                "fig13": {
                    "wall_time_norm": 10.0,
                    "kpis": {"fig13.rtt_gap.mean_ms": 20.0},
                }
            }
        }

    def test_gate_passes_within_tolerance(self):
        base = self._payload()
        new = json.loads(json.dumps(base))
        new["experiments"]["fig13"]["wall_time_norm"] = 11.5  # +15%
        new["experiments"]["fig13"]["kpis"]["fig13.rtt_gap.mean_ms"] = 21.0  # +5%
        assert compare_payloads(new, base) == []

    def test_gate_fails_on_2x_slowdown(self):
        base = self._payload()
        new = json.loads(json.dumps(base))
        new["experiments"]["fig13"]["wall_time_norm"] = 20.0
        regressions = compare_payloads(new, base)
        assert [r.field for r in regressions] == ["wall_time_norm"]

    def test_wall_gate_skipped_below_noise_floor(self):
        # A 3 ms experiment jitters >20% run to run from timer noise alone;
        # the wall gate must not flake on it. KPIs stay gated regardless.
        base = self._payload()
        base["experiments"]["fig13"]["wall_time_s"] = 0.003
        new = json.loads(json.dumps(base))
        new["experiments"]["fig13"]["wall_time_norm"] = 20.0
        assert compare_payloads(new, base) == []
        assert [r.field for r in compare_payloads(new, base, min_wall_s=0.001)] == [
            "wall_time_norm"
        ]
        new["experiments"]["fig13"]["kpis"]["fig13.rtt_gap.mean_ms"] = 99.0
        assert [r.field for r in compare_payloads(new, base)] == [
            "fig13.rtt_gap.mean_ms"
        ]

    def test_gate_fails_on_kpi_drift_and_missing(self):
        base = self._payload()
        new = json.loads(json.dumps(base))
        new["experiments"]["fig13"]["kpis"]["fig13.rtt_gap.mean_ms"] = 26.0
        assert [r.field for r in compare_payloads(new, base)] == [
            "fig13.rtt_gap.mean_ms"
        ]
        del new["experiments"]["fig13"]
        missing = compare_payloads(new, base)
        assert missing[0].limit == "experiment missing from new point"
