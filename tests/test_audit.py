"""Tests for repro.audit: ledgers, probes, flight recorder, inspect CLI, watchdog.

The integration tests lean on the cheapest DES experiments that build
fresh links/transports per run (fig11, and fig7/remedy-comparison at
reduced duration), so the conservation ledgers are exercised against
real traffic without paying for the full catalogue workloads.
"""

import json
import os
import pickle
import time

import pytest

from repro import instruments
from repro.audit import (
    NULL_AUDITOR,
    AuditError,
    Auditor,
    NullAuditor,
    audits_enabled,
    diff_audits,
    dump_basename,
    load_audit,
    summary_table,
    violations_table,
    write_jsonl,
)
from repro.cli import main
from repro.experiments.registry import EXPERIMENTS
from repro.metrics.core import MetricRegistry, fold_metric_name
from repro.net import Packet
from repro.qdisc import CakeQueue, CoDelQueue, FqCodelQueue
from repro.runner import (
    ExperimentFailure,
    execute_experiment,
    prune_finished_heartbeats,
    run_campaign,
    scan_stalls,
)
from repro.runner.instrument import instrumented_call
from repro.scenario import resolve_scenario
from tests.faults import leak_codel_heads


def pkt(size_bytes=1448, flow_id=1, host_id=None):
    return Packet(flow_id, "data", size_bytes, host_id=host_id)


class TestAuditorCore:
    def test_ring_wraparound_keeps_newest(self):
        auditor = Auditor(capacity=4)
        for i in range(7):
            auditor.note("audit.test.tick_count", float(i), i=i)
        records = auditor.records()
        assert [r.time_s for r in records] == [3.0, 4.0, 5.0, 6.0]
        stats = auditor.stats()
        assert stats.notes == 7
        assert stats.dropped == 3

    def test_violations_survive_ring_eviction(self):
        auditor = Auditor(capacity=2)
        auditor.flag("audit.test.residual_pkts", 0.5, residual=1)
        for i in range(10):
            auditor.note("audit.test.tick_count", float(i))
        assert all(r.kind == "note" for r in auditor.records())
        assert [v.name for v in auditor.violations()] == ["audit.test.residual_pkts"]
        assert auditor.violation_count == 1

    def test_probe_pass_is_free_fail_flags(self):
        auditor = Auditor()
        assert auditor.probe("audit.test.bounds_pkts", True, 1.0)
        assert auditor.records() == []
        assert not auditor.probe("audit.test.bounds_pkts", False, 2.0, occupancy=-1)
        assert auditor.violation_count == 1
        assert auditor.stats().checks == 2

    def test_observe_accumulates_and_flags_beyond_tol(self):
        auditor = Auditor()
        auditor.observe("audit.test.dwell_residual_s", 0.25, 1.0, tol=0.5)
        auditor.observe("audit.test.dwell_residual_s", 0.25, 2.0, tol=0.5)
        assert auditor.ledger_totals() == {"audit.test.dwell_residual_s": 0.5}
        assert auditor.violation_count == 0
        auditor.observe("audit.test.dwell_residual_s", 0.75, 3.0, tol=0.5)
        assert auditor.violation_count == 1

    def test_checkpoint_sums_watches_per_name_in_order(self):
        auditor = Auditor()
        auditor.watch("audit.b.residual_pkts", lambda: 1.0)
        auditor.watch("audit.a.residual_pkts", lambda: 0.0)
        auditor.watch("audit.b.residual_pkts", lambda: 2.0)
        totals = auditor.checkpoint("run-end", 9.0)
        assert totals == {"audit.b.residual_pkts": 3.0, "audit.a.residual_pkts": 0.0}
        # Notes follow registration order, not alphabetical order.
        assert [r.name for r in auditor.records() if r.kind == "note"] == [
            "audit.b.residual_pkts", "audit.a.residual_pkts",
        ]
        assert auditor.violation_count == 1  # only the nonzero ledger flags

    def test_checkpoint_tolerance(self):
        auditor = Auditor()
        auditor.watch("audit.test.residual_s", lambda: 1e-9, tol=1e-6)
        auditor.checkpoint("run-end")
        assert auditor.violation_count == 0

    def test_assert_clean(self, tmp_path):
        auditor = Auditor()
        auditor.assert_clean("fig0 seed 7")  # no violations: no raise
        auditor.flag("audit.test.residual_pkts", 0.5, residual=3)
        with pytest.raises(AuditError, match="1 audit violation") as excinfo:
            auditor.assert_clean("fig0 seed 7", dump_path=str(tmp_path / "d.jsonl"))
        assert excinfo.value.violations[0].name == "audit.test.residual_pkts"
        assert excinfo.value.dump_path.endswith("d.jsonl")

    def test_clear_keeps_watches(self):
        auditor = Auditor()
        auditor.watch("audit.test.residual_pkts", lambda: 0.0)
        auditor.note("audit.test.tick_count", 0.0)
        auditor.clear()
        assert auditor.records() == []
        assert auditor.stats().emitted == 0
        assert auditor.checkpoint("again") == {"audit.test.residual_pkts": 0.0}

    def test_export_kpis_silent_without_activity(self):
        auditor = Auditor()
        registry = MetricRegistry()
        auditor.export_kpis(registry)
        assert registry.snapshot()["metrics"] == {}

    def test_export_kpis_publishes_counts_and_ledgers(self):
        auditor = Auditor()
        auditor.watch("audit.test.residual_pkts", lambda: 2.0)
        auditor.checkpoint("run-end")
        registry = MetricRegistry()
        auditor.export_kpis(registry)
        assert registry.counter("audit.checks_count").value == 1.0
        assert registry.counter("audit.violations_count").value == 1.0
        assert registry.gauge("audit.test.residual_pkts").value == 2.0


def _auditor() -> Auditor | NullAuditor:
    return instruments.current().auditor


class TestInstallStack:
    """The auditor field of the one :mod:`repro.instruments` stack."""

    def test_default_is_null_auditor(self):
        assert _auditor() is NULL_AUDITOR
        assert not _auditor().enabled
        assert _auditor().probe("audit.x.bounds_pkts", False, 0.0) is False
        assert _auditor().checkpoint("end") == {}

    def test_install_uninstall_validation(self):
        auditor = Auditor()
        installed = instruments.using(auditor=auditor)
        assert installed.__enter__().auditor is auditor
        assert _auditor() is auditor
        with pytest.raises(RuntimeError, match="different record"):
            instruments.using(auditor=Auditor()).__exit__(None, None, None)
        installed.__exit__(None, None, None)
        assert _auditor() is NULL_AUDITOR
        with pytest.raises(RuntimeError, match="out of order"):
            installed.__exit__(None, None, None)
        with pytest.raises(TypeError):
            instruments.using(audit=Auditor()).__enter__()  # misspelt field
        assert _auditor() is NULL_AUDITOR

    def test_auditing_context_nests(self):
        outer, inner = Auditor(), Auditor()
        with instruments.using(auditor=outer):
            with instruments.using(auditor=inner):
                assert _auditor() is inner
            assert _auditor() is outer
        assert _auditor() is NULL_AUDITOR

    def test_audits_enabled_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)
        assert audits_enabled()
        monkeypatch.setenv("REPRO_NO_AUDIT", "1")
        assert not audits_enabled()


class TestExport:
    def _auditor(self):
        auditor = Auditor()
        auditor.note("audit.test.tick_count", 0.25, phase="start")
        auditor.flag("audit.test.residual_pkts", 0.5, residual=2)
        auditor.probe("audit.test.bounds_pkts", True, 0.75)
        return auditor

    def test_round_trip(self, tmp_path):
        auditor = self._auditor()
        path = tmp_path / "run.audit.jsonl"
        write_jsonl(auditor, str(path), meta={"experiment": "fig0", "seed": 7})
        header, events = load_audit(str(path))
        assert header["tool"] == "repro.audit"
        assert header["notes"] == 1
        assert header["violations"] == 1
        assert header["checks"] == 1
        assert header["meta"] == {"experiment": "fig0", "seed": 7}
        assert events == auditor.records()
        assert events[1].kind == "violation"
        assert dict(events[1].args) == {"residual": 2}

    def test_dump_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(self._auditor(), str(a))
        write_jsonl(self._auditor(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_dump_basename(self):
        assert dump_basename("fig11", 7) == "fig11-seed7.audit.jsonl"


class TestAnalysis:
    def test_summary_table_aggregates_by_name(self, tmp_path):
        auditor = Auditor()
        auditor.note("audit.test.tick_count", 0.0)
        auditor.note("audit.test.tick_count", 2.0)
        auditor.flag("audit.test.residual_pkts", 1.0, residual=4)
        path = tmp_path / "run.audit.jsonl"
        write_jsonl(auditor, str(path))
        header, events = load_audit(str(path))
        rendered = summary_table(header, events).render()
        assert "audit.test.tick_count" in rendered
        assert "1 violation(s)" in rendered
        # Violations sort ahead of notes regardless of name order.
        assert rendered.index("residual_pkts") < rendered.index("tick_count")

    def test_violations_table(self):
        auditor = Auditor()
        auditor.note("audit.test.tick_count", 0.0)
        auditor.flag("audit.test.residual_pkts", 1.0, residual=4)
        rendered = violations_table(auditor.records()).render()
        assert "residual_pkts" in rendered
        assert "tick_count" not in rendered

    def test_diff_identical_and_divergent(self, tmp_path):
        a = Auditor()
        a.note("audit.test.tick_count", 0.0, i=1)
        path_a = tmp_path / "a.jsonl"
        write_jsonl(a, str(path_a))
        same = diff_audits(load_audit(str(path_a)), load_audit(str(path_a)))
        assert same.identical
        b = Auditor()
        b.note("audit.test.tick_count", 0.0, i=2)
        path_b = tmp_path / "b.jsonl"
        write_jsonl(b, str(path_b))
        diff = diff_audits(load_audit(str(path_a)), load_audit(str(path_b)))
        assert not diff.identical
        assert "audit.test.tick_count" in diff.table().render()


class TestOccupancyResidual:
    def _churn(self, q, n=48):
        """Enqueue bursts from colliding flows/hosts, dequeue late enough
        to engage the CoDel control law; returns (dequeued, dequeued_bytes)."""
        deq = deq_bytes = 0
        now = 0.0
        for round_no in range(6):
            for i in range(n // 6):
                q.enqueue(
                    pkt(size_bytes=500 + 97 * i, flow_id=i, host_id=i % 3), now
                )
            now += 0.25  # every queued packet is far beyond target sojourn
            for _ in range(n // 8):
                packet = q.dequeue(now)
                if packet is not None:
                    deq += 1
                    deq_bytes += packet.size_bytes
                assert q.occupancy_residual() == (0, 0)
        while True:
            now += 0.25
            packet = q.dequeue(now)
            if packet is None:
                break
            deq += 1
            deq_bytes += packet.size_bytes
        assert q.occupancy_residual() == (0, 0)
        return deq, deq_bytes

    def _assert_conserved(self, q, deq, deq_bytes):
        stats = q.stats
        assert stats.aqm_drops > 0, "churn never engaged the control law"
        assert stats.enqueued - deq - stats.aqm_drops == q.occupancy
        assert (
            stats.enqueued_bytes - deq_bytes - stats.aqm_dropped_bytes
            == q.occupancy_bytes
        )

    def test_codel_books_match_recount_under_churn(self):
        q = CoDelQueue(capacity_packets=64)
        self._assert_conserved(q, *self._churn(q))

    def test_fq_codel_books_match_recount_under_flow_collisions(self):
        # flows_count=1: every flow hashes into one bucket.
        q = FqCodelQueue(capacity_packets=64, flows_count=1)
        self._assert_conserved(q, *self._churn(q))

    def test_cake_books_match_recount_under_triple_collisions(self):
        # hosts_count=1 and flows_count=1: the triple-isolate DRR
        # degenerates to a single host/flow bucket shared by all traffic.
        q = CakeQueue(
            shaper_rate_bps=1e9, capacity_packets=64, flows_count=1, hosts_count=1
        )
        self._assert_conserved(q, *self._churn(q))

    def test_injected_leak_breaks_flow_conservation_not_occupancy(self, monkeypatch):
        leak_codel_heads(monkeypatch, every=3)
        q = CoDelQueue(capacity_packets=64)
        deq, _ = self._churn(q)
        # The fault silently discards queued packets: structure and books
        # move together (occupancy_residual stays zero) but the flow
        # ledger — what the link-level audit watch recomputes — breaks.
        assert q.occupancy_residual() == (0, 0)
        assert q.stats.enqueued - deq - q.stats.aqm_drops != q.occupancy


class TestLedgersOnRealRuns:
    def test_fig11_ledgers_all_zero(self):
        auditor = Auditor()
        with instruments.using(auditor=auditor):
            EXPERIMENTS["fig11"].run(7)
            totals = auditor.checkpoint("run-end")
        assert totals, "fig11 registered no conservation ledgers"
        assert auditor.violation_count == 0
        assert all(v == 0 for v in totals.values())
        assert any(name.endswith("_bytes") for name in totals)
        assert any(name.startswith("audit.link.") for name in totals)

    def test_audited_vs_unaudited_fig7_byte_identical(self):
        auditor = Auditor()
        with instruments.using(auditor=auditor):
            audited = EXPERIMENTS["fig7"].run(7, duration_s=1.0)
            auditor.checkpoint("run-end")
        assert auditor.violation_count == 0
        plain = EXPERIMENTS["fig7"].run(7, duration_s=1.0)
        assert pickle.dumps(audited) == pickle.dumps(plain)

    def test_audited_vs_unaudited_remedy_comparison_byte_identical(self):
        auditor = Auditor()
        with instruments.using(auditor=auditor):
            audited = EXPERIMENTS["remedy-comparison"].run(7, duration_s=1.5)
            auditor.checkpoint("run-end")
        assert auditor.violation_count == 0
        plain = EXPERIMENTS["remedy-comparison"].run(7, duration_s=1.5)
        assert pickle.dumps(audited) == pickle.dumps(plain)

    def test_instrumented_run_exports_audit_kpis(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)
        _, record = instrumented_call("fig11", 7, lambda: EXPERIMENTS["fig11"].run(7))
        names = record.metrics["metrics"]
        assert sum(names["audit.violations_count"]["parts"].values()) == 0.0
        assert sum(names["audit.checks_count"]["parts"].values()) > 0
        assert any(name.startswith("audit.link.") for name in names)

    def test_no_audit_env_skips_kpis_and_dumps(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NO_AUDIT", "1")
        _, record = instrumented_call(
            "fig11", 7, lambda: EXPERIMENTS["fig11"].run(7),
            out_dir=str(tmp_path), dump_all=True,
        )
        # fig11 registers no KPIs of its own; with auditing off the
        # record must look exactly like a pre-audit one.
        assert record.metrics is None
        assert list(tmp_path.iterdir()) == []


class TestFlightRecorderOnFailure:
    def test_injected_leak_fails_run_with_readable_dump(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)
        leak_codel_heads(monkeypatch, every=50)
        scenario = resolve_scenario("paper-nsa-codel")
        with pytest.raises(ExperimentFailure) as excinfo:
            execute_experiment("fig11", 7, None, scenario, out_dir=str(tmp_path))
        failure = excinfo.value
        assert failure.name == "fig11"
        assert failure.audit_dump_path.endswith("fig11-seed7.audit.jsonl")
        assert failure.record is not None
        assert "AuditError" in failure.record.failure_traceback
        assert "flight recorder" in str(failure)
        header, events = load_audit(failure.audit_dump_path)
        violations = [e for e in events if e.kind == "violation"]
        assert violations, "the leak produced no recorded violations"
        assert any("queue_residual" in v.name for v in violations)
        # The dump is readable by the operator-facing CLI.
        assert main(["inspect", "show", failure.audit_dump_path]) == 0
        assert "queue_residual" in capsys.readouterr().out
        assert main(["inspect", "show", failure.audit_dump_path, "--violations"]) == 0

    def test_instrumented_call_attaches_failure_artifacts(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)

        def explode():
            raise ValueError("boom")

        with pytest.raises(ValueError) as excinfo:
            instrumented_call("fig0", 7, explode, out_dir=str(tmp_path))
        exc = excinfo.value
        assert exc.audit_dump_path.endswith("fig0-seed7.audit.jsonl")
        assert "ValueError: boom" in exc.run_record.failure_traceback
        assert exc.run_record.audit_dump_path == exc.audit_dump_path
        header, events = load_audit(exc.audit_dump_path)
        assert any(e.name == "audit.run.exception_count" for e in events)

    def test_experiment_failure_pickles_with_artifacts(self):
        failure = ExperimentFailure(
            "fig11", "Traceback ...", record=None, audit_dump_path="/tmp/x.jsonl"
        )
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.name == "fig11"
        assert clone.audit_dump_path == "/tmp/x.jsonl"
        assert "flight recorder: /tmp/x.jsonl" in str(clone)


class TestParallelIdentity:
    def test_audit_dumps_identical_across_parallel_1_2_3(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_NO_AUDIT", raising=False)
        names = ["fig11", "tab4"]
        dumps = {}
        for parallel in (1, 2, 3):
            directory = tmp_path / f"p{parallel}"
            run_campaign(
                names, seed=7, parallel=parallel, cache=None,
                out_dir=str(directory), dump_all=True,
            )
            dumps[parallel] = {
                name: (directory / dump_basename(name, 7)).read_bytes()
                for name in names
            }
        for name in names:
            assert dumps[1][name] == dumps[2][name] == dumps[3][name]
            header, events = load_audit(str(tmp_path / "p1" / dump_basename(name, 7)))
            assert events, f"{name} dumped an empty flight recorder"


class TestHeartbeats:
    def test_execute_experiment_stamps_heartbeats(self, tmp_path):
        _, record = execute_experiment("fig13", 7, None, out_dir=str(tmp_path))
        assert 0 < record.heartbeat_started_s <= record.heartbeat_finished_s
        beats = list(tmp_path.glob("hb-*.json"))
        assert len(beats) == 1
        payload = json.loads(beats[0].read_text())
        assert payload["experiment"] == "fig13"
        assert payload["finished_mono_s"] > 0

    def test_scan_stalls(self, tmp_path):
        now = 1000.0
        (tmp_path / "hb-11.json").write_text(json.dumps(
            {"pid": 11, "experiment": "fig7", "seed": 7,
             "started_mono_s": 100.0, "finished_mono_s": 0.0}
        ))
        (tmp_path / "hb-22.json").write_text(json.dumps(
            {"pid": 22, "experiment": "fig3", "seed": 7,
             "started_mono_s": 100.0, "finished_mono_s": 130.0}
        ))
        (tmp_path / "hb-33.json").write_text("mid-write garbage")
        (tmp_path / "notes.txt").write_text("unrelated")
        stalls = scan_stalls(str(tmp_path), now, stall_timeout_s=300.0)
        assert stalls == [
            {"pid": 11, "experiment": "fig7", "seed": 7, "busy_s": 900.0}
        ]
        # A fresher run is busy, not stalled.
        assert scan_stalls(str(tmp_path), now, stall_timeout_s=1000.0) == []
        assert scan_stalls(str(tmp_path / "missing"), now, 1.0) == []

    def test_a_campaign_prunes_finished_heartbeats(self, tmp_path):
        # Left by earlier processes: a worker killed mid-run and a file
        # caught mid-write stay; finished runs' heartbeats go.
        (tmp_path / "hb-22.json").write_text(json.dumps(
            {"pid": 22, "experiment": "fig7", "seed": 7,
             "started_mono_s": 1.0, "finished_mono_s": 0.0}
        ))
        (tmp_path / "hb-33.json").write_text("mid-write garbage")
        run_campaign(["fig3", "fig13"], seed=7, parallel=2, out_dir=str(tmp_path))
        workers = {p.name for p in tmp_path.glob("hb-*.json")} - {"hb-22.json", "hb-33.json"}
        assert workers and f"hb-{os.getpid()}.json" not in workers
        run_campaign(["fig13"], seed=7, out_dir=str(tmp_path))
        left = sorted(p.name for p in tmp_path.glob("hb-*.json"))
        assert left == sorted(["hb-22.json", "hb-33.json", f"hb-{os.getpid()}.json"])
        assert prune_finished_heartbeats(str(tmp_path)) == 1
        assert prune_finished_heartbeats(str(tmp_path / "missing")) == 0

    def test_parallel_watchdog_reports_a_possible_hang(self, monkeypatch, tmp_path, capsys):
        from repro.runner import campaign

        monkeypatch.setattr(campaign, "_WATCHDOG_POLL_S", 0.01)
        monkeypatch.setattr(campaign, "STALL_TIMEOUT_S", 0.0)
        # An unfinished heartbeat an earlier campaign left behind is not a
        # hang of this one.
        (tmp_path / "hb-1.json").write_text(json.dumps(
            {"pid": 1, "experiment": "fig7", "seed": 7,
             "started_mono_s": 0.5, "finished_mono_s": 0.0}
        ))
        run_campaign(["fig3", "fig13"], seed=7, parallel=2, out_dir=str(tmp_path))
        err = capsys.readouterr().err
        assert "possible hang" in err
        assert "'fig7'" not in err


class TestAuditCli:
    """``repro inspect`` on flight-recorder dumps and heartbeat directories."""

    def test_show_missing_file_exits_1(self, capsys):
        assert main(["inspect", "show", "no/such/file.jsonl"]) == 1
        assert "no such file" in capsys.readouterr().err

    def test_show_malformed_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("")
        assert main(["inspect", "show", str(bad)]) == 1
        assert "empty file" in capsys.readouterr().err
        header = '{"kind": "header", "tool": "repro.audit", "schema_version": 1}'
        bad.write_text(header + '\n{"kind": "note", "name"')
        assert main(["inspect", "show", str(bad)]) == 1
        assert "truncated or malformed audit JSONL" in capsys.readouterr().err

    def test_diff_exit_codes(self, capsys, tmp_path):
        a = Auditor()
        a.note("audit.test.tick_count", 0.0, i=1)
        b = Auditor()
        b.note("audit.test.tick_count", 0.0, i=2)
        path_a, path_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, str(path_a))
        write_jsonl(b, str(path_b))
        assert main(["inspect", "diff", str(path_a), str(path_a)]) == 0
        capsys.readouterr()
        assert main(["inspect", "diff", str(path_a), str(path_b)]) == 1

    def test_stalls_exit_codes(self, capsys, tmp_path):
        assert main(["inspect", "show", str(tmp_path / "missing")]) == 1
        assert "no such file or directory" in capsys.readouterr().err
        assert main(["inspect", "show", str(tmp_path)]) == 0
        assert "no stalled workers" in capsys.readouterr().out
        (tmp_path / "hb-11.json").write_text(json.dumps(
            {"pid": 11, "experiment": "fig7", "seed": 7,
             "started_mono_s": time.monotonic() - 500.0, "finished_mono_s": 0.0}
        ))
        assert main(["inspect", "show", str(tmp_path), "--stall-timeout", "300"]) == 1
        assert "stalled on 'fig7'" in capsys.readouterr().out


class TestFoldMetricName:
    def test_folds_to_metric_charset(self):
        assert fold_metric_name("Wired-Bottleneck Link") == "wired_bottleneck_link"
        assert fold_metric_name("ran", prefix="audit.link") == "audit.link.ran"

    def test_already_clean_names_pass_through(self):
        assert fold_metric_name("audit.link.ran.queue_residual_pkts") == (
            "audit.link.ran.queue_residual_pkts"
        )
