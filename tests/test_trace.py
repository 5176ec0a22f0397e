"""Tests for repro.trace: recording, the instruments tracer field, exporters, analysis.

The integration tests at the bottom pin the contract the subsystem
exists for: traces are a pure function of (experiment, seed) — two runs
export byte-identical JSONL — and tracing never perturbs results.
"""

import json

import pytest

from repro import instruments, trace
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    TraceStats,
    Tracer,
    diff_traces,
    load_trace,
    summarize,
    summary_dict,
    summary_table,
    to_chrome,
    write_chrome,
    write_jsonl,
)


class TestTracerRecording:
    def test_complete_records_span_with_sorted_args(self):
        tracer = Tracer()
        tracer.complete("ho.phase:rrc", 1.0, 1.5, kind="5G-5G", step=2)
        tracer.complete("ho.phase:rrc", 1.0, 1.5, step=2, kind="5G-5G")
        span, reordered = tracer.spans()
        assert span.name == "ho.phase:rrc"
        assert span.begin_s == 1.0
        assert span.end_s == 1.5
        assert span.duration_s == pytest.approx(0.5)
        assert span.args == (("kind", "5G-5G"), ("step", 2))
        assert reordered == span

    def test_begin_end_handle(self):
        tracer = Tracer()
        handle = tracer.begin("attach", 2.0, cell=11)
        assert tracer.spans() == []  # nothing recorded until end()
        handle.end(3.0, outcome="ok")
        (span,) = tracer.spans(name="attach")
        assert (span.begin_s, span.end_s) == (2.0, 3.0)
        assert dict(span.args) == {"cell": 11, "outcome": "ok"}

    def test_end_is_idempotent(self):
        tracer = Tracer()
        handle = tracer.begin("x", 0.0)
        handle.end(1.0)
        handle.end(2.0)
        assert len(tracer.spans(name="x")) == 1

    def test_span_context_manager_reads_clock(self):
        tracer = Tracer()
        clock = iter([5.0, 7.0])
        with tracer.span("walk", lambda: next(clock), leg="nr"):
            pass
        (span,) = tracer.spans(name="walk")
        assert (span.begin_s, span.end_s) == (5.0, 7.0)
        assert dict(span.args) == {"leg": "nr"}

    def test_instants_and_query(self):
        tracer = Tracer()
        tracer.instant("ho.trigger", 1.0, kind="5G-5G")
        tracer.instant("tcp.rto", 2.0)
        assert len(tracer.instants()) == 2
        (hit,) = tracer.instants(name="ho.trigger")
        assert hit.time_s == 1.0

    def test_counter_series_in_emission_order(self):
        tracer = Tracer()
        tracer.counter("tcp.cwnd_bytes", 0.1, 10.0)
        tracer.counter("tcp.cwnd_bytes", 0.2, 20.0)
        tracer.counter("sim.queue_depth", 0.1, 1.0)
        assert tracer.counter_series("tcp.cwnd_bytes") == [(0.1, 10.0), (0.2, 20.0)]
        assert tracer.counter_names() == ["sim.queue_depth", "tcp.cwnd_bytes"]

    def test_counter_without_clock_uses_per_series_index(self):
        tracer = Tracer()
        tracer.counter("radio.mcs", None, 5.0)
        tracer.counter("harq.retx", None, 1.0)
        tracer.counter("radio.mcs", None, 9.0)
        assert tracer.counter_series("radio.mcs") == [(0.0, 5.0), (1.0, 9.0)]
        assert tracer.counter_series("harq.retx") == [(0.0, 1.0)]

    def test_bump_accumulates_running_total(self):
        tracer = Tracer()
        tracer.bump("tcp.retransmissions", 1.0)
        tracer.bump("tcp.retransmissions", 2.0, delta=2.0)
        assert tracer.counter_series("tcp.retransmissions") == [(1.0, 1.0), (2.0, 3.0)]

    def test_prefix_query(self):
        tracer = Tracer()
        tracer.complete("ho.phase:rrc", 0.0, 1.0)
        tracer.complete("ho.phase:path_switch", 1.0, 2.0)
        tracer.complete("sim.dispatch", 0.0, 0.0)
        assert len(tracer.spans(prefix="ho.phase:")) == 2
        assert tracer.span_names() == ["ho.phase:path_switch", "ho.phase:rrc", "sim.dispatch"]

    def test_ring_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.instant(f"e{i}", float(i))
        records = tracer.records()
        assert [r.name for r in records] == ["e2", "e3", "e4", "e5"]
        assert tracer.stats() == TraceStats(
            spans=0, instants=6, counter_samples=0, emitted=6, dropped=2
        )

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=4)
        tracer.complete("a", 0.0, 1.0)
        tracer.counter("c", None, 1.0)
        tracer.bump("b", 0.0)
        tracer.clear()
        assert tracer.records() == []
        assert tracer.stats() == TraceStats(0, 0, 0, 0, 0)
        tracer.counter("c", None, 2.0)  # per-series index restarted
        assert tracer.counter_series("c") == [(0.0, 2.0)]


def _tracer() -> Tracer | NullTracer:
    return instruments.current().tracer


class TestInstallStack:
    """The tracer field of the one :mod:`repro.instruments` stack."""

    def test_default_is_null_tracer(self):
        assert _tracer() is NULL_TRACER
        assert not _tracer().enabled

    def test_install_uninstall(self):
        tracer = Tracer()
        with instruments.using(tracer=tracer) as active:
            assert active.tracer is tracer
            assert _tracer() is tracer
        assert _tracer() is NULL_TRACER

    def test_tracing_context_manager_nests(self):
        outer = Tracer()
        with instruments.using(tracer=outer):
            assert _tracer() is outer
            with instruments.using(tracer=Tracer(capacity=8)) as inner:
                assert _tracer() is inner.tracer
                assert inner.tracer.capacity == 8
            assert _tracer() is outer
        assert _tracer() is NULL_TRACER

    def test_uninstall_requires_matching_tracer(self):
        a = instruments.using(tracer=Tracer())
        b = instruments.using(tracer=Tracer())
        a.__enter__()
        b.__enter__()
        try:
            with pytest.raises(RuntimeError, match="out of order"):
                a.__exit__(None, None, None)
        finally:
            b.__exit__(None, None, None)
            a.__exit__(None, None, None)
        assert _tracer() is NULL_TRACER

    def test_uninstall_with_nothing_installed_raises(self):
        with pytest.raises(RuntimeError, match="out of order"):
            instruments.using(tracer=Tracer()).__exit__(None, None, None)
        assert _tracer() is NULL_TRACER


class TestNullTracer:
    def test_all_hooks_are_no_ops(self):
        null = NullTracer()
        null.complete("a", 0.0, 1.0)
        null.instant("b", 0.0)
        null.counter("c", None, 1.0)
        null.bump("d", 0.0)
        null.begin("e", 0.0).end(1.0)
        with null.span("f", lambda: 0.0):
            pass
        assert null.records() == []
        assert null.spans() == []
        assert null.instants() == []
        assert null.counter_series("c") == []
        assert null.counter_names() == []
        assert null.span_names() == []
        assert null.stats() == TraceStats(0, 0, 0, 0, 0)
        null.clear()


def _small_tracer() -> Tracer:
    tracer = Tracer()
    tracer.complete("ho.phase:rrc", 1.0, 1.5, kind="5G-5G")
    tracer.instant("ho.trigger", 1.0, kind="5G-5G")
    tracer.counter("sim.queue_depth", 1.0, 3.0)
    return tracer


class TestJsonlExport:
    def test_header_then_sorted_key_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(_small_tracer(), str(path), meta={"seed": 7})
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["tool"] == "repro.trace"
        assert header["schema_version"] == 1
        assert header["emitted"] == 3
        assert header["dropped"] == 0
        assert header["meta"] == {"seed": 7}
        kinds = [json.loads(line)["kind"] for line in lines[1:]]
        assert kinds == ["span", "instant", "counter"]
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_identical_traces_export_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(_small_tracer(), str(a))
        write_jsonl(_small_tracer(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(_small_tracer(), str(path), meta={"seed": 7}) == 3
        loaded = load_trace(str(path))
        original = _small_tracer()
        assert loaded.spans() == original.spans()
        assert loaded.instants() == original.instants()
        assert loaded.counter_series("sim.queue_depth") == [(1.0, 3.0)]


class TestChromeExport:
    def test_event_structure(self):
        document = to_chrome(_small_tracer(), meta={"seed": 7})
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"] == {"seed": 7}
        events = document["traceEvents"]
        assert {e["ph"] for e in events} <= {"X", "C", "i", "M"}
        assert all(e["pid"] == 1 for e in events)
        (span,) = [e for e in events if e["ph"] == "X"]
        assert span["ts"] == pytest.approx(1.0e6)  # virtual s -> us
        assert span["dur"] == pytest.approx(0.5e6)
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["s"] == "t"

    def test_categories_become_named_threads(self):
        events = to_chrome(_small_tracer())["traceEvents"]
        thread_names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert thread_names == {"ho", "sim"}

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.json"
        assert write_chrome(_small_tracer(), str(path)) >= 3
        loaded = load_trace(str(path))
        (span,) = loaded.spans(name="ho.phase:rrc")
        assert span.begin_s == pytest.approx(1.0)
        assert span.duration_s == pytest.approx(0.5)
        assert loaded.counter_series("sim.queue_depth") == [(1.0, 3.0)]

    def test_loaded_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome(_small_tracer(), str(path))
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)


class TestAnalysis:
    def test_summary_dict(self):
        summary = summary_dict(_small_tracer())
        assert summary["spans"] == {"ho.phase:rrc": {"count": 1, "total_s": 0.5}}
        assert summary["instants"] == {"ho.trigger": 1}
        assert summary["counters"] == {"sim.queue_depth": {"samples": 1, "last": 3.0}}
        assert summary["emitted"] == 3
        assert summary["dropped"] == 0

    def test_summarize_compact_counts(self):
        assert summarize(_small_tracer()) == {
            "spans": 1, "instants": 1, "counter_samples": 1, "dropped": 0
        }

    def test_summary_table_renders(self):
        text = summary_table(_small_tracer()).render()
        assert "ho.phase:rrc" in text
        assert "sim.queue_depth" in text

    def test_diff_identical(self):
        diff = diff_traces(_small_tracer(), _small_tracer())
        assert diff.identical
        assert "(identical)" in diff.table().render()

    def test_diff_reports_changed_names_only(self):
        other = _small_tracer()
        other.complete("ho.phase:rrc", 2.0, 2.7)
        other.counter("sim.queue_depth", 2.0, 5.0)
        diff = diff_traces(_small_tracer(), other)
        assert not diff.identical
        assert diff.span_counts == {"ho.phase:rrc": (1, 2)}
        assert diff.counter_finals == {"sim.queue_depth": (3.0, 5.0)}
        assert diff.instant_counts == {}


def _handoff_campaign(seed=7, duration_s=120.0):
    """Run the walk campaign bypassing its lru_cache (so hooks fire)."""
    from repro.experiments.ho_campaign import _run_campaign
    from repro.scenario import default_scenario

    return _run_campaign.__wrapped__(seed, duration_s, default_scenario())


class TestInstrumentationIntegration:
    def test_handoff_run_emits_phase_spans(self):
        tracer = Tracer()
        with instruments.using(tracer=tracer):
            data = _handoff_campaign()
        assert data.events  # the walk produced hand-offs
        handoffs = tracer.spans(prefix="handoff:")
        assert len(handoffs) == len(data.events)
        phases = tracer.spans(prefix="ho.phase:")
        assert phases, "signalling steps should appear as ho.phase: spans"
        assert all(s.end_s >= s.begin_s for s in phases)
        assert len(tracer.instants(name="ho.trigger")) == len(data.events)
        assert len(tracer.instants(name="ho.complete")) == len(data.events)

    def test_a3_to_complete_span_covers_the_procedure(self):
        tracer = Tracer()
        with instruments.using(tracer=tracer):
            _handoff_campaign()
        spans = tracer.spans(name="ho.a3_to_complete")
        assert spans
        for span in spans:
            assert span.duration_s > 0

    def test_energy_simulator_emits_state_spans(self):
        from repro.experiments import fig23_energy_timeline

        tracer = Tracer()
        with instruments.using(tracer=tracer):
            fig23_energy_timeline.run(seed=7)
        spans = tracer.spans(prefix="energy.")
        assert spans
        assert all(dict(s.args)["power_w"] > 0 for s in spans)

    def test_link_adaptation_emits_mcs_counter(self):
        from repro.radio.linkadapt import LinkAdaptation

        tracer = Tracer()
        with instruments.using(tracer=tracer):
            LinkAdaptation.for_sinr(15.0)
            LinkAdaptation.for_sinr(-10.0)
        series = tracer.counter_series("radio.mcs")
        assert len(series) == 2
        assert series[0] == (0.0, series[0][1])
        assert series[1][1] == -1.0  # out-of-range SINR -> no grant

    def test_traced_transfer_records_link_depths_without_perturbing_it(self):
        from repro.experiments.common import path_config
        from repro.scenario import resolve_scenario
        from repro.transport.iperf import run_tcp

        config = path_config(resolve_scenario(None))
        baseline_bps = config.access_rate_bps() * config.scale

        def transfer():
            return run_tcp(config, "cubic", duration_s=0.2, seed=7, baseline_bps=baseline_bps)

        plain = transfer()
        tracer = Tracer()
        with instruments.using(tracer=tracer):
            traced = transfer()
        assert traced == plain
        for hop in ("wired-bottleneck", "core", "radio-access", "ack-radio-access"):
            depths = tracer.counter_series(f"link.{hop}.depth_pkts")
            sizes = tracer.counter_series(f"link.{hop}.depth_bytes")
            # One sample of each per accepted packet, taken after it joined the queue.
            assert depths and len(depths) == len(sizes)
            for (_, pkts), (_, size) in zip(depths, sizes):
                assert pkts >= 1 and size >= 40 * pkts

    def test_trace_is_deterministic_for_fixed_seed(self, tmp_path):
        first = Tracer()
        with instruments.using(tracer=first):
            _handoff_campaign()
        second = Tracer()
        with instruments.using(tracer=second):
            _handoff_campaign()
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(first, str(a))
        write_jsonl(second, str(b))
        assert a.read_bytes() == b.read_bytes()
        assert diff_traces(first, second).identical

    def test_tracing_does_not_perturb_results(self):
        plain = _handoff_campaign()
        with instruments.using(tracer=Tracer()):
            traced = _handoff_campaign()
        assert traced.events == plain.events
        assert traced.trace == plain.trace
        assert traced.outages == plain.outages

    def test_module_facade_reexports_core(self):
        assert trace.NULL_TRACER is NULL_TRACER
        assert trace.Tracer is Tracer


class TestLoadFailures:
    """Defective trace files raise ValueError with a diagnosable message.

    The cases every JSONL artifact shares (empty, truncated, headerless)
    are tested once for all kinds in ``tests/test_artifacts.py``.
    """

    def test_record_missing_fields(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        header = '{"kind": "header", "tool": "repro.trace", "schema_version": 1}'
        path.write_text(header + '\n{"kind": "span", "name": "x"}\n')
        with pytest.raises(ValueError, match="truncated or malformed span record"):
            load_trace(str(path))

    def test_truncated_chrome_json(self, tmp_path):
        path = tmp_path / "trunc.json"
        tracer = Tracer()
        tracer.complete("x", 0.0, 1.0)
        write_chrome(tracer, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="truncated or malformed"):
            load_trace(str(path))
