"""Tests for replint: the rule engine, rules, pragmas, baseline and CLI.

The fixture packages under ``tests/data/lint/`` are the contract: the
dirty package seeds exactly one violation per misuse pattern at known
line numbers, and its clean twin shows the sanctioned spelling of the
same code.  The meta-test at the bottom self-hosts the linter over
``src/`` so the gate in CI can never silently rot.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Baseline, all_project_rules, all_rules, lint_paths
from repro.lint.baseline import BASELINE_SCHEMA_VERSION
from repro.lint.report import REPORT_SCHEMA_VERSION

REPO_ROOT = Path(__file__).resolve().parents[1]
DIRTY = REPO_ROOT / "tests" / "data" / "lint" / "dirty"
CLEAN = REPO_ROOT / "tests" / "data" / "lint" / "clean"

#: (rule, fixture file, line) of every seeded violation in the dirty fixtures.
EXPECTED_DIRTY = [
    ("REP001", "sweep.py", 18),  # np.random.default_rng(0)
    ("REP001", "sweep.py", 19),  # random.random()
    ("REP001", "sweep.py", 19),  # time.time()
    ("REP002", "sweep.py", 20),  # window_ms + delay_s
    ("REP002", "sweep.py", 21),  # bandwidth_hz=window_ms
    ("REP003", "sweep.py", 26),  # sim.schedule(-1.0, ...)
    ("REP003", "sweep.py", 27),  # discarded retransmit-timeout handle
    ("REP003", "sweep.py", 32),  # Simulator() inside the sweep loop
    ("REP004", "sweep.py", 14),  # module-level mutable global
    ("REP004", "sweep.py", 30),  # mutable default argument
    ("REP005", "tracing.py", 9),  # discarded Tracer.begin() handle
    ("REP005", "tracing.py", 14),  # span handle never ended
    ("REP006", "kpis.py", 11),  # dash in metric name
    ("REP006", "kpis.py", 12),  # missing unit suffix
    ("REP006", "kpis.py", 13),  # uppercase in metric name
    ("REP006", "kpis.py", 14),  # counter without _count suffix
    ("REP006", "kpis.py", 15),  # registry accessor without suffix
    ("REP006", "kpis.py", 16),  # f-string name with unsuffixed tail
    ("REP006", "kpis.py", 17),  # instruments.current().registry without suffix
    ("REP007", "deployment.py", 7),  # from repro.core.config import LTE_PROFILE
    ("REP007", "deployment.py", 7),  # ... and NR_PROFILE on the same line
    ("REP007", "deployment.py", 8),  # from repro.core import DEFAULT_HANDOFF_CONFIG
    ("REP007", "deployment.py", 13),  # config.NR_PROFILE attribute use
    ("REP008", "survey.py", 11),  # rsrp_map_at per point inside a loop
    ("REP008", "survey.py", 17),  # rsrp_at per cell in a .cells comprehension
    ("REP008", "survey.py", 23),  # sample_at per cell in a .cells loop
    ("REP008", "survey.py", 36),  # RngFactory.stream per key in a comprehension
    ("REP009", "campaign.py", 17),  # _ms passed positionally to a _s param
    ("REP009", "campaign.py", 20),  # _ms-returning call assigned to an _s name
    ("REP009", "flow.py", 20),  # 'duration' inferred _ms at one site, _s at another
    ("REP009", "flow.py", 29),  # guard_ms() returns an _s expression
    ("REP010", "flow.py", 33),  # RngFactory(42) on an experiment-reachable path
    ("REP010", "flow.py", 38),  # rng param shadowed by default_rng(0)
    ("REP010", "flow.py", 43),  # module global mutated on a reachable path
    ("REP011", "controller.py", 10),  # numeric remedy field without unit suffix
    ("REP011", "controller.py", 11),  # second unsuffixed numeric field
    ("REP011", "controller.py", 16),  # time.monotonic() in qdisc code
    ("REP011", "controller.py", 19),  # time.perf_counter() in qdisc code
    ("REP012", "audit_probes.py", 11),  # event name outside the audit. namespace
    ("REP012", "audit_probes.py", 12),  # dash and uppercase in event name
    ("REP012", "audit_probes.py", 13),  # event name without unit suffix
    ("REP012", "audit_probes.py", 16),  # _audit_* probe helper mutating state
    ("REP012", "audit_probes.py", 20),  # instruments.current().auditor outside audit.
    ("REP013", "generator.py", 7),  # bare 'pitch' generator parameter
    ("REP013", "generator.py", 7),  # bare 'jitter' generator parameter
    ("REP013", "generator.py", 8),  # RngFactory(7) minted inside a generator
    ("REP013", "generator.py", 14),  # core_rng.default_rng(3) inside a generator
]

#: Number of python files in each fixture package.
FIXTURE_FILES = 10


class TestRegistry:
    def test_all_eleven_file_rule_families_registered(self):
        assert [r.id for r in all_rules()] == [
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
            "REP008", "REP011", "REP012", "REP013",
        ]

    def test_both_project_rules_registered(self):
        assert [r.id for r in all_project_rules()] == ["REP009", "REP010"]

    def test_severities(self):
        by_id = {r.id: r.severity for r in all_rules() + all_project_rules()}
        assert by_id["REP004"] == "warning"
        assert all(
            by_id[i] == "error"
            for i in (
                "REP001", "REP002", "REP003", "REP005", "REP006", "REP007",
                "REP008", "REP009", "REP010", "REP011", "REP012", "REP013",
            )
        )


class TestFixtures:
    def test_dirty_fixture_exact_rules_and_lines(self):
        result = lint_paths([DIRTY], root=REPO_ROOT)
        assert result.files_scanned == FIXTURE_FILES
        found = sorted((v.rule, Path(v.path).name, v.line) for v in result.violations)
        assert found == sorted(EXPECTED_DIRTY)

    def test_dirty_fixture_counts(self):
        result = lint_paths([DIRTY], root=REPO_ROOT)
        assert result.counts == {
            "REP001": 3, "REP002": 2, "REP003": 3, "REP004": 2, "REP005": 2,
            "REP006": 7, "REP007": 4, "REP008": 4, "REP009": 4, "REP010": 3,
            "REP011": 4, "REP012": 5, "REP013": 4,
        }

    def test_file_pass_only_skips_project_rules(self):
        result = lint_paths([DIRTY], root=REPO_ROOT, project=False)
        assert not any(v.rule in ("REP009", "REP010") for v in result.violations)
        assert result.counts["REP001"] == 3

    def test_clean_fixture_is_clean(self):
        result = lint_paths([CLEAN], root=REPO_ROOT)
        assert result.files_scanned == FIXTURE_FILES
        assert result.violations == []

    def test_violations_carry_snippets_and_display_paths(self):
        result = lint_paths([DIRTY], root=REPO_ROOT)
        first = result.violations[0]
        assert first.path == "tests/data/lint/dirty/experiments/campaign.py"
        assert first.snippet == "settled = settle(window_ms, 3.0)"
        sweep = next(
            v for v in result.violations if v.path.endswith("sweep.py")
        )
        assert sweep.snippet == "history = []"


class TestSpanHygiene:
    """REP005 edge cases beyond the fixture package."""

    def _lint(self, tmp_path, source, name="mod.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return [
            (v.rule, v.line)
            for v in lint_paths([tmp_path], root=tmp_path).violations
        ]

    def test_paired_begin_end_is_clean(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def f(tracer, t0_s, t1_s):\n"
            "    span = tracer.begin('x', t0_s)\n"
            "    span.end(t1_s)\n",
        ) == []

    def test_handle_flowing_elsewhere_is_not_flagged(self, tmp_path):
        # Returned handles are out of static reach; the rule stays quiet.
        assert self._lint(
            tmp_path,
            "def f(tracer, t_s):\n"
            "    return tracer.begin('x', t_s)\n",
        ) == []

    def test_end_in_nested_function_does_not_count(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def f(tracer, t0_s, t1_s):\n"
            "    span = tracer.begin('x', t0_s)\n"
            "    def later():\n"
            "        span.end(t1_s)\n"
            "    return later\n",
        ) == [("REP005", 2)]

    def test_non_tracer_receivers_are_ignored(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def f(transaction, t_s):\n"
            "    transaction.begin('x', t_s)\n",
        ) == []

    def test_trace_package_itself_is_exempt(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def f(tracer, t_s):\n"
            "    tracer.begin('x', t_s)\n",
            name="trace/core.py",
        ) == []

    def test_pragma_silences_rep005(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def f(tracer, t_s):\n"
            "    tracer.begin('x', t_s)  # replint: ignore[REP005]\n",
        ) == []


class TestPolicyScopes:
    """Scopes and spellings of the policy-table rules no fixture line reaches."""

    def _lint(self, tmp_path, source, name="mod.py"):
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return [
            (v.rule, v.line)
            for v in lint_paths([target], root=tmp_path).violations
        ]

    def test_rep006_is_silent_inside_the_metrics_package(self, tmp_path):
        source = "registry.gauge('fig0.energy.t5')\n"
        assert self._lint(tmp_path, source) == [("REP006", 1)]
        assert self._lint(tmp_path, source, name="metrics/registry.py") == []

    def test_both_rep012_halves_are_silent_inside_the_audit_package(self, tmp_path):
        source = (
            "def _audit_drops(self, auditor):\n"
            "    self.drops = 1\n"
            "    auditor.note('qdisc.drop_count', 0.0)\n"
        )
        assert self._lint(tmp_path, source) == [("REP012", 2), ("REP012", 3)]
        assert self._lint(tmp_path, source, name="audit/ledger.py") == []

    def test_name_keyword_form(self, tmp_path):
        assert self._lint(
            tmp_path,
            "registry.gauge(name='fig0.energy.t5')\n"
            "auditor.note(name='qdisc.drop_count')\n",
        ) == [("REP006", 1), ("REP012", 2)]

    def test_receiver_named_metrics(self, tmp_path):
        assert self._lint(
            tmp_path, "metrics.gauge('fig0.energy.t5')\n"
        ) == [("REP006", 1)]

    def test_rep006_counter_gauge_and_quantile_accessors(self, tmp_path):
        assert self._lint(
            tmp_path,
            "registry.counter('fig0.drops')\n"
            "registry.gauge('fig0.energy')\n"
            "registry.quantile('fig0.rtt')\n"
            "registry.histogram('fig0.delay')\n",
        ) == [("REP006", 1), ("REP006", 2), ("REP006", 3)]

    def test_rep012_flag_probe_and_observe_methods(self, tmp_path):
        assert self._lint(
            tmp_path,
            "auditor.flag('audit.codel.stall')\n"
            "auditor.probe('audit.codel.backlog', True, 0.0)\n"
            "auditor.observe('audit.codel.sojourn')\n",
        ) == [("REP012", 1), ("REP012", 2), ("REP012", 3)]

    def test_rep013_positional_only_and_keyword_only_parameters(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def grid(\n"
            "    pitch: float,\n"
            "    /,\n"
            "    extent_m: float,\n"
            "    *,\n"
            "    jitter: float,\n"
            ") -> None:\n"
            "    pass\n",
            name="topology/grid.py",
        ) == [("REP013", 2), ("REP013", 6)]

    def test_rep013_skips_private_functions(self, tmp_path):
        assert self._lint(
            tmp_path,
            "def _spacing(pitch: float) -> float:\n"
            "    return pitch\n"
            "def spacing(pitch: float) -> float:\n"
            "    return pitch\n",
            name="topology/grid.py",
        ) == [("REP013", 3)]

    def test_rep011_quoted_float_annotation(self, tmp_path):
        assert self._lint(
            tmp_path,
            "class RemedySection:\n"
            "    interval: 'float' = 0.1\n",
        ) == [("REP011", 2)]

    def test_wall_clock_in_qdisc_is_one_finding(self, tmp_path):
        # REP001 bans time.time everywhere; REP011 adds only the clocks
        # REP001 allows, so the call is reported once.
        assert self._lint(
            tmp_path,
            "import time\n"
            "def tick(now_s: float) -> float:\n"
            "    return time.time() - now_s\n",
            name="qdisc/controller.py",
        ) == [("REP001", 3)]


class TestPragmas:
    def test_named_pragma_suppresses_in_fixture(self):
        source = (DIRTY / "experiments" / "sweep.py").read_text()
        assert "default_rng(1)  # replint: ignore[REP001]" in source
        result = lint_paths([DIRTY], root=REPO_ROOT)
        assert not any(
            v.line == 38 and v.path.endswith("sweep.py") for v in result.violations
        )

    def test_bare_pragma_suppresses_everything(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import time\n"
            "t = time.time()  # replint: ignore\n"
        )
        assert lint_paths([target], root=tmp_path).violations == []

    def test_named_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import time\n"
            "t = time.time()  # replint: ignore[REP002]\n"
        )
        violations = lint_paths([target], root=tmp_path).violations
        assert [(v.rule, v.line) for v in violations] == [("REP001", 2)]

    def test_pragma_on_continuation_line_of_multiline_statement(self, tmp_path):
        # The call spans lines 2-4; a pragma on any of them suppresses the
        # violation anchored at line 2.
        target = tmp_path / "mod.py"
        target.write_text(
            "import time\n"
            "t = time.time(\n"
            "    # the slow clock\n"
            ")  # replint: ignore[REP001]\n"
        )
        assert lint_paths([target], root=tmp_path).violations == []

    def test_pragma_on_multiline_def_header_suppresses(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(\n"
            "    history=[],  # replint: ignore[REP004]\n"
            "):\n"
            "    return history\n"
        )
        assert lint_paths([target], root=tmp_path).violations == []

    def test_pragma_inside_def_body_does_not_silence_header_finding(self, tmp_path):
        # A def-anchored violation ends at the header, so a pragma on the
        # first body line must not swallow it.
        target = tmp_path / "mod.py"
        target.write_text(
            "def f(history=[]):\n"
            "    return history  # replint: ignore[REP004]\n"
        )
        violations = lint_paths([target], root=tmp_path).violations
        assert [(v.rule, v.line) for v in violations] == [("REP004", 1)]


class TestBaseline:
    def test_round_trip_grandfathers_every_violation(self, tmp_path):
        result = lint_paths([DIRTY], root=REPO_ROOT)
        path = tmp_path / "baseline.json"
        Baseline.from_violations(result.violations).save(path)
        loaded = Baseline.load(path)
        assert loaded.entries == Baseline.from_violations(result.violations).entries
        applied = loaded.apply(result)
        assert applied.violations == []
        assert len(applied.baselined) == len(EXPECTED_DIRTY)

    def test_missing_file_is_empty_baseline(self, tmp_path):
        assert Baseline.load(tmp_path / "nope.json").entries == Counter()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema_version": 99, "entries": []}))
        with pytest.raises(ValueError, match="unsupported baseline schema"):
            Baseline.load(path)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"schema_version": BASELINE_SCHEMA_VERSION, "entries": ["REP001"]},
            {
                "schema_version": BASELINE_SCHEMA_VERSION,
                "entries": [{"rule": "REP001", "path": "mod.py"}],
            },
        ],
        ids=["array", "entry-not-object", "entry-without-fingerprint"],
    )
    def test_malformed_baseline_rejected(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="baseline.json"):
            Baseline.load(path)

    def test_entries_are_consumed_not_reused(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "import time\n"
            "t = time.time()\n"
            "t = time.time()\n"
        )
        result = lint_paths([target], root=tmp_path)
        assert len(result.violations) == 2
        one = Baseline(
            entries=Counter({("REP001", "mod.py", "t = time.time()"): 1})
        )
        applied = one.apply(result)
        assert len(applied.baselined) == 1
        assert len(applied.violations) == 1

    def test_fingerprint_survives_line_drift(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nt = time.time()\n")
        baseline = Baseline.from_violations(
            lint_paths([target], root=tmp_path).violations
        )
        target.write_text("import time\n\n\n# a comment\nt = time.time()\n")
        drifted = lint_paths([target], root=tmp_path)
        assert drifted.violations[0].line == 5
        assert baseline.apply(drifted).violations == []


class TestCli:
    def test_dirty_fixture_fails_the_gate(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(DIRTY), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "replint: 47 new violation(s)" in out

    def test_clean_fixture_passes(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(CLEAN), "--no-baseline"]) == 0
        assert "0 new violation(s)" in capsys.readouterr().out

    def test_json_report_matches_documented_schema(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint", str(DIRTY), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["tool"] == "replint"
        assert payload["files_scanned"] == FIXTURE_FILES
        assert payload["counts"] == {
            "REP001": 3, "REP002": 2, "REP003": 3, "REP004": 2, "REP005": 2,
            "REP006": 7, "REP007": 4, "REP008": 4, "REP009": 4, "REP010": 3,
            "REP011": 4, "REP012": 5, "REP013": 4,
        }
        assert payload["baselined_count"] == 0
        assert payload["exit_code"] == 1
        assert len(payload["violations"]) == len(EXPECTED_DIRTY)
        for entry in payload["violations"]:
            assert set(entry) == {
                "rule", "severity", "path", "line", "end_line", "col", "message",
                "snippet",
            }
            assert isinstance(entry["line"], int)
            assert isinstance(entry["col"], int)
            assert entry["severity"] in ("error", "warning")

    def test_write_baseline_then_gate_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        baseline_path = tmp_path / "baseline.json"
        assert main(
            ["lint", str(DIRTY), "--write-baseline", "--baseline", str(baseline_path)]
        ) == 0
        assert "wrote 47 grandfathered violation(s)" in capsys.readouterr().out
        written = json.loads(baseline_path.read_text())
        assert written["schema_version"] == BASELINE_SCHEMA_VERSION
        assert main(["lint", str(DIRTY), "--baseline", str(baseline_path)]) == 0
        assert "47 baselined" in capsys.readouterr().out

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_syntax_error_reported_as_rep000(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP000" in out
        assert "does not parse" in out

    def test_malformed_baseline_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text("[]")
        assert main(["lint", str(CLEAN), "--baseline", str(baseline_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "baseline.json" in err


class TestSourceEncoding:
    def test_coding_cookie_is_honoured(self, tmp_path):
        (tmp_path / "legacy.py").write_bytes(
            b"# -*- coding: latin-1 -*-\n"
            b"GREETING = 'caf\xe9'\n"
        )
        result = lint_paths([tmp_path], root=tmp_path)
        assert result.files_scanned == 1
        assert result.violations == []

    def test_undecodable_file_is_rep000_and_others_still_lint(self, tmp_path):
        (tmp_path / "latin.py").write_bytes(b"x = 1\nname = 'caf\xe9'\n")
        (tmp_path / "mod.py").write_text("import time\nt = time.time()\n")
        violations = lint_paths([tmp_path], root=tmp_path).violations
        assert [(v.rule, v.path, v.line) for v in violations] == [
            ("REP000", "latin.py", 2),
            ("REP001", "mod.py", 2),
        ]


class TestSelfHosting:
    def test_src_tree_has_zero_non_baselined_violations(self, capsys, monkeypatch):
        """The linter gates its own codebase: ``repro lint src/`` is clean."""
        monkeypatch.chdir(REPO_ROOT)
        code = main(["lint", "src"])
        out = capsys.readouterr().out
        assert code == 0, f"replint found new violations in src/:\n{out}"
        assert "0 new violation(s)" in out
