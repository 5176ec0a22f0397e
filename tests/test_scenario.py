"""Tests for the scenario layer: presets, digests, overrides, threading.

The heart of the suite is the golden-file check: running the default
(``paper-nsa``) scenario must reproduce the pre-scenario-layer results
byte-for-byte, so the refactor provably changed no physics.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from repro.cli import _to_jsonable
from repro.experiments.common import testbed as build_testbed
from repro.experiments.registry import EXPERIMENTS
from repro.runner import ResultCache, execute_experiment, run_sweep
from repro.scenario import (
    DEFAULT_SCENARIO_NAME,
    PRESET_NAMES,
    Scenario,
    ScenarioOverrideError,
    UnknownScenarioError,
    apply_overrides,
    default_scenario,
    dumps_toml,
    expand_sweep,
    load_scenario,
    parse_set_args,
    parse_sweep_args,
    preset,
    resolve_scenario,
    scenario_digest,
    scenario_from_mapping,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "data" / "golden" / "default_scenario_seed7.json"

#: The experiments pinned by the golden file (coverage, hand-off,
#: transport, latency and energy layers — one per subsystem).
GOLDEN_EXPERIMENTS = ("tab1", "fig3", "fig13", "fig22", "tab4")


class TestGoldenByteIdentity:
    def test_default_scenario_reproduces_pre_refactor_results(self):
        """The refactor's load-bearing guarantee, checked byte-for-byte.

        The golden file was captured at the commit *before* the scenario
        layer existed; the default scenario must reproduce it exactly.
        """
        payload = {
            name: _to_jsonable(EXPERIMENTS[name].run(seed=7))
            for name in GOLDEN_EXPERIMENTS
        }
        rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert rendered.encode() == GOLDEN.read_bytes()

    def test_explicit_default_matches_implicit_none(self):
        implicit = _to_jsonable(EXPERIMENTS["tab1"].run(seed=7))
        explicit = _to_jsonable(
            EXPERIMENTS["tab1"].run(seed=7, scenario=DEFAULT_SCENARIO_NAME)
        )
        assert implicit == explicit


class TestPresets:
    def test_preset_names_and_default(self):
        assert DEFAULT_SCENARIO_NAME == "paper-nsa"
        assert DEFAULT_SCENARIO_NAME in PRESET_NAMES
        assert len(PRESET_NAMES) == 11

    def test_presets_have_distinct_digests(self):
        digests = {name: scenario_digest(preset(name)) for name in PRESET_NAMES}
        assert len(set(digests.values())) == len(PRESET_NAMES)

    def test_default_scenario_is_paper_nsa(self):
        assert default_scenario() == Scenario()
        assert not default_scenario().radio.sa_mode

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            resolve_scenario("sa-modee")
        message = str(excinfo.value)
        assert "sa-modee" in message
        assert "sa-mode" in message

    def test_resolve_accepts_value_name_and_none(self):
        value = preset("dense-grid")
        assert resolve_scenario(value) is value
        assert resolve_scenario("dense-grid") == value
        assert resolve_scenario(None) == default_scenario()


class TestDigest:
    def test_digest_ignores_name(self):
        renamed = apply_overrides(default_scenario(), {})
        import dataclasses

        renamed = dataclasses.replace(renamed, name="something-else")
        assert scenario_digest(renamed) == scenario_digest(default_scenario())

    def test_digest_changes_with_content(self):
        tweaked = apply_overrides(
            default_scenario(), {"workload.sim_scale": 0.1}
        )
        assert scenario_digest(tweaked) != scenario_digest(default_scenario())

    def test_digest_stable_across_processes(self):
        """The digest keys on-disk caches shared across processes."""
        script = (
            "from repro.scenario import PRESET_NAMES, preset, scenario_digest;"
            "print(','.join(scenario_digest(preset(n)) for n in PRESET_NAMES))"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        ).stdout.strip()
        local = ",".join(scenario_digest(preset(n)) for n in PRESET_NAMES)
        assert out == local

    def test_scenarios_are_hashable_and_picklable(self):
        scenario = preset("mmwave-ish")
        assert hash(scenario) == hash(preset("mmwave-ish"))
        assert pickle.loads(pickle.dumps(scenario)) == scenario


class TestOverrides:
    def test_set_parsing_and_coercion(self):
        overrides = parse_set_args(
            ["radio.sa_mode=true", "topology.wired_hops=6",
             "workload.sim_scale=0.1", "radio.nr.name=test"]
        )
        scenario = apply_overrides(default_scenario(), overrides)
        assert scenario.radio.sa_mode is True
        assert scenario.topology.wired_hops == 6
        assert scenario.workload.sim_scale == 0.1
        assert scenario.radio.nr.name == "test"

    def test_unknown_key_lists_valid_fields(self):
        with pytest.raises(ScenarioOverrideError) as excinfo:
            apply_overrides(default_scenario(), {"radio.sa_modee": True})
        message = str(excinfo.value)
        assert "sa_modee" in message
        assert "sa_mode" in message

    def test_section_target_rejected(self):
        with pytest.raises(ScenarioOverrideError):
            apply_overrides(default_scenario(), {"radio": True})

    def test_type_mismatch_rejected(self):
        with pytest.raises(ScenarioOverrideError):
            apply_overrides(default_scenario(), {"radio.sa_mode": 3.5})

    def test_malformed_set_arg_rejected(self):
        with pytest.raises(ScenarioOverrideError):
            parse_set_args(["radio.sa_mode"])


class TestTomlRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_round_trips_through_toml(self, name, tmp_path):
        scenario = preset(name)
        path = tmp_path / f"{name}.toml"
        path.write_text(dumps_toml(scenario))
        loaded = load_scenario(path)
        assert loaded == scenario
        assert scenario_digest(loaded) == scenario_digest(scenario)

    def test_mapping_with_base_preset(self):
        scenario = scenario_from_mapping(
            {"base": "sa-mode", "name": "custom", "topology": {"wired_hops": 6}}
        )
        assert scenario.name == "custom"
        assert scenario.radio.sa_mode is True
        assert scenario.topology.wired_hops == 6

    def test_resolve_scenario_loads_files(self, tmp_path):
        path = tmp_path / "custom.toml"
        path.write_text(dumps_toml(preset("dense-grid")))
        assert resolve_scenario(str(path)) == preset("dense-grid")

    def test_toml_parses_with_stdlib(self):
        parsed = tomllib.loads(dumps_toml(preset("fdd-nr")))
        assert parsed["radio"]["nr"]["duplex"] == "FDD"


class TestSweepExpansion:
    def test_cartesian_product_last_axis_fastest(self):
        axes = parse_sweep_args(
            ["topology.wired_hops=4,6", "radio.sa_mode=false,true"]
        )
        points = expand_sweep(default_scenario(), axes)
        assert [p[0] for p in points] == [
            {"topology.wired_hops": 4, "radio.sa_mode": False},
            {"topology.wired_hops": 4, "radio.sa_mode": True},
            {"topology.wired_hops": 6, "radio.sa_mode": False},
            {"topology.wired_hops": 6, "radio.sa_mode": True},
        ]
        assert len({scenario_digest(p[1]) for p in points}) == 4

    def test_no_axes_is_single_base_point(self):
        points = expand_sweep(default_scenario(), [])
        assert points == [({}, default_scenario())]

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioOverrideError):
            parse_sweep_args(["radio.sa_mode="])


class TestScenarioThreading:
    def test_testbed_cached_per_scenario(self):
        default_bed = build_testbed(7)
        assert build_testbed(7) is default_bed
        assert build_testbed(7, "paper-nsa") is default_bed
        dense_bed = build_testbed(7, "dense-grid")
        assert dense_bed is not default_bed
        assert len(dense_bed.world.gnb_sites) > len(default_bed.world.gnb_sites)

    def test_cache_entries_distinct_per_scenario(self, tmp_path):
        """Changing the scenario misses the cache; same scenario hits it."""
        cache = ResultCache(tmp_path)
        result_default, record_default = execute_experiment(
            "tab1", 7, str(tmp_path)
        )
        assert not record_default.cached
        assert record_default.scenario_digest == scenario_digest(default_scenario())

        _, record_again = execute_experiment("tab1", 7, str(tmp_path))
        assert record_again.cached

        _, record_sa = execute_experiment(
            "tab1", 7, str(tmp_path), scenario=preset("sa-mode")
        )
        assert not record_sa.cached  # distinct digest -> distinct entry
        assert record_sa.scenario_digest == scenario_digest(preset("sa-mode"))

        stems = sorted(p.name for p in cache.root.rglob("*.pkl"))
        assert len(stems) == 2
        assert all("--scn=" in stem for stem in stems)

    def test_run_sweep_points_carry_distinct_digests(self, tmp_path):
        # 120 s and 300 s walks see different hand-off sets (2 vs 4 events),
        # so the per-point KPI snapshots must diverge.
        axes = parse_sweep_args(["workload.ho_duration_s=120,300"])
        points = run_sweep(
            ["fig6"], base=default_scenario(), axes=axes,
            cache=ResultCache(tmp_path),
        )
        assert [p.index for p in points] == [0, 1]
        assert points[0].digest != points[1].digest
        assert all(len(p.outcomes) == 1 for p in points)
        snapshots = [p.metrics() for p in points]
        assert snapshots[0] != snapshots[1]
