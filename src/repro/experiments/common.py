"""Shared context for the experiment modules.

Every experiment builds on the same world model, propagation environment
and radio networks; this module constructs them once per (seed, scenario)
and caches the result, mirroring how the measurement campaign reused one
testbed.  The scenario decides the deployment — radio profiles, anchor
gain, and the topology generator that produces the world (the hand-crafted
paper campus or a seeded procedural district) — so alternative deployments
flow through every experiment without touching the physics code.

It also hosts the KPI helpers (:func:`record_kpi`,
:func:`record_kpi_samples`, :func:`bump_kpi`): thin wrappers over the
ambient :mod:`repro.metrics` registry that experiments call to publish
headline numbers — throughput, hand-off latency, energy per bit — under
stable dotted names.  Names follow ``<experiment>.<quantity>.<variant>``
and end in a unit suffix from :data:`repro.core.units.UNIT_DIMENSIONS`
(or ``_count``/``_ratio``), which the REP006 lint rule enforces.  Outside
an instrumented run the ambient registry is a no-op, so experiments pay
nothing when invoked directly from tests or notebooks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from typing import Any

from repro import instruments
from repro.core.rng import RngFactory
from repro.geometry.world import WorldModel
from repro.net.path import PathConfig
from repro.radio.cell import RadioNetwork
from repro.radio.propagation import Environment
from repro.scenario import Scenario, resolve_scenario
from repro.topology import generate_world

__all__ = [
    "Testbed",
    "testbed",
    "warm",
    "testbed_cache_info",
    "path_config",
    "DEFAULT_SEED",
    "bump_kpi",
    "record_kpi",
    "record_kpi_samples",
]

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Testbed:
    """The measurement testbed: the world model plus both radio networks."""

    seed: int
    scenario: Scenario
    world: WorldModel
    environment: Environment
    nr: RadioNetwork
    lte: RadioNetwork
    lte_anchors: RadioNetwork

    @property
    def rng_factory(self) -> RngFactory:
        """A fresh factory positioned at the campaign seed."""
        return RngFactory(self.seed)


def testbed(seed: int = DEFAULT_SEED, scenario: Scenario | str | None = None) -> Testbed:
    """Build (or fetch the cached) testbed for ``(seed, scenario)``.

    ``scenario`` accepts anything :func:`repro.scenario.resolve_scenario`
    does: ``None`` (the paper's NSA deployment), a preset name, a file
    path or a :class:`Scenario` value.  Scenarios hash by content, so the
    cache keys on ``(seed, digest)`` for free.
    """
    return _build_testbed(seed, resolve_scenario(scenario))


@lru_cache(maxsize=4)
def _build_testbed(seed: int, scenario: Scenario) -> Testbed:
    world = generate_world(seed, scenario.topology)
    rngf = RngFactory(seed)
    environment = Environment(world.buildings, rngf)
    nr = RadioNetwork.from_world(world, scenario.radio.nr, environment)
    lte = RadioNetwork.from_world(world, scenario.radio.lte, environment)
    lte_anchors = RadioNetwork.from_sites(
        world.co_sited_enbs(),
        scenario.radio.lte,
        environment,
        max_gain_dbi=scenario.topology.lte_anchor_max_gain_dbi,
    )
    return Testbed(
        seed=seed,
        scenario=scenario,
        world=world,
        environment=environment,
        nr=nr,
        lte=lte,
        lte_anchors=lte_anchors,
    )


def path_config(scenario: Scenario, **overrides: Any) -> PathConfig:
    """The scenario's end-to-end measurement path, remedies included.

    Collects the :class:`~repro.net.path.PathConfig` fields a scenario
    determines — NR profile, simulation scale, server topology, and the
    ``[remedy]`` section — so experiments cannot silently drop the
    remedy when an operator asks for ``paper-nsa-codel``.  Keyword
    overrides win (e.g. ``direction="ul"`` or an explicit ``scale``).
    """
    settings: dict[str, Any] = {
        "profile": scenario.radio.nr,
        "scale": scenario.workload.sim_scale,
        "server_distance_km": scenario.topology.server_distance_km,
        "wired_hops": scenario.topology.wired_hops,
        "remedy": scenario.remedy,
    }
    settings.update(overrides)
    return PathConfig(**settings)


def warm(seed: int = DEFAULT_SEED, scenario: Scenario | str | None = None) -> Testbed:
    """Pre-build the testbed so later experiments hit the cache.

    Campaign-runner workers call this from their pool initializer: the
    testbed build dominates the startup cost of cheap experiments, so each
    worker pays it once up front instead of inside its first task.
    """
    return testbed(seed, scenario)


def testbed_cache_info():
    """``functools`` cache statistics for the per-process testbed cache."""
    return _build_testbed.cache_info()


def record_kpi(name: str, value: float) -> None:
    """Publish a headline scalar (gauge) under the ambient registry.

    Use for single derived numbers: a mean throughput, a coverage
    fraction, an energy-per-bit figure.  Last write wins on re-entry
    within a run; across runs each run's value is kept per origin.
    """
    instruments.current().registry.gauge(name).set(float(value))


def record_kpi_samples(name: str, samples: Iterable[float]) -> None:
    """Publish a sample population into a mergeable quantile sketch.

    Use for distributions the paper reports as CDFs/percentiles —
    hand-off latencies, per-path RTTs.  The sketch keeps an exact mean
    and a bottom-k reservoir for quantiles, and merges deterministically
    across workers.
    """
    sketch = instruments.current().registry.quantile(name)
    for sample in samples:
        sketch.observe(float(sample))


def bump_kpi(name: str, delta: int = 1) -> None:
    """Increment a monotone event counter under the ambient registry."""
    instruments.current().registry.counter(name).inc(delta)
