"""One module per paper table/figure; each exposes ``run(seed=...)``.

The catalogue (:mod:`repro.experiments.registry`) names every module and
imports one only when it runs, so importing this package loads none of
them; ``from repro.experiments import fig7_throughput`` imports that one
submodule.  The benchmarks in ``benchmarks/`` are thin wrappers that
execute these and assert the paper's qualitative shape; EXPERIMENTS.md
records the paper-vs-measured values.
"""

from repro.experiments.common import DEFAULT_SEED, Testbed, testbed
from repro.experiments.registry import (
    EXPERIMENTS,
    ExperimentSpec,
    UnknownExperimentError,
    resolve_names,
)

__all__ = [
    "DEFAULT_SEED",
    "EXPERIMENTS",
    "ExperimentSpec",
    "Testbed",
    "UnknownExperimentError",
    "resolve_names",
    "testbed",
]
