"""Rules register themselves on import.

A rule is either a module here that registers with the ``@rule`` (or
``@project_rule``) decorator, or a row of the
:data:`~repro.lint.rules.policies.POLICIES` table when it is made of the
generic banned-call, unit-suffixed-knob and registered-name checks.
Adding a rule means adding a module and importing it below, or adding a
row; the engine, CLI, baseline and report layers need no changes.
"""

from repro.lint.rules import (
    hotpath,
    policies,
    rngflow,
    scenario,
    simapi,
    spans,
    state,
    units,
    unitsflow,
)

__all__ = [
    "hotpath",
    "policies",
    "rngflow",
    "scenario",
    "simapi",
    "spans",
    "state",
    "units",
    "unitsflow",
]
