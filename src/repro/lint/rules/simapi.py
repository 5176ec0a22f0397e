"""REP003: discrete-event simulator API contracts.

Three misuse patterns around :class:`repro.net.sim.Simulator`:

* **negative literal delays** — ``sim.schedule(-0.1, cb)`` raises at
  runtime and ``schedule_at`` with a negative literal timestamp can
  never be reached; both are compile-time-detectable typos.
* **discarded timer handles** — ``schedule``/``schedule_at`` return a
  handle whose ``cancel()`` disarms the scheduled callback.  For
  fire-and-forget callbacks discarding it is idiomatic, but timers that
  *must* be cancellable (timeouts, retransmission/RTO timers) leak a
  stale timer if the handle is dropped — exactly the bug class behind
  spurious retransmissions.
* **re-entrant construction** — building a fresh ``Simulator()``
  directly inside an experiment sweep loop mixes per-iteration virtual
  time with loop-carried components built against the previous
  instance; construct it in a per-repetition helper instead.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.engine import FileContext, Rule, Violation, rule, terminal_name

_SCHEDULE_METHODS = ("schedule", "schedule_at")

#: Callback names that by convention are cancellable timers.
_TIMER_NAME_RE = re.compile(r"timeout|retransmit|rto", re.IGNORECASE)


def _is_schedule_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _SCHEDULE_METHODS
    )


def _negative_literal(node: ast.AST) -> bool:
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return True
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and node.value < 0
    )


@rule
class SimulatorApiRule(Rule):
    """Flag schedule/Simulator usage that breaks the event-loop contract."""

    id = "REP003"
    name = "simulator-api"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.walk(ast.Call, ast.Expr):
            if isinstance(node, ast.Call) and _is_schedule_call(node):
                yield from self._check_delay(ctx, node)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                yield from self._check_discarded_timer(ctx, node.value)
        if ctx.in_package_dir("experiments"):
            yield from self._simulator_in_loop(ctx)

    def _check_delay(self, ctx: FileContext, call: ast.Call) -> Iterator[Violation]:
        if call.args and _negative_literal(call.args[0]):
            method = call.func.attr  # type: ignore[union-attr]
            yield self.violation(
                ctx,
                call,
                f"negative literal delay/time passed to {method}(); "
                "the simulator cannot schedule into the past",
            )

    def _check_discarded_timer(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterator[Violation]:
        if not _is_schedule_call(call) or len(call.args) < 2:
            return
        name = terminal_name(call.args[1])
        if name is not None and _TIMER_NAME_RE.search(name):
            yield self.violation(
                ctx,
                call,
                f"discarding the handle schedule() returns for a cancellable "
                f"timer ({name}); keep it so the timer can be cancelled when "
                "the awaited reply arrives",
            )

    def _simulator_in_loop(self, ctx: FileContext) -> Iterator[Violation]:
        reported: set[int] = set()
        for loop in ctx.walk(ast.For, ast.AsyncFor, ast.While):
            for node in ast.walk(loop):
                if node is loop or not isinstance(node, ast.Call):
                    continue
                qualified = ctx.imports.resolve(node.func)
                if (
                    qualified is not None
                    and qualified.endswith(".Simulator")
                    and id(node) not in reported
                ):
                    reported.add(id(node))
                    yield self.violation(
                        ctx,
                        node,
                        "Simulator() constructed inside an experiment loop; "
                        "build one per repetition in a helper function so "
                        "components cannot leak across iterations",
                    )
