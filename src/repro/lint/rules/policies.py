"""Rules as rows: REP001, REP006, REP011, REP012 and REP013.

These rules are made of three generic checks, so each is a row of
:data:`POLICIES` instead of a module.  A row names the rule, lists the
checks it runs and may exempt one package; every message a generic check
reports is row data.  REP012's read-only ``_audit_*`` check is the one
hand-written check.  Each row registers one rule instance under its id,
so pragmas, the baseline and the README catalogue address these rules
as they address module rules.  Every policy is an error.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass

from repro.core.units import unit_suffix
from repro.lint.engine import FileContext, Rule, Violation, register, terminal_name

#: Constructors that root a *new* generator lineage.  ``derive`` is
#: deliberately absent: splitting a child off an injected generator is
#: the sanctioned way to fan out streams.
RNG_CONSTRUCTORS = frozenset(
    {
        "repro.core.rng.default_rng",
        "repro.core.rng.RngFactory",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "random.Random",
    }
)

#: Suffixes of dimensionless quantities, allowed alongside the units lattice.
_DIMENSIONLESS_SUFFIXES = ("_count", "_ratio")

#: Annotations that make a knob numeric.
_NUMERIC_ANNOTATIONS = frozenset({"int", "float"})

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_.")

#: A check yields the findings of ``rule`` in one file.
Check = Callable[[Rule, FileContext], Iterator[Violation]]


def _is_suffixed(name: str) -> bool:
    """Does ``name`` end in a core.units suffix or a dimensionless one?"""
    return name.endswith(_DIMENSIONLESS_SUFFIXES) or unit_suffix(name) is not None


def _annotation_name(annotation: ast.AST | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value  # a quoted annotation
    return None


def _name_parts(node: ast.AST) -> list[str | None] | None:
    """A name expression as literal fragments.

    ``None`` entries stand for interpolated values; a ``None`` return
    means the expression is not statically analysable at all.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        parts: list[str | None] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append(None)
        return parts
    return None


@dataclass(frozen=True)
class BannedCalls:
    """Calls to banned names are findings.

    ``calls`` maps a qualified name to its message, formatted with the
    resolved ``call``; a key ending in ``.`` bans every call under that
    namespace.  ``package`` confines the ban to files under a directory
    of that name, and ``seam`` is the one module the ban exempts.
    """

    calls: Mapping[str, str]
    package: str | None = None
    seam: str | None = None

    def __call__(self, rule: Rule, ctx: FileContext) -> Iterator[Violation]:
        if self.package is not None and not ctx.in_package_dir(self.package):
            return
        if self.seam is not None and ctx.is_module(self.seam):
            return
        namespaces = [(key, text) for key, text in self.calls.items() if key.endswith(".")]
        for node in ctx.walk(ast.Call):
            qualified = ctx.imports.resolve(node.func)
            if qualified is None:
                continue
            message = self.calls.get(qualified)
            if message is None:
                message = next(
                    (text for key, text in namespaces if qualified.startswith(key)),
                    None,
                )
            if message is not None:
                yield rule.violation(ctx, node, message.format(call=qualified))


@dataclass(frozen=True)
class SuffixedKnobs:
    """Numeric knobs (annotated ``int``/``float``) carry a unit suffix.

    The knobs are the annotated fields of ``classes`` or, when it is
    empty, the parameters of public functions.  ``package`` confines the
    check to files under a directory of that name, ``bare_names`` need no
    suffix, and ``message`` is formatted with the knob's ``name`` and its
    ``owner`` class or function.
    """

    message: str
    classes: tuple[str, ...] = ()
    package: str | None = None
    bare_names: frozenset[str] = frozenset()

    def __call__(self, rule: Rule, ctx: FileContext) -> Iterator[Violation]:
        if self.package is not None and not ctx.in_package_dir(self.package):
            return
        for anchor, name, annotation, owner in self._knobs(ctx):
            if (
                name not in self.bare_names
                and _annotation_name(annotation) in _NUMERIC_ANNOTATIONS
                and not _is_suffixed(name)
            ):
                message = self.message.format(name=name, owner=owner)
                yield rule.violation(ctx, anchor, message)

    def _knobs(self, ctx: FileContext) -> Iterator[tuple[ast.AST, str, ast.AST | None, str]]:
        """(anchor, name, annotation, owner) of every knob in ``ctx``."""
        if self.classes:
            for node in ctx.walk(ast.ClassDef):
                if node.name not in self.classes:
                    continue
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign) and isinstance(
                        statement.target, ast.Name
                    ):
                        target = statement.target.id
                        yield statement, target, statement.annotation, node.name
            return
        for node in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef):
            if node.name.startswith("_"):
                continue
            arguments = node.args
            for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
                if arg.arg not in ("self", "cls"):
                    yield arg, arg.arg, arg.annotation, node.name


@dataclass(frozen=True)
class RegisteredNames:
    """Registered names match ``[a-z0-9_.]+`` and end in a unit suffix.

    A call registers a name when it resolves to one of ``helpers``, or
    calls one of ``methods`` on a receiver whose name contains one of the
    ``receivers`` tokens; the name is its first argument or ``name=``.
    f-string names are checked on their literal fragments; names built by
    opaque expressions are out of static reach.  A name must also start
    with ``namespace`` when one is given.  The messages are formatted
    with the offending ``chars``, first segment (``head``) or last
    segment (``last``).
    """

    methods: frozenset[str]
    receivers: tuple[str, ...]
    bad_chars: str
    no_suffix: str
    helpers: frozenset[str] = frozenset()
    namespace: str = ""
    outside_namespace: str = ""

    def __call__(self, rule: Rule, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.walk(ast.Call):
            name_node = self._name_argument(ctx, node)
            if name_node is None:
                continue
            parts = _name_parts(name_node)
            if parts is None:
                continue  # dynamically built name: out of static reach
            message = self._problem(parts)
            if message is not None:
                yield rule.violation(ctx, name_node, message)

    def _name_argument(self, ctx: FileContext, node: ast.Call) -> ast.AST | None:
        """The name argument of ``node``, if it is a registration call."""
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in self.methods
            and self._is_receiver(func.value)
        ) and not (self.helpers and ctx.imports.resolve(func) in self.helpers):
            return None
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "name":
                return keyword.value
        return None

    def _is_receiver(self, node: ast.AST) -> bool:
        name = terminal_name(node)
        return name is not None and any(token in name.lower() for token in self.receivers)

    def _problem(self, parts: list[str | None]) -> str | None:
        literal_text = "".join(part for part in parts if part is not None)
        bad = sorted({ch for ch in literal_text if ch not in _NAME_CHARS})
        if bad:
            return self.bad_chars.format(chars=", ".join(map(repr, bad)))
        head = parts[0]
        if self.namespace and head is not None and not head.startswith(self.namespace):
            return self.outside_namespace.format(head=head.split(".", 1)[0])
        tail = parts[-1]
        if tail is None:
            return None  # interpolated tail: suffix is not statically known
        last = tail.rsplit(".", 1)[-1]
        return None if _is_suffixed(last) else self.no_suffix.format(last=last)


def _read_only_probes(rule: Rule, ctx: FileContext) -> Iterator[Violation]:
    """Flag attribute/subscript assignments and ``del`` in ``_audit_*`` helpers.

    By convention ``_audit_*`` helpers are read-only observers called
    from simulation hot paths, so a mutation there is the one bug class
    that would make audited and unaudited runs diverge.  Helpers that
    must mutate are named ``_register_audit``.
    """
    for fn in ctx.walk(ast.FunctionDef):
        if not fn.name.startswith("_audit_"):
            continue
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if not any(isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets):
                    continue
            elif not isinstance(node, ast.Delete):
                continue
            yield rule.violation(
                ctx,
                node,
                f"probe helper {fn.name!r} mutates state: _audit_* "
                "functions are read-only observers (an audit layer that "
                "perturbs the run cannot certify it); mutate from a "
                "_register_audit helper or rename the function",
            )


class Policy(Rule):
    """One table row: a rule's name, the checks it runs, the package it exempts."""

    def __init__(self, name: str, *checks: Check, exempt: str | None = None) -> None:
        self.name = name
        self.checks = checks
        self.exempt = exempt

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if self.exempt is not None and ctx.in_package_dir(self.exempt):
            return  # the package implements what the rule guards
        for check in self.checks:
            yield from check(self, ctx)


#: Every policy rule, keyed by rule id.
POLICIES: dict[str, Policy] = {
    # Results are cached by (experiment, seed, source hash), so a draw
    # that bypasses the seeded streams silently poisons cached figures.
    "REP001": Policy(
        "determinism",
        BannedCalls(
            calls={
                "numpy.random.": (
                    "direct call to {call}; take an np.random.Generator "
                    "parameter or draw a named RngFactory stream "
                    "(repro.core.rng) so campaign seeds stay reproducible"
                ),
                "random.": (
                    "stdlib {call} uses hidden global state; use a seeded "
                    "np.random.Generator from repro.core.rng instead"
                ),
                **dict.fromkeys(
                    (
                        "time.time",
                        "time.time_ns",
                        "datetime.datetime.now",
                        "datetime.datetime.utcnow",
                        "datetime.datetime.today",
                        "datetime.date.today",
                        "uuid.uuid1",
                        "uuid.uuid4",
                        "os.urandom",
                        "secrets.token_bytes",
                        "secrets.token_hex",
                    ),
                    "{call} is nondeterministic across runs; results keyed by "
                    "seed must not depend on wall clock or process entropy",
                ),
            },
            seam="core/rng.py",
        ),
    ),
    # `repro inspect diff`, the bench KPI gate and the Prometheus exporter
    # match metric names byte for byte.
    "REP006": Policy(
        "metric-names",
        RegisteredNames(
            helpers=frozenset(
                {
                    "repro.experiments.common.record_kpi",
                    "repro.experiments.common.record_kpi_samples",
                    "repro.experiments.common.bump_kpi",
                }
            ),
            methods=frozenset({"counter", "gauge", "quantile"}),
            receivers=("registry", "metrics"),
            bad_chars="metric name contains {chars}: names must match [a-z0-9_.]+",
            no_suffix=(
                "metric name ends in {last!r}: names must end in a "
                "core.units suffix (_ms, _bps, ...) or _count/_ratio"
            ),
        ),
        exempt="metrics",
    ),
    # Controllers run on the virtual time the simulator passes in; any host
    # clock, even the monotonic ones REP001 allows, breaks serial/parallel
    # byte-identity.  The wall clocks REP001 bans everywhere are left to it,
    # so one call yields one finding.
    "REP011": Policy(
        "remedy-config",
        SuffixedKnobs(
            classes=("RemedySection",),
            message=(
                "numeric remedy field {name!r} has no unit suffix; "
                "name the unit (_ms, _bytes, _bps, ...) or declare it "
                "dimensionless (_ratio/_count) so every caller reads "
                "the same quantity"
            ),
        ),
        BannedCalls(
            calls=dict.fromkeys(
                (
                    "time.monotonic",
                    "time.monotonic_ns",
                    "time.perf_counter",
                    "time.perf_counter_ns",
                    "time.process_time",
                    "time.process_time_ns",
                    "time.thread_time",
                    "time.thread_time_ns",
                ),
                "wall-clock read {call} inside qdisc/controller "
                "code; control loops run on virtual time passed in by "
                "the simulator (now_s), never the host clock",
            ),
            package="qdisc",
        ),
    ),
    # Ledgers are exported as audit.* KPIs and flight-recorder dumps are
    # compared byte for byte, so a misspelt event name forks a ledger.
    "REP012": Policy(
        "audit-hygiene",
        RegisteredNames(
            methods=frozenset({"note", "flag", "probe", "observe", "watch"}),
            receivers=("audit",),
            bad_chars="audit event name contains {chars}: names must match [a-z0-9_.]+",
            no_suffix=(
                "audit event name ends in {last!r}: names "
                "must end in a core.units suffix (_s, _bytes, ...) or "
                "_count/_ratio"
            ),
            namespace="audit.",
            outside_namespace=(
                "audit event name starts with {head!r}: names "
                "must live under the 'audit.' namespace so exported KPIs and "
                "flight-recorder dumps stay greppable as one family"
            ),
        ),
        _read_only_probes,
        exempt="audit",
    ),
    # A generator minting its own RNG forks the stream tree behind the
    # golden worlds; `seed` is the campaign's entropy label, not a quantity.
    "REP013": Policy(
        "topology-generator",
        SuffixedKnobs(
            package="topology",
            bare_names=frozenset({"seed"}),
            message=(
                "numeric generator parameter {name!r} of {owner}() "
                "has no unit suffix; name the unit (_m, _kmh, _mhz, ...) "
                "or declare it dimensionless (_ratio/_count) so scenario "
                "knobs and generator arguments stay in the same lattice"
            ),
        ),
        BannedCalls(
            calls=dict.fromkeys(
                RNG_CONSTRUCTORS,
                "RNG constructed via {call} inside topology "
                "generator code; generators must draw from the injected "
                "generator (or a repro.core.rng.derive child of it) so "
                "(seed, TopologySection) reproduces byte-identically — "
                "only topology/generate.py mints the root stream",
            ),
            package="topology",
            seam="topology/generate.py",
        ),
    ),
}

for _rule_id, _policy in POLICIES.items():
    _policy.id = _rule_id
    register(_policy)
