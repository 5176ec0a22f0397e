"""Committed-baseline support: grandfather old violations, gate new ones.

A baseline entry is ``(rule, path, fingerprint)`` where the fingerprint
is the stripped source text of the offending line — deliberately *not*
the line number, so entries survive unrelated edits above them.  Each
entry carries a count: two identical offending lines in one file need
two entries (``--write-baseline`` handles this automatically).

Matching consumes entries, so a baseline with one entry for a pattern
lets exactly one occurrence through; a second, newly introduced copy of
the same line still fails the gate.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.engine import LintResult, Violation

__all__ = ["BASELINE_SCHEMA_VERSION", "Baseline", "DEFAULT_BASELINE_NAME"]

BASELINE_SCHEMA_VERSION = 1

#: Looked for in the working directory when ``--baseline`` is not given.
DEFAULT_BASELINE_NAME = "lint-baseline.json"

_Key = tuple[str, str, str]

#: The fields of an entry that make up its :data:`_Key`.
_KEY_FIELDS = ("rule", "path", "fingerprint")


@dataclass
class Baseline:
    """A multiset of grandfathered violations."""

    entries: Counter = field(default_factory=Counter)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline.

        Raises:
            ValueError: naming ``path``, when it is not a baseline of the
                current schema.
        """
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise ValueError(f"baseline {path} is not a JSON object")
        version = payload.get("schema_version")
        if version != BASELINE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported baseline schema {version!r} in {path} "
                f"(expected {BASELINE_SCHEMA_VERSION}); regenerate with "
                "`repro lint --write-baseline`"
            )
        entries: Counter = Counter()
        for entry in payload.get("entries", []):
            if not isinstance(entry, dict) or not all(k in entry for k in _KEY_FIELDS):
                raise ValueError(
                    f"malformed entry {entry!r} in baseline {path}: every "
                    f"entry is an object with {', '.join(_KEY_FIELDS)}"
                )
            key: _Key = (entry["rule"], entry["path"], entry["fingerprint"])
            entries[key] += int(entry.get("count", 1))
        return cls(entries=entries)

    @classmethod
    def from_violations(cls, violations: list[Violation]) -> "Baseline":
        entries: Counter = Counter()
        for violation in violations:
            entries[(violation.rule, violation.path, violation.fingerprint)] += 1
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        """Write the baseline as stable, diff-friendly JSON."""
        payload = {
            "schema_version": BASELINE_SCHEMA_VERSION,
            "entries": [
                {"rule": rule, "path": file_path, "fingerprint": fingerprint, "count": count}
                for (rule, file_path, fingerprint), count in sorted(self.entries.items())
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def apply(self, result: LintResult) -> LintResult:
        """Partition ``result`` into new vs baselined violations."""
        remaining = Counter(self.entries)
        fresh: list[Violation] = []
        grandfathered: list[Violation] = []
        for violation in result.violations:
            key = (violation.rule, violation.path, violation.fingerprint)
            if remaining[key] > 0:
                remaining[key] -= 1
                grandfathered.append(violation)
            else:
                fresh.append(violation)
        return LintResult(
            violations=fresh,
            baselined=result.baselined + grandfathered,
            files_scanned=result.files_scanned,
        )
