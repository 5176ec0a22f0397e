"""On-disk result cache for experiment runs.

Layout::

    .repro_cache/
      <source-hash>/                 one directory per code version
        fig7--seed=7.pkl             pickled {"result": ..., "record": ...}
        fig7--seed=7--scn=51f3490f674ab1b6.pkl   run under a named scenario

The cache key is (experiment name, seed, source hash[, scenario digest]).
Scenario digests come from
:func:`repro.scenario.scenario_digest`, so runs of the same experiment
under different deployments never collide.  The
source hash digests every ``*.py`` file of the installed ``repro``
package, so any code change — an experiment tweak, a simulator fix —
silently invalidates all previous entries; stale directories from older
versions can be deleted wholesale (``rm -rf .repro_cache``) at any time.

Entries are pickles because experiment results are rich dataclasses
carrying numpy arrays; they are trusted local artifacts written by the
runner itself, not an interchange format (use ``--json`` for that).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import instruments
from repro.runner.instrument import RunRecord

__all__ = ["DEFAULT_CACHE_DIR", "CacheEntry", "ResultCache", "source_hash"]

#: Default cache location; override per call with ``ResultCache(root=...)``,
#: via the CLI's ``--cache-dir``, or with the ``REPRO_CACHE_DIR`` env var.
DEFAULT_CACHE_DIR = Path(".repro_cache")

_ENTRY_SUFFIX = ".pkl"

# source_hash() walks and digests ~180 files; memoize per package path.
_source_hash_memo: dict[str, str] = {}


def source_hash(package_dir: Path | None = None) -> str:
    """A 16-hex-digit digest of the ``repro`` package's source tree.

    Hashes file *contents* (not mtimes), so reinstalling identical code
    keeps the cache warm while any real edit invalidates it.
    """
    if package_dir is None:
        import repro

        package_dir = Path(repro.__file__).resolve().parent
    key = str(package_dir)
    cached = _source_hash_memo.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        digest.update(str(path.relative_to(package_dir)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    result = digest.hexdigest()[:16]
    _source_hash_memo[key] = result
    return result


@dataclass(frozen=True)
class CacheEntry:
    """A deserialized cache hit."""

    result: Any
    record: RunRecord


def default_cache_dir() -> Path:
    """The cache root honouring the ``REPRO_CACHE_DIR`` environment variable."""
    override = os.environ.get("REPRO_CACHE_DIR")
    return Path(override) if override else DEFAULT_CACHE_DIR


class ResultCache:
    """Pickle-backed store of experiment results + their run records."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def _entry_path(self, name: str, seed: int, scenario_digest: str = "") -> Path:
        stem = f"{name}--seed={seed}"
        if scenario_digest:
            stem += f"--scn={scenario_digest}"
        return self.root / source_hash() / (stem + _ENTRY_SUFFIX)

    def load(self, name: str, seed: int, scenario_digest: str = "") -> CacheEntry | None:
        """Return the cached entry, or None on miss or corruption.

        A corrupt entry (interrupted write, version skew) is deleted and
        treated as a miss rather than failing the campaign.
        """
        path = self._entry_path(name, seed, scenario_digest)
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
            return CacheEntry(
                result=payload["result"], record=payload["record"].as_cached()
            )
        except FileNotFoundError:
            return None
        except Exception as exc:
            warnings.warn(
                f"dropping corrupt cache entry {path}: {type(exc).__name__}: {exc}",
                stacklevel=2,
            )
            instruments.current().registry.counter("cache.corrupt_dropped_count").inc()
            path.unlink(missing_ok=True)
            return None

    def store(
        self,
        name: str,
        seed: int,
        result: Any,
        record: RunRecord,
        scenario_digest: str = "",
    ) -> Path:
        """Persist ``result`` + ``record``; atomic against readers."""
        path = self._entry_path(name, seed, scenario_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(
                    {"result": result, "record": record},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            tmp.replace(path)
        finally:
            # An unpicklable result must not leave a stray .tmp.<pid>
            # behind; after the successful rename this is a no-op.
            tmp.unlink(missing_ok=True)
        return path

    def clear(self) -> int:
        """Delete every entry (all code versions); returns entries removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.rglob(f"*{_ENTRY_SUFFIX}"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
