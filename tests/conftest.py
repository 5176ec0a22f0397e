"""Shared test configuration.

Every test runs from its own temporary directory, so the CLI's relative
defaults (``repro run --out .repro_audit``, the ``.repro_cache/`` result
cache) land there and the suite never writes into the working tree.  The
cache is pinned by ``REPRO_CACHE_DIR`` too, which outranks any cache
location set in the caller's environment.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
