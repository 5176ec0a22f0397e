"""Campaign profiling: cProfile collection for ``repro run --observe profile``.

``repro run --observe profile`` installs a :class:`ProfileCollector` as the
``profiler`` of :func:`repro.instruments.current`; while one is active,
:func:`repro.runner.instrument.instrumented_call` wraps each experiment
in its own ``cProfile.Profile``, attaches the run's top-N hot functions
to the :class:`~repro.runner.instrument.RunRecord` (``profile_top``),
and feeds the raw profile back here so the CLI can dump one combined
``pstats`` file for the whole campaign (``DIR/profile.pstats``).

Profiling forces a serial, cache-bypassing campaign (like tracing):
cProfile state is per-process and a cache hit would profile nothing.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any

from repro.core.results import ResultTable

__all__ = [
    "DEFAULT_TOP_N",
    "ProfileCollector",
    "profiled_call",
    "top_functions",
]

DEFAULT_TOP_N = 15


def _format_location(func: tuple[str, int, str]) -> str:
    filename, line, name = func
    if filename == "~":  # builtins have no file
        return name
    short = "/".join(filename.split("/")[-2:])
    return f"{short}:{line}({name})"


def top_functions(stats: pstats.Stats, n: int = DEFAULT_TOP_N) -> list[dict[str, Any]]:
    """The ``n`` hottest functions by cumulative time, as plain dicts.

    Rows are JSON-able and picklable so they can ride inside a
    :class:`~repro.runner.instrument.RunRecord`.
    """
    rows: list[dict[str, Any]] = []
    for func, (cc, nc, tottime, cumtime, _callers) in stats.stats.items():
        rows.append(
            {
                "function": _format_location(func),
                "ncalls": int(nc),
                "tottime_s": float(tottime),
                "cumtime_s": float(cumtime),
            }
        )
    rows.sort(key=lambda row: (-row["cumtime_s"], row["function"]))
    return rows[:n]


class ProfileCollector:
    """Accumulates per-run profiles into one campaign-level ``pstats`` view."""

    def __init__(self, top_n: int = DEFAULT_TOP_N) -> None:
        self.top_n = top_n
        self.runs = 0
        self._stats: pstats.Stats | None = None

    def record(self, experiment: str, profile: cProfile.Profile) -> list[dict[str, Any]]:
        """Fold one run's profile in; returns its own top-N rows."""
        run_stats = pstats.Stats(profile)
        if self._stats is None:
            self._stats = run_stats
        else:
            self._stats.add(profile)
        self.runs += 1
        return top_functions(run_stats, self.top_n)

    @property
    def empty(self) -> bool:
        return self._stats is None

    def dump(self, path: str) -> None:
        """Write the combined profile as a binary ``pstats`` dump.

        Load it later with ``pstats.Stats(path)`` or
        ``python -m pstats PATH``.

        Raises:
            RuntimeError: if no runs were profiled.
        """
        if self._stats is None:
            raise RuntimeError("no profiled runs to dump")
        self._stats.dump_stats(path)

    def top_table(self) -> ResultTable:
        """The combined campaign top-N as a renderable table."""
        table = ResultTable(
            f"Profile — top {self.top_n} by cumulative time ({self.runs} run(s))",
            ["function", "calls", "tottime (s)", "cumtime (s)"],
        )
        if self._stats is None:
            table.add_row(["(no profiled runs)", "", "", ""])
            return table
        for row in top_functions(self._stats, self.top_n):
            table.add_row(
                [
                    row["function"],
                    row["ncalls"],
                    f"{row['tottime_s']:.3f}",
                    f"{row['cumtime_s']:.3f}",
                ]
            )
        return table


def profiled_call(experiment: str, collector: ProfileCollector, fn):
    """Run ``fn`` under its own profiler; returns ``(result, top_rows)``."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, collector.record(experiment, profile)
