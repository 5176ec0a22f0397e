"""The mergeable quantile sketch behind the registry's ``quantile`` kind.

The paper's results are almost all distributions — RSRP histograms
(Tab. 2), hand-off latency CDFs (Fig. 6), energy-per-bit curves
(Fig. 22) — so the registry needs a summary that can be built one sample
at a time *and* combined across campaign workers without bias.
:class:`ReservoirQuantile` is a bottom-k priority reservoir: every
observation gets a deterministic hash priority and the k smallest
priorities are retained, so a merge is "union, keep k smallest" —
order-independent, duplicate-safe, and identical whether the stream was
sketched by one worker or twelve.  :func:`interpolate` reads a
percentile off the retained sample, here and in
:func:`repro.metrics.core.summarize_entry`.

Determinism note: reservoir priorities hash ``(tag, index)``, never the
value or wall clock, so a fixed experiment + seed always retains the same
subsample, and two sketches with different tags never collide on
priorities in practice (64-bit keys).
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Sequence

__all__ = [
    "DEFAULT_RESERVOIR_K",
    "ReservoirQuantile",
    "interpolate",
]

#: Default retained-sample budget of a :class:`ReservoirQuantile`.
DEFAULT_RESERVOIR_K = 512


def interpolate(values: Sequence[float], pct: float) -> float:
    """Value at percentile ``pct`` (0..100) of the sorted ``values``.

    Linear interpolation between the two nearest ranks, matching
    :meth:`repro.core.stats.Cdf.percentile`.
    """
    if not values:
        raise ValueError("empty sample")
    if len(values) == 1:
        return values[0]
    position = (pct / 100.0) * (len(values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(values) - 1)
    fraction = position - lower
    return values[lower] * (1.0 - fraction) + values[upper] * fraction


def _priority(tag: str, index: int) -> str:
    """Deterministic 64-bit hash priority for observation ``index`` of ``tag``."""
    digest = hashlib.blake2b(f"{tag}|{index}".encode(), digest_size=8)
    return digest.hexdigest()


class ReservoirQuantile:
    """Bottom-k priority reservoir: a mergeable streaming quantile sketch.

    Every observation is assigned a hash priority from ``(tag, index)``;
    the sketch retains the ``k`` observations with the smallest priorities.
    Because priorities are a pure function of the stream identity, the
    retained set — and therefore every quantile answer — is identical
    whether the stream was observed by one process or sketched in parts
    and merged.  Exact ``count``/``sum``/``min``/``max`` ride along so
    means stay exact even when the reservoir subsamples.
    """

    __slots__ = ("k", "tag", "count", "total", "minimum", "maximum", "_heap", "_sorted")

    def __init__(self, k: int = DEFAULT_RESERVOIR_K, tag: str = "") -> None:
        if k <= 0:
            raise ValueError(f"reservoir size must be positive, got {k}")
        self.k = k
        self.tag = tag
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        # Max-heap on priority (negated via tuple trick: store (neg_key, value)
        # is not possible for hex strings, so keep a max-heap by inverting the
        # comparison with a wrapper tuple of the complemented hex string).
        self._heap: list[tuple[str, float]] = []  # (inverted_key, value)
        self._sorted: list[float] | None = None

    @staticmethod
    def _invert(key: str) -> str:
        """Bitwise-complement a hex key so heapq's min-heap pops the max."""
        return format((1 << 64) - 1 - int(key, 16), "016x")

    def observe(self, value: float) -> None:
        """Fold one sample into the sketch."""
        value = float(value)
        key = _priority(self.tag, self.count)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._sorted = None
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (self._invert(key), value))
        else:
            # Largest retained priority sits at the heap root (inverted order).
            largest_inverted = self._heap[0][0]
            if self._invert(key) > largest_inverted:
                heapq.heapreplace(self._heap, (self._invert(key), value))

    def items(self) -> list[list[object]]:
        """Retained ``[priority_hex, value]`` pairs, sorted by priority."""
        pairs = [(self._invert(inv), value) for inv, value in self._heap]
        return [[key, value] for key, value in sorted(pairs)]

    def values(self) -> list[float]:
        """Retained sample values, sorted ascending (cached)."""
        if self._sorted is None:
            self._sorted = sorted(value for _, value in self._heap)
        return self._sorted

    @property
    def mean(self) -> float:
        """Exact stream mean (not subsampled)."""
        if self.count == 0:
            raise ValueError("empty sample")
        return self.total / self.count

    def quantile(self, pct: float) -> float:
        """Value at percentile ``pct`` (0..100) over the retained sample.

        Linear interpolation, matching :meth:`repro.core.stats.Cdf.percentile`;
        exact while ``count <= k``, an unbiased subsample estimate beyond.
        """
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        return interpolate(self.values(), pct)
