"""Deterministic random-number management.

Every stochastic component in the simulator draws from a ``numpy`` generator
seeded from a single campaign seed, so that experiments are exactly
reproducible while independent subsystems (propagation shadowing, traffic
arrivals, mobility jitter, ...) stay statistically independent of each other.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "RngFactory",
    "default_rng",
    "derive",
    "streams_drawn",
]

# Per-process count of streams handed out by RngFactory.stream(), used by
# repro.runner.instrument to report how much randomness an experiment drew.
# The owning PID is tracked because fork-start ProcessPoolExecutor workers
# inherit the parent's module state: without the guard a worker would start
# from the coordinator's count and report inflated absolute totals.
_streams_drawn = 0
_counter_pid = os.getpid()


def _reset_if_forked() -> None:
    global _streams_drawn, _counter_pid
    pid = os.getpid()
    if pid != _counter_pid:
        _streams_drawn = 0
        _counter_pid = pid


def streams_drawn() -> int:
    """Total RngFactory streams drawn by this process so far.

    The count is strictly per-process: a pool worker forked mid-campaign
    starts again from zero rather than inheriting the coordinator's tally.
    """
    _reset_if_forked()
    return _streams_drawn


class RngFactory:
    """Spawns named, independent random generators from one master seed.

    Two factories built with the same seed hand out identical streams for
    identical names, regardless of the order the streams are requested in.

    Example:
        >>> factory = RngFactory(seed=42)
        >>> shadowing = factory.stream("shadowing")
        >>> traffic = factory.stream("traffic")
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        """The master seed this factory was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return a generator keyed by ``name``.

        Repeated calls with the same name return fresh generators positioned
        at the start of the same underlying stream.
        """
        global _streams_drawn
        _reset_if_forked()
        _streams_drawn += 1
        seq = np.random.SeedSequence([self._seed, _stable_hash(name)])
        return np.random.default_rng(seq)

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, e.g. one per experiment repetition."""
        return RngFactory(seed=_mix(self._seed, _stable_hash(name)))


def default_rng(seed: int = 0) -> np.random.Generator:
    """Shorthand for a standalone seeded generator.

    This is the *sanctioned* way to turn a campaign seed into a root
    generator: stochastic code must accept an ``np.random.Generator``
    parameter (or an :class:`RngFactory` stream) rather than calling
    ``np.random.default_rng`` itself — the REP001 lint rule enforces it.
    """
    return np.random.default_rng(seed)


def derive(rng: np.random.Generator) -> np.random.Generator:
    """A child generator deterministically derived from ``rng``'s stream.

    Consumes one draw from ``rng``; use it to hand independent
    sub-streams to components built from a single threaded generator
    without the components sharing (and racing on) the parent's state.
    """
    return np.random.default_rng(int(rng.integers(2**31)))


def _stable_hash(name: str) -> int:
    """A process-independent 63-bit hash of ``name``.

    Python's builtin ``hash`` is salted per process, which would break
    reproducibility across runs.
    """
    acc = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return acc


def _mix(a: int, b: int) -> int:
    """Combine two integers into one well-spread 63-bit seed."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    return x & 0x7FFFFFFFFFFFFFFF
