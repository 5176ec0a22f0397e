"""Deterministic random-number management.

Every stochastic component in the simulator draws from a ``numpy`` generator
seeded from a single campaign seed, so that experiments are exactly
reproducible while independent subsystems (propagation shadowing, traffic
arrivals, mobility jitter, ...) stay statistically independent of each other.

A keyed stream is ``default_rng(SeedSequence([seed, fnv1a(name)]))``.  Most
of its cost is numpy building the ``SeedSequence``, so
:meth:`RngFactory.standard_normals` draws the first normal of many keyed
streams at once: it computes the FNV-1a hashes and the ``SeedSequence``
pool hash (about thirty lines of uint32 arithmetic, documented and kept
stable by numpy) for every name in numpy integer arithmetic, then hands
each name's four state words to numpy's own ``PCG64`` seeding and normal
sampler.  Every value equals ``stream(name).standard_normal()`` bit for bit.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence

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

    def standard_normals(self, names: Sequence[str]) -> np.ndarray:
        """``float(self.stream(name).standard_normal())`` for every name.

        One batch instead of one ``stream()`` per name: the hashes and the
        ``SeedSequence`` state words of all names are computed together
        (:func:`_state_words`), and numpy seeds each name's ``PCG64`` from
        them and draws its normal, so each value is bitwise the per-name
        stream's.  The streams-drawn counter advances by ``len(names)``,
        duplicates included, exactly as that many ``stream()`` calls would.

        Raises:
            ValueError: if the factory's seed is negative, as ``stream()``
                does.
        """
        global _streams_drawn
        states = _state_words(self._seed, _stable_hashes(names))
        _reset_if_forked()
        _streams_drawn += len(names)
        from numpy.random import PCG64, Generator

        state_words = _state_words_seed_sequence()
        return np.fromiter(
            (Generator(PCG64(state_words(words))).standard_normal() for words in states),
            dtype=np.float64,
            count=len(names),
        )

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


#: FNV-1a over UTF-8 bytes, kept to 63 bits.
_FNV_OFFSET = 1469598103934665603
_FNV_PRIME = 1099511628211
_MASK63 = 0x7FFFFFFFFFFFFFFF


def _stable_hash(name: str) -> int:
    """A process-independent 63-bit hash of ``name``.

    Python's builtin ``hash`` is salted per process, which would break
    reproducibility across runs.
    """
    acc = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        acc ^= byte
        acc = (acc * _FNV_PRIME) & _MASK63
    return acc


def _stable_hashes(names: Sequence[str]) -> np.ndarray:
    """:func:`_stable_hash` of every name as a uint64 array.

    The names' bytes sit in a zero-padded (byte position, name) matrix
    walked one position at a time; a name that has ended keeps its hash.
    The uint64 products wrap modulo 2**64, and reducing modulo 2**63 once
    at the end gives what masking after every byte gives: XOR with a byte
    never touches bit 63, and a carry out of bit 63 only ever adds a
    multiple of 2**63.
    """
    encoded = [name.encode("utf-8") for name in names]
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    width = int(lengths.max()) if len(encoded) else 0
    present = lengths > np.arange(width)[:, np.newaxis]
    by_position = np.zeros((width, len(encoded)), dtype=np.uint64)
    by_position.T[present.T] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    acc = np.full(len(encoded), _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    for position in range(width):
        acc = np.where(present[position], (acc ^ by_position[position]) * prime, acc)
    return acc & np.uint64(_MASK63)


#: numpy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF


def _uint32_words(value: int) -> list[int]:
    """numpy's ``_int_to_uint32_array``: little-endian 32-bit words, ``[0]`` for 0."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix_constants(
    start: int, multiplier: int, calls: int
) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``calls`` successive ``hashmix`` steps, as columns.

    Each step XORs in the running constant, advances it
    (``hash_const *= MULT``) and multiplies by the advanced one, so the
    constants depend on the step's index alone, never on the data.
    """
    consts = [start]
    for _ in range(calls):
        consts.append((consts[-1] * multiplier) & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, np.newaxis]
    return column[:-1], column[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """numpy's ``hashmix``, one step per row of ``xor``/``mul``."""
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _pool_mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's ``mix`` of two pool words."""
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> _XSHIFT)


def _pool_state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` per lane, (lanes, 4).

    ``entropy`` is (words, lanes) uint32: every lane has the same number
    of words, so all lanes share one sequence of hashmix constants.  The
    steps are numpy's ``mix_entropy`` then ``generate_state``, in order;
    where numpy updates several pool words from one unchanged source
    word, those updates run as one (pool words, lanes) operation.
    """
    n_words, lanes = entropy.shape
    extra = max(n_words - _POOL_SIZE, 0)
    xor, mul = _hashmix_constants(
        _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * extra
    )
    pool = np.zeros((_POOL_SIZE, lanes), dtype=np.uint32)
    pool[: min(n_words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, xor[:_POOL_SIZE], mul[:_POOL_SIZE])
    step = _POOL_SIZE
    # Mix all bits together so late bits can affect earlier bits.
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        mixed = _hashmix(pool[src], xor[step : step + 3], mul[step : step + 3])
        pool[dst] = _pool_mix(pool[dst], mixed)
        step += 3
    # Entropy beyond the pool size mixes into every pool word.
    for word in entropy[_POOL_SIZE:]:
        mixed = _hashmix(word, xor[step : step + _POOL_SIZE], mul[step : step + _POOL_SIZE])
        pool = _pool_mix(pool, mixed)
        step += _POOL_SIZE
    # generate_state(4, np.uint64): eight uint32 words cycling the pool,
    # paired little-endian.
    xor, mul = _hashmix_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    out = _hashmix(np.concatenate([pool, pool]), xor, mul).astype(np.uint64)
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


def _state_words(seed: int, hashes: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, h]).generate_state(4, np.uint64)`` per hash, (N, 4).

    The entropy is the seed's words plus one hash word (``h < 2**32``) or
    two, so the hashes fall in two groups of equal word count, each hashed
    as one set of lanes.  The first lane of each group is also seeded by
    numpy's ``SeedSequence``; a mismatch raises instead of drawing from
    wrong streams.

    Raises:
        ValueError: if ``seed`` is negative.
        RuntimeError: if the vectorized words differ from numpy's.
    """
    seed_words = _uint32_words(seed)
    states = np.empty((len(hashes), 4), dtype=np.uint64)
    wide = hashes > _MASK32
    for two_words in (False, True):
        lanes = np.flatnonzero(wide == two_words)
        if not len(lanes):
            continue
        group = hashes[lanes]
        hash_words = [group & _MASK32, group >> np.uint64(32)] if two_words else [group]
        entropy = np.empty((len(seed_words) + len(hash_words), len(lanes)), dtype=np.uint32)
        entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, np.newaxis]
        entropy[len(seed_words) :] = hash_words
        states[lanes] = _pool_state_words(entropy)
        first = int(group[0])
        expected = np.random.SeedSequence([seed, first]).generate_state(4, np.uint64)
        if not np.array_equal(states[lanes[0]], expected):
            raise RuntimeError(
                f"vectorized SeedSequence state for seed {seed}, hash {first} "
                "differs from numpy's"
            )
    return states


@functools.cache
def _state_words_seed_sequence() -> type:
    """A numpy ``ISeedSequence`` type holding precomputed ``PCG64`` state words.

    Built on first use: numpy loads ``numpy.random`` lazily (about 15 ms),
    and importing this module should not load it.  A subclass rather than
    a registered virtual one, because ``PCG64`` checks ``isinstance`` per
    name and a subclass passes that check fastest.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray) -> None:
            self._words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for exactly this when it seeds itself, and reads
            # the array's buffer directly: a row of a C-ordered (N, 4)
            # array is contiguous.
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only generate_state(4, np.uint64) is precomputed")
            return self._words

    return StateWords


def _mix(a: int, b: int) -> int:
    """Combine two integers into one well-spread 63-bit seed."""
    x = (a * 0x9E3779B97F4A7C15 + b) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    return x & 0x7FFFFFFFFFFFFFFF
