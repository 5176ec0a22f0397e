"""Unit tests for repro.core.rng determinism guarantees.

Also holds the batched keyed draw, ``RngFactory.standard_normals``, to
the per-name ``stream(name).standard_normal()`` bit for bit, and its
vectorized FNV-1a and ``SeedSequence`` pool hash to the scalar hash and
to numpy's ``SeedSequence``.
"""

import numpy as np
import pytest

from repro.core import rng
from repro.core.rng import RngFactory, default_rng, streams_drawn


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(42).stream("shadowing")
        b = RngFactory(42).stream("shadowing")
        assert a.random(5).tolist() == b.random(5).tolist()

    def test_different_names_differ(self):
        f = RngFactory(42)
        a = f.stream("shadowing").random(5)
        b = f.stream("traffic").random(5)
        assert a.tolist() != b.tolist()

    def test_different_seeds_differ(self):
        a = RngFactory(1).stream("x").random(5)
        b = RngFactory(2).stream("x").random(5)
        assert a.tolist() != b.tolist()

    def test_order_independence(self):
        f1 = RngFactory(7)
        first_then_second = (f1.stream("a").random(), f1.stream("b").random())
        f2 = RngFactory(7)
        second_then_first = (f2.stream("b").random(), f2.stream("a").random())
        assert first_then_second[0] == second_then_first[1]
        assert first_then_second[1] == second_then_first[0]

    def test_repeated_stream_restarts(self):
        f = RngFactory(3)
        assert f.stream("x").random() == f.stream("x").random()

    def test_child_factories_are_independent(self):
        f = RngFactory(5)
        c1 = f.child("rep1").stream("s").random(3)
        c2 = f.child("rep2").stream("s").random(3)
        assert c1.tolist() != c2.tolist()

    def test_child_is_deterministic(self):
        a = RngFactory(5).child("rep1").stream("s").random(3)
        b = RngFactory(5).child("rep1").stream("s").random(3)
        assert a.tolist() == b.tolist()

    def test_seed_property(self):
        assert RngFactory(11).seed == 11


def test_default_rng_deterministic():
    assert default_rng(9).random() == default_rng(9).random()


#: Seeds of one and two 32-bit words, plus three and four words, which
#: push the entropy past numpy's four-word pool.
BATCH_SEEDS = (0, 7, 2**32 + 5, 2**63 - 1, 2**64 + 3, 2**96 + 1)

#: Shadow-style keys, non-ASCII, empty, long and duplicate names.
BATCH_NAMES = [
    f"shadow:{tx}:-35:{gx}:{gy}:3500"
    for tx in (0, 481)
    for gx in range(-3, 9)
    for gy in (0, 7, -12)
] + ["", "é", "漢字-shadow", "📡:1:2", "x" * 300, "shadow", "dup", "dup", "", "é"]


def _per_name(factory, names):
    return np.array([float(factory.stream(name).standard_normal()) for name in names])


class TestBatchedStandardNormals:
    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_batch_equals_per_name_streams(self, seed):
        factory = RngFactory(seed)
        batch = factory.standard_normals(BATCH_NAMES)
        assert batch.dtype == np.float64
        assert batch.tobytes() == _per_name(factory, BATCH_NAMES).tobytes()

    def test_empty_batch(self):
        before = streams_drawn()
        out = RngFactory(7).standard_normals([])
        assert out.dtype == np.float64 and out.shape == (0,)
        assert streams_drawn() == before

    def test_counter_advances_by_the_batch_size(self):
        before = streams_drawn()
        RngFactory(7).standard_normals(BATCH_NAMES)
        assert streams_drawn() - before == len(BATCH_NAMES)

    def test_negative_seed_raises_like_stream(self):
        with pytest.raises(ValueError):
            RngFactory(-1).stream("a")
        with pytest.raises(ValueError):
            RngFactory(-1).standard_normals(["a"])

    def test_fnv_hashes_match_the_scalar_hash(self):
        hashes = rng._stable_hashes(BATCH_NAMES)
        assert hashes.dtype == np.uint64
        assert hashes.tolist() == [rng._stable_hash(name) for name in BATCH_NAMES]

    def test_a_corrupted_vectorized_hash_raises(self, monkeypatch):
        monkeypatch.setattr(rng, "_MIX_MULT_L", np.uint32(0x12345678))
        with pytest.raises(RuntimeError, match="differs from numpy"):
            RngFactory(7).standard_normals(["shadow:0:0:1:2:3500"])


class TestSeedSequencePoolHash:
    """The vectorized pool hash alone, against numpy's ``SeedSequence``."""

    #: Hashes of one word (below 2**32; no realistic name hashes there)
    #: and of two words, at both ends of each range.
    HASHES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 1]

    @pytest.mark.parametrize("seed", BATCH_SEEDS)
    def test_state_words_match_seed_sequence(self, seed):
        draws = np.random.default_rng(seed % 2**32)
        hashes = np.array(
            self.HASHES
            + draws.integers(0, 2**32, 20, dtype=np.uint64).tolist()
            + draws.integers(0, 2**63, 20, dtype=np.uint64).tolist(),
            dtype=np.uint64,
        )
        states = rng._state_words(seed, hashes)
        assert states.shape == (len(hashes), 4) and states.dtype == np.uint64
        for h, words in zip(hashes.tolist(), states):
            expected = np.random.SeedSequence([seed, h]).generate_state(4, np.uint64)
            assert words.tobytes() == expected.tobytes(), h

    @pytest.mark.parametrize("n_words", [1, 2, 3, 4, 5, 6, 9])
    def test_pool_of_any_width(self, n_words):
        entropy = np.random.default_rng(n_words).integers(
            0, 2**32, (n_words, 16), dtype=np.uint32
        )
        states = rng._pool_state_words(entropy)
        for lane in range(entropy.shape[1]):
            expected = np.random.SeedSequence(entropy[:, lane].tolist()).generate_state(
                4, np.uint64
            )
            assert states[lane].tobytes() == expected.tobytes()
