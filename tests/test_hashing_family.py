"""Tests for the Carter-Wegman pairwise-independent hash family."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import family as family_mod
from repro.hashing.family import (
    MERSENNE_PRIME_61,
    HashFamily,
    PairwiseHash,
    hash_many_bulk,
)
from repro.hashing.labels import label_to_int

P = MERSENNE_PRIME_61


class TestPairwiseHash:
    def test_range(self):
        h = PairwiseHash(a=12345, b=678, width=17)
        for key in range(1000):
            assert 0 <= h.hash_int(key) < 17

    def test_deterministic(self):
        h = PairwiseHash(a=99991, b=7, width=64)
        assert h("label") == h("label")

    def test_scalar_matches_formula(self):
        h = PairwiseHash(a=3, b=5, width=10)
        key = 1234567
        expected = ((3 * key + 5) % MERSENNE_PRIME_61) % 10
        assert h.hash_int(key) == expected

    def test_call_converts_labels(self):
        h = PairwiseHash(a=31337, b=42, width=100)
        assert h("x") == h.hash_int(label_to_int("x"))

    def test_width_one_maps_everything_to_zero(self):
        h = PairwiseHash(a=7, b=9, width=1)
        assert all(h.hash_int(k) == 0 for k in range(100))

    @pytest.mark.parametrize("a", [0, MERSENNE_PRIME_61])
    def test_invalid_a_rejected(self, a):
        with pytest.raises(ValueError):
            PairwiseHash(a=a, b=0, width=4)

    def test_invalid_b_rejected(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=MERSENNE_PRIME_61, width=4)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=0, width=0)

    def test_frozen_and_hashable(self):
        h = PairwiseHash(a=5, b=6, width=7)
        assert hash(h) == hash(PairwiseHash(a=5, b=6, width=7))
        with pytest.raises(AttributeError):
            h.a = 9


class TestHashMany:
    """The vectorized path must agree bit-for-bit with the scalar path."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_scalar_random_functions(self, seed):
        family = HashFamily.uniform(1, 101, seed=seed)
        h = family[0]
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 2 ** 63, size=500, dtype=np.int64).astype(np.uint64)
        vectorized = h.hash_many(keys)
        scalar = np.array([h.hash_int(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_matches_scalar_on_extreme_keys(self):
        h = PairwiseHash(a=MERSENNE_PRIME_61 - 1, b=MERSENNE_PRIME_61 - 1,
                         width=97)
        keys = np.array([0, 1, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61,
                         2 ** 64 - 1, 2 ** 63, 123456789], dtype=np.uint64)
        vectorized = h.hash_many(keys)
        scalar = np.array([h.hash_int(int(k)) for k in keys])
        np.testing.assert_array_equal(vectorized, scalar)

    def test_empty_input(self):
        h = PairwiseHash(a=7, b=3, width=11)
        assert len(h.hash_many(np.array([], dtype=np.uint64))) == 0

    def test_string_label_keys(self):
        h = PairwiseHash(a=424242, b=171717, width=53)
        labels = [f"ip-{i}.example" for i in range(300)]
        keys = np.array([label_to_int(s) for s in labels], dtype=np.uint64)
        vectorized = h.hash_many(keys)
        scalar = np.array([h(s) for s in labels])
        np.testing.assert_array_equal(vectorized, scalar)


class TestHashFamily:
    def test_uniform_sizes(self):
        family = HashFamily.uniform(5, 32, seed=1)
        assert len(family) == 5
        assert all(h.width == 32 for h in family)

    def test_mixed_widths(self):
        family = HashFamily([8, 16, 4], seed=2)
        assert [h.width for h in family] == [8, 16, 4]

    def test_seeded_reproducibility(self):
        f1 = HashFamily.uniform(3, 64, seed=9)
        f2 = HashFamily.uniform(3, 64, seed=9)
        assert [h.a for h in f1] == [h.a for h in f2]
        assert [h.b for h in f1] == [h.b for h in f2]

    def test_different_seeds_differ(self):
        f1 = HashFamily.uniform(3, 64, seed=1)
        f2 = HashFamily.uniform(3, 64, seed=2)
        assert [h.a for h in f1] != [h.a for h in f2]

    def test_functions_within_family_differ(self):
        family = HashFamily.uniform(4, 64, seed=5)
        params = {(h.a, h.b) for h in family}
        assert len(params) == 4

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            HashFamily([])

    def test_invalid_d_rejected(self):
        with pytest.raises(ValueError):
            HashFamily.uniform(0, 8)

    def test_indexing(self):
        family = HashFamily.uniform(3, 10, seed=0)
        assert family[0] is list(family)[0]

    def test_distribution_roughly_uniform(self):
        """Buckets of a pairwise hash should be near-uniform over many keys."""
        h = HashFamily.uniform(1, 10, seed=3)[0]
        counts = np.zeros(10)
        for key in range(20000):
            counts[h.hash_int(key)] += 1
        # Each bucket expects 2000; allow generous 15% deviation.
        assert counts.min() > 1700
        assert counts.max() < 2300

    def test_pairwise_collision_rate(self):
        """Collision probability across random key pairs is ~1/width."""
        width = 50
        rng = np.random.default_rng(7)
        collisions = 0
        trials = 400
        for t in range(trials):
            h = HashFamily.uniform(1, width, seed=1000 + t)[0]
            x, y = rng.integers(0, 2 ** 60, size=2)
            if h.hash_int(int(x)) == h.hash_int(int(y)):
                collisions += 1
        rate = collisions / trials
        assert rate < 3.5 / width  # expectation 1/50 = 0.02; cap at 0.07


# -- hash_many_bulk: the one vectorized pass --------------------------------

#: Coefficients and keys at the edges of the limb split and the lazy
#: Mersenne folds.
EDGE_A = [1, 2 ** 31 - 1, 2 ** 31, P - 1]
EDGE_B = [0, P - 1]
EDGE_KEYS = [0, 2 ** 31 - 1, 2 ** 31, 2 ** 61 - 2, P, 2 ** 61, 2 ** 61 + 7,
             2 ** 62, 2 ** 63, 2 ** 64 - 1]

coef_a = st.one_of(st.sampled_from(EDGE_A), st.integers(1, P - 1))
coef_b = st.one_of(st.sampled_from(EDGE_B), st.integers(0, P - 1))
pow2_widths = st.integers(0, 40).map(lambda e: 1 << e)
other_widths = st.one_of(st.sampled_from([3, 97, 1000, 2 ** 31 + 1]),
                         st.integers(1, 2 ** 62))
key_values = st.one_of(st.sampled_from(EDGE_KEYS),
                       st.integers(0, 2 ** 64 - 1))


@st.composite
def ensembles(draw):
    """1 to 8 functions: all power-of-two widths (the mask path) or
    mixed widths (the ``%`` path)."""
    widths = draw(st.sampled_from([pow2_widths, other_widths,
                                   st.one_of(pow2_widths, other_widths)]))
    return draw(st.lists(st.builds(PairwiseHash, a=coef_a, b=coef_b,
                                   width=widths),
                         min_size=1, max_size=8))


def scalar_rows(funcs, keys):
    return np.array([[f.hash_int(int(k)) for k in keys] for f in funcs],
                    dtype=np.int64).reshape(len(funcs), len(keys))


class TestHashManyBulk:
    """Row i of ``hash_many_bulk(funcs, keys)`` is ``funcs[i].hash_int``
    over the keys, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(ensembles(), st.lists(key_values, max_size=60))
    def test_matches_scalar(self, funcs, keys):
        keys = np.array(keys, dtype=np.uint64)
        out = hash_many_bulk(funcs, keys)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, scalar_rows(funcs, keys))

    @settings(max_examples=40, deadline=None)
    @given(coef_a, coef_b, st.one_of(pow2_widths, other_widths),
           st.lists(key_values, max_size=40))
    def test_hash_many_is_the_one_row_case(self, a, b, width, keys):
        h = PairwiseHash(a=a, b=b, width=width)
        keys = np.array(keys, dtype=np.uint64)
        np.testing.assert_array_equal(h.hash_many(keys),
                                      hash_many_bulk((h,), keys)[0])
        np.testing.assert_array_equal(h.hash_many(keys),
                                      scalar_rows([h], keys)[0])

    @pytest.mark.parametrize("d", [1, 4, 8])
    def test_every_edge_key_through_every_edge_coefficient(self, d):
        funcs = [PairwiseHash(a=a, b=b, width=w)
                 for a in EDGE_A for b in EDGE_B for w in (256, 97)][:d]
        keys = np.array(EDGE_KEYS, dtype=np.uint64)
        np.testing.assert_array_equal(hash_many_bulk(funcs, keys),
                                      scalar_rows(funcs, keys))

    def test_empty_keys(self):
        funcs = list(HashFamily([16, 10], seed=1))
        out = hash_many_bulk(funcs, np.array([], dtype=np.uint64))
        assert out.shape == (2, 0) and out.dtype == np.int64

    def test_no_functions_rejected(self):
        with pytest.raises(ValueError):
            hash_many_bulk([], np.arange(3, dtype=np.uint64))

    @pytest.mark.parametrize("widths", [[256] * 8, [97, 256, 1000] * 2])
    def test_above_the_scratch_cap(self, widths):
        # (2 + 2d) * n words needed: past the cap, so the call runs on
        # per-call temporaries -- same chain, same buckets.
        funcs = list(HashFamily(widths, seed=3))
        n = family_mod._SCRATCH_MAX_WORDS // (2 + 2 * len(funcs)) + 1000
        keys = np.random.default_rng(0).integers(
            0, 2 ** 64 - 1, size=n, dtype=np.uint64, endpoint=True)
        keys[:len(EDGE_KEYS)] = EDGE_KEYS
        big = hash_many_bulk(funcs, keys)
        pieces = [hash_many_bulk(funcs, keys[i:i + 4096])
                  for i in range(0, n, 4096)]
        np.testing.assert_array_equal(big, np.concatenate(pieces, axis=1))
        probe = np.r_[0:len(EDGE_KEYS), n - 50:n]
        np.testing.assert_array_equal(big[:, probe],
                                      scalar_rows(funcs, keys[probe]))


class TestHashScratch:
    """The per-thread scratch buffer is never visible in results."""

    def _cached(self):
        return getattr(family_mod._scratch, "buf", None)

    def test_results_survive_later_calls_and_never_alias(self):
        funcs = list(HashFamily.uniform(4, 256, seed=7))
        rng = np.random.default_rng(1)
        first_keys = rng.integers(0, 2 ** 63, size=3000).astype(np.uint64)
        first = hash_many_bulk(funcs, first_keys)
        kept = first.copy()
        for n in (10, 5000, 3000, 1):
            later = hash_many_bulk(
                funcs, rng.integers(0, 2 ** 63, size=n).astype(np.uint64))
            assert not np.shares_memory(later, self._cached())
        assert not np.shares_memory(first, self._cached())
        np.testing.assert_array_equal(first, kept)
        np.testing.assert_array_equal(first,
                                      hash_many_bulk(funcs, first_keys))

    def test_call_above_the_cap_leaves_the_cache_alone(self):
        funcs = list(HashFamily.uniform(2, 64, seed=8))
        keys = np.arange(1000, dtype=np.uint64)
        small = hash_many_bulk(funcs, keys)
        cached = self._cached()
        n = family_mod._SCRATCH_MAX_WORDS // 6 + 1
        big_keys = np.arange(n, dtype=np.uint64)
        big = hash_many_bulk(funcs, big_keys)
        assert self._cached() is cached
        assert cached.size <= family_mod._SCRATCH_MAX_WORDS
        np.testing.assert_array_equal(big[:, :1000], small)
        probe = big_keys[-100:]
        np.testing.assert_array_equal(big[:, -100:],
                                      scalar_rows(funcs, probe))

    def test_threads_hashing_through_one_family_do_not_race(self):
        funcs = list(HashFamily([256, 97, 1024, 4096], seed=9))
        rng = np.random.default_rng(2)
        work = [[rng.integers(0, 2 ** 64 - 1, size=int(rng.integers(1, 4000)),
                              dtype=np.uint64, endpoint=True)
                 for _ in range(50)] for _ in range(4)]
        expected = [[hash_many_bulk(funcs, keys) for keys in column]
                    for column in work]
        barrier = threading.Barrier(len(work))
        mismatches, finished = [], []

        def run(t):
            barrier.wait()
            for keys, want in zip(work[t], expected[t]):
                got = hash_many_bulk(funcs, keys)
                if not np.array_equal(got, want):
                    mismatches.append((t, len(keys)))
            finished.append(t)

        threads = [threading.Thread(target=run, args=(t,))
                   for t in range(len(work))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(len(work)))
        assert mismatches == []
