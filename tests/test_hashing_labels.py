"""Tests for the stable label-to-integer mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.labels import (
    LABEL_CACHE_LIMIT, VECTORIZE_MIN_LABELS, clear_label_cache, fnv1a_64,
    label_cache_info, label_cache_limit, label_key, label_keys, label_to_int,
    set_label_cache_limit)


class TestFnv1a:
    def test_empty_input_matches_offset_basis(self):
        assert fnv1a_64(b"") == 14695981039346656037

    def test_known_vector(self):
        # FNV-1a 64-bit of "a" is a published test vector.
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_deterministic(self):
        assert fnv1a_64(b"payload") == fnv1a_64(b"payload")

    def test_different_inputs_differ(self):
        assert fnv1a_64(b"abc") != fnv1a_64(b"abd")

    def test_result_fits_64_bits(self):
        for data in (b"", b"x", b"long input " * 100):
            assert 0 <= fnv1a_64(data) < 2 ** 64

    def test_order_sensitive(self):
        assert fnv1a_64(b"ab") != fnv1a_64(b"ba")


class TestLabelToInt:
    def test_int_passthrough(self):
        assert label_to_int(12345) == 12345

    def test_zero(self):
        assert label_to_int(0) == 0

    def test_negative_int_wraps_to_unsigned(self):
        assert label_to_int(-1) == 2 ** 64 - 1

    def test_large_int_masked(self):
        assert label_to_int(2 ** 64 + 7) == 7

    def test_string_stable(self):
        assert label_to_int("192.168.0.1") == label_to_int("192.168.0.1")

    def test_string_uses_fnv(self):
        assert label_to_int("abc") == fnv1a_64(b"abc")

    def test_bytes_supported(self):
        assert label_to_int(b"abc") == fnv1a_64(b"abc")

    def test_str_and_bytes_agree_on_utf8(self):
        assert label_to_int("nöde") == label_to_int("nöde".encode("utf-8"))

    def test_bool_rejected(self):
        with pytest.raises(TypeError, match="bool"):
            label_to_int(True)

    def test_float_rejected(self):
        with pytest.raises(TypeError, match="float"):
            label_to_int(1.5)

    def test_none_rejected(self):
        with pytest.raises(TypeError):
            label_to_int(None)

    def test_distinct_strings_rarely_collide(self):
        keys = {label_to_int(f"node_{i}") for i in range(10000)}
        assert len(keys) == 10000


class TestLabelKeyCache:
    """The interning cache: same keys as label_to_int, bounded, observable."""

    def setup_method(self):
        clear_label_cache()

    def test_matches_label_to_int(self):
        for label in ("host-7", b"raw", "192.168.0.1", 42, -1, 2 ** 64 + 7):
            assert label_key(label) == label_to_int(label)

    def test_cache_hit_counted(self):
        label_key("repeat-me")
        before = label_cache_info()
        label_key("repeat-me")
        after = label_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_int_labels_bypass_cache(self):
        before = label_cache_info()["size"]
        label_key(123456)
        assert label_cache_info()["size"] == before

    def test_clear_resets_size(self):
        label_key("x")
        label_key("y")
        assert label_cache_info()["size"] >= 2
        clear_label_cache()
        assert label_cache_info()["size"] == 0

    def test_limit_bounds_cache(self):
        assert label_cache_info()["limit"] == LABEL_CACHE_LIMIT
        assert LABEL_CACHE_LIMIT >= 1024

    def test_bulk_matches_scalar(self):
        labels = ["a", b"b", 3, "a", 2 ** 65, "dup", "dup"]
        keys = label_keys(labels)
        assert keys.dtype == np.uint64
        assert [int(k) for k in keys] == [label_key(x) for x in labels]

    def test_bulk_counts_hits(self):
        clear_label_cache()
        label_keys(["alpha", "alpha", "beta"])
        info = label_cache_info()
        assert info["misses"] >= 2
        assert info["hits"] >= 1

    def test_bulk_rejects_bad_types(self):
        with pytest.raises(TypeError):
            label_keys(["fine", None])

    def test_bulk_empty(self):
        assert len(label_keys([])) == 0


class TestBoundedCache:
    """The LRU-style cap: a long-running server cannot leak label memory."""

    def setup_method(self):
        clear_label_cache()
        self._default = label_cache_limit()

    def teardown_method(self):
        set_label_cache_limit(self._default)
        clear_label_cache()

    def test_size_never_exceeds_limit(self):
        set_label_cache_limit(64)
        for i in range(1000):
            label_key(f"one-shot-{i}")
            assert label_cache_info()["size"] <= 64

    def test_evictions_counted(self):
        set_label_cache_limit(32)
        for i in range(100):
            label_key(f"n{i}")
        info = label_cache_info()
        assert info["evictions"] > 0
        assert info["size"] + info["evictions"] == info["misses"]

    def test_oldest_evicted_first(self):
        set_label_cache_limit(8)
        for i in range(8):
            label_key(f"old-{i}")
        label_key("fresh")  # triggers one eviction sweep of the oldest
        hits_before = label_cache_info()["hits"]
        label_key("fresh")
        assert label_cache_info()["hits"] == hits_before + 1

    def test_evicted_label_rehashes_to_same_key(self):
        set_label_cache_limit(4)
        expected = label_key("victim")
        for i in range(16):
            label_key(f"filler-{i}")
        assert label_key("victim") == expected
        assert label_key("victim") == label_to_int("victim")

    def test_bulk_path_respects_limit(self):
        set_label_cache_limit(16)
        keys = label_keys([f"bulk-{i}" for i in range(500)])
        assert len(keys) == 500
        info = label_cache_info()
        assert info["size"] <= 16
        assert info["evictions"] > 0

    def test_shrinking_limit_evicts_immediately(self):
        set_label_cache_limit(128)
        for i in range(100):
            label_key(f"s{i}")
        assert label_cache_info()["size"] == 100
        set_label_cache_limit(10)
        info = label_cache_info()
        assert info["size"] <= 10
        assert info["limit"] == 10
        assert info["evictions"] >= 90

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError, match="maxsize"):
            set_label_cache_limit(0)

    def test_clear_resets_evictions(self):
        set_label_cache_limit(4)
        for i in range(20):
            label_key(f"c{i}")
        assert label_cache_info()["evictions"] > 0
        clear_label_cache()
        assert label_cache_info()["evictions"] == 0


#: Column sizes on both sides of the vectorized-pass threshold.
SIZES = [1, 7, VECTORIZE_MIN_LABELS - 1, VECTORIZE_MIN_LABELS,
         VECTORIZE_MIN_LABELS + 37, 4 * VECTORIZE_MIN_LABELS]

_NUL_EDGES = st.sampled_from(["", "\x00", "a\x00", "\x00b", "a\x00b",
                              "\x00\x00", "nöde\x00"])
_LONG_TEXT = st.builds(lambda unit, k: unit * k,
                       st.text(min_size=1, max_size=4),
                       st.integers(200, 3000))
_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789."), _NUL_EDGES,
                  _LONG_TEXT)
_BINARY = st.one_of(st.binary(), st.sampled_from([b"", b"\x00", b"a\x00"]),
                    st.builds(lambda unit, k: unit * k,
                              st.binary(min_size=1, max_size=4),
                              st.integers(200, 3000)))


@st.composite
def columns(draw, labels):
    """A column of one of ``SIZES`` labels drawn, with repeats, from a pool."""
    pool = draw(st.lists(labels, min_size=1, max_size=24))
    n = draw(st.sampled_from(SIZES))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    picks = np.random.default_rng(seed).integers(0, len(pool), n)
    return pool, picks


def _check_column(pool, picks):
    column = [pool[i] for i in picks.tolist()]
    # The scalar reference per distinct label; the column repeats them.
    reference = [label_to_int(label) for label in pool]
    keys = label_keys(column)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [reference[i] for i in picks.tolist()]


class TestVectorizedColumns:
    """label_keys == [label_to_int(x) ...] on both sides of the threshold."""

    @settings(max_examples=60, deadline=None)
    @given(columns(_TEXT))
    def test_text_columns_match_scalar(self, drawn):
        _check_column(*drawn)

    @settings(max_examples=40, deadline=None)
    @given(columns(_BINARY))
    def test_bytes_columns_match_scalar(self, drawn):
        _check_column(*drawn)

    def test_long_tail_label_continues_its_hash(self):
        # Far longer than the rest: finishes in the scalar loop from the
        # vectorized pass's running state.
        column = ["a"] * VECTORIZE_MIN_LABELS + ["z" * 70_000, "é" * 9000]
        assert label_keys(column).tolist() == [
            label_to_int(label) for label in column]

    @pytest.mark.parametrize("bad", [None, True, 1.5, "\ud800",
                                     "ok\udfffok", bytearray(b"x"), b"raw"])
    @pytest.mark.parametrize("n", [7, VECTORIZE_MIN_LABELS,
                                   4 * VECTORIZE_MIN_LABELS])
    def test_bad_label_raises_the_scalar_error(self, bad, n):
        try:
            label_to_int(bad)
            # A bytes label in a str column is valid, just mixed.
            expected = None
        except (TypeError, UnicodeEncodeError) as exc:
            expected = type(exc)
        column = [f"host-{i}" for i in range(n)]
        column[n // 2] = bad
        if expected is None:
            assert label_keys(column).tolist() == [
                label_to_int(label) for label in column]
        else:
            with pytest.raises(expected):
                label_keys(column)

    def test_bytes_column_with_bytearray_rejected(self):
        column = [b"raw-%d" % i for i in range(VECTORIZE_MIN_LABELS)]
        column[-1] = bytearray(b"x")
        with pytest.raises(TypeError, match="bytearray"):
            label_keys(column)

    def test_large_columns_bypass_the_cache(self):
        clear_label_cache()
        column = [f"n{i % 97}" for i in range(VECTORIZE_MIN_LABELS)]
        label_keys(column)
        info = label_cache_info()
        assert (info["hits"], info["misses"], info["size"]) == (0, 0, 0)
        label_keys(column[:VECTORIZE_MIN_LABELS - 1])
        info = label_cache_info()
        assert info["misses"] == 97
        assert info["hits"] == VECTORIZE_MIN_LABELS - 1 - 97
