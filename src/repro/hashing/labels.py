"""Stable mapping from node labels to 64-bit integers.

Node labels in a graph stream are opaque identifiers -- IP addresses, user
ids, author names (paper Section 3.1).  Before a pairwise-independent hash
can be applied, a label must be turned into an integer key.  We use FNV-1a,
a small, fast, well-distributed non-cryptographic hash that is identical
across processes and platforms (unlike Python's salted ``hash``).

Integer labels pass through untouched.  String and bytes labels take one
of two paths, chosen by column size, and both give the key
``fnv1a_64(label.encode("utf-8"))`` bit for bit:

- **Large columns** (:func:`label_keys` over at least
  :data:`VECTORIZE_MIN_LABELS` labels, all ``str`` or all ``bytes``) are
  hashed in one vectorized pass.  The column is joined with NUL separators
  and encoded to UTF-8 once; one ``flatnonzero`` finds the label boundaries;
  FNV-1a then runs byte-column by byte-column in ``uint64`` numpy
  arithmetic.  UTF-8 bytes of a label never contain ``0x00`` unless the
  label holds a NUL character, so the column is only taken when it has
  exactly ``n - 1`` separators.  Peak memory is O(total label bytes):
  labels are sorted by length so each byte column touches only the
  labels still that long, and the few labels longer than almost all the
  others finish in the scalar loop.  This path neither reads nor fills
  the interning cache.
- **Everything else** -- :func:`label_key`, small columns, and any
  column the vectorized pass cannot prove safe (a NUL inside a label, a
  mixed-type column, a ``bool``/``float``/``None`` label, a lone
  surrogate that cannot be encoded) -- goes through a per-label loop that
  interns keys in a process-wide dict, so each distinct label is hashed
  once and every repeat is a dict probe.  Errors are the ones
  :func:`label_to_int` raises for the offending label.

The cache is bounded with an LRU-style cap: at :func:`label_cache_limit`
distinct labels the *oldest-inserted* eighth of the entries is evicted
(Python dicts iterate in insertion order, so the victims are the labels
interned longest ago) and the eviction is counted in
:func:`label_cache_info`.  Its ``hits``/``misses`` count lookups of the
per-label loop only; labels hashed by the vectorized pass move neither.
The hit path stays a single dict probe -- no per-hit recency bookkeeping
-- and a long-running server cannot leak memory through an unbounded
tail of one-shot labels.  :func:`set_label_cache_limit` tunes the cap
(e.g. down for memory-constrained tenants, up for label-heavy batch
jobs).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

Label = Union[str, bytes, int]

_FNV_OFFSET_64 = 0xCBF29CE484222325
_FNV_PRIME_64 = 0x100000001B3
_MASK_64 = (1 << 64) - 1


def fnv1a_64(data: bytes) -> int:
    """Return the 64-bit FNV-1a hash of ``data``.

    >>> fnv1a_64(b"")
    14695981039346656037
    """
    return _fnv1a_extend(_FNV_OFFSET_64, data)


def _fnv1a_extend(value: int, data: bytes) -> int:
    """Continue an FNV-1a hash from the running state ``value``."""
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME_64) & _MASK_64
    return value


def label_to_int(label: Label) -> int:
    """Map a node label to a stable non-negative 64-bit integer key.

    Integers are passed through (mod 2^64) so that integer-labelled streams
    pay no hashing cost on ingest; strings and bytes go through FNV-1a.

    :raises TypeError: for unsupported label types, so that silently bad
        keys (e.g. floats, which would collide after truncation) are
        rejected at the boundary.
    """
    if isinstance(label, bool):
        # bool is a subclass of int but almost certainly a caller bug.
        raise TypeError("bool is not a valid node label")
    if isinstance(label, int):
        return label & _MASK_64
    if isinstance(label, str):
        return fnv1a_64(label.encode("utf-8"))
    if isinstance(label, bytes):
        return fnv1a_64(label)
    raise TypeError(f"unsupported node label type: {type(label).__name__}")


#: Default cap on distinct string/bytes labels retained by the interning
#: cache.  2^20 entries is ~100MB worst case for long labels, far below
#: the sketches the cache feeds.  Tune per process with
#: :func:`set_label_cache_limit`.
LABEL_CACHE_LIMIT = 1 << 20

_KEY_CACHE: Dict[Union[str, bytes], int] = {}
_cache_limit = LABEL_CACHE_LIMIT
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def set_label_cache_limit(maxsize: int) -> None:
    """Set the interning cache's entry cap, shrinking it now if needed.

    A long-running service sizes this per deployment: the cache holds at
    most ``maxsize`` label->key entries from here on.  Shrinking below
    the current occupancy evicts the oldest entries immediately (counted
    as evictions, like cap-triggered ones).
    """
    global _cache_limit
    if maxsize < 1:
        raise ValueError(f"maxsize must be >= 1, got {maxsize}")
    _cache_limit = maxsize
    if len(_KEY_CACHE) > maxsize:
        _evict(len(_KEY_CACHE) - maxsize)


def label_cache_limit() -> int:
    """The current entry cap of the interning cache."""
    return _cache_limit


def _evict(count: int) -> None:
    """Drop the ``count`` oldest-inserted entries (insertion-order LRU)."""
    global _cache_evictions
    victims = list(itertools.islice(iter(_KEY_CACHE), count))
    for label in victims:
        del _KEY_CACHE[label]
    _cache_evictions += len(victims)


def _make_room() -> None:
    """Evict an eighth of the cap (>= 1 entry) before a full-cache insert.

    Batched eviction keeps the amortized insert cost at O(1): one
    O(cap/8) sweep admits cap/8 fresh labels before the next sweep.
    """
    _evict(max(1, _cache_limit >> 3))


def label_key(label: Label) -> int:
    """:func:`label_to_int` with interning for string/bytes labels.

    The first conversion of a distinct label pays the FNV-1a pass; every
    repeat is a dict hit.  Integer labels bypass the cache entirely.
    """
    global _cache_hits, _cache_misses
    cls = type(label)
    if cls is int:
        return label & _MASK_64
    if cls is str or cls is bytes:
        cached = _KEY_CACHE.get(label)
        if cached is not None:
            _cache_hits += 1
            return cached
        key = fnv1a_64(label.encode("utf-8") if cls is str else label)
        if len(_KEY_CACHE) >= _cache_limit:
            _make_room()
        _KEY_CACHE[label] = key
        _cache_misses += 1
        return key
    # Subclasses and unsupported types take the validating slow path.
    return label_to_int(label)


#: Smallest all-``str``/all-``bytes`` column :func:`label_keys` hashes in
#: one vectorized pass; shorter columns keep the per-label loop.  Set at
#: the measured crossover against the loop's best case, a fully warm
#: cache over freshly JSON-decoded labels (us per call, one 2-vCPU x86
#: host, numpy 2.4, Python 3.11):
#:
#: ===========================  ====  ====  ====  ====  =====
#: labels per column             256   384   512   768   1024
#: ===========================  ====  ====  ====  ====  =====
#: IPv4 (~12 B), vectorized       35    40    46    55     64
#: IPv4 (~12 B), warm loop        26    41    57    86    119
#: 40 B ids, vectorized           73    83    97   113    131
#: 40 B ids, warm loop            28    43    59    89    121
#: ===========================  ====  ====  ====  ====  =====
#:
#: The vectorized cost grows with label length (one numpy step per byte
#: column), the warm loop's does not, and a cold loop pays a Python FNV
#: pass (~100 ns per byte) for every distinct label.  512 is the
#: short-label crossover; long labels reach theirs near 1024.
VECTORIZE_MIN_LABELS = 512

#: A byte column still held by fewer labels than this costs more in numpy
#: call overhead (~2 us a step) than the scalar loop spends finishing
#: those labels (~100-150 ns per byte each), so they finish there.
_VECTOR_MIN_ROWS = 16

#: Label lengths are sorted as uint16 (numpy's radix sort); labels longer
#: than this finish in the scalar loop.
_VECTOR_MAX_STEPS = 0xFFFF

_FNV_OFFSET_U64 = np.uint64(_FNV_OFFSET_64)
_FNV_PRIME_U64 = np.uint64(_FNV_PRIME_64)


def _fnv1a_column(labels: List[Label]) -> Optional["np.ndarray"]:
    """FNV-1a keys of an all-``str`` or all-``bytes`` column, vectorized.

    Returns ``None`` when the column is not provably safe for the joined
    pass (mixed or unsupported types, a NUL inside a label, a label that
    cannot be encoded); the caller then runs the per-label loop, which
    raises the scalar path's error for the offending label.
    """
    n = len(labels)
    first = type(labels[0])
    if first is str:
        # join takes exactly str (and subclasses, whose UTF-8 bytes are
        # the ones label_to_int hashes) and raises TypeError otherwise.
        try:
            data = "\x00".join(labels).encode("utf-8")
        except (TypeError, UnicodeEncodeError):
            return None
    elif first is bytes:
        # bytes.join would also take bytearray/memoryview, which
        # label_to_int rejects.
        if any(type(label) is not bytes for label in labels):
            return None
        data = b"\x00".join(labels)
    else:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(buf == 0)
    if len(seps) != n - 1:
        return None
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    starts[1:] = seps + 1
    lengths = np.empty(n, dtype=np.int64)
    lengths[:-1] = seps
    lengths[-1] = len(buf)
    lengths -= starts
    # Ascending by (clipped) length: the labels still longer than j are
    # a suffix of this order, so byte column j is one contiguous slice.
    clipped = np.minimum(lengths, _VECTOR_MAX_STEPS).astype(np.uint16)
    order = np.argsort(clipped, kind="stable")
    sorted_len = clipped[order]
    pos = starts[order]
    steps = min(int(sorted_len[n - _VECTOR_MIN_ROWS]), _VECTOR_MAX_STEPS - 1)
    firsts = np.searchsorted(sorted_len, np.arange(steps), side="right")
    keys = np.full(n, _FNV_OFFSET_U64, dtype=np.uint64)
    for j, lo in enumerate(firsts.tolist()):
        live = keys[lo:]
        live ^= buf[j:][pos[lo:]]
        live *= _FNV_PRIME_U64
    # Labels longer than ``steps`` bytes continue from their running state.
    for i in range(int(np.searchsorted(sorted_len, steps, side="right")), n):
        row = int(order[i])
        start = int(starts[row])
        keys[i] = _fnv1a_extend(int(keys[i]),
                                data[start + steps:start + int(lengths[row])])
    out = np.empty(n, dtype=np.uint64)
    out[order] = keys
    return out


def label_keys(labels: Iterable[Label]) -> "np.ndarray":
    """Bulk-convert labels to the uint64 key array the sketch kernels eat.

    Equal to ``np.array([label_to_int(x) for x in ...], dtype=np.uint64)``
    and the converter every batched ingest/query path goes through.  An
    all-``str`` or all-``bytes`` column of at least
    :data:`VECTORIZE_MIN_LABELS` labels is hashed in one vectorized pass
    that bypasses the interning cache; other columns take the cached
    per-label loop (see the module docstring).
    """
    global _cache_hits, _cache_misses
    if isinstance(labels, np.ndarray):
        if labels.dtype.kind in "iu":
            return labels.astype(np.uint64, copy=False)
        labels = labels.tolist()
    elif not isinstance(labels, (list, tuple)):
        labels = list(labels)
    # Vectorized fast path for all-integer columns (generator streams and
    # pre-hashed keys): one C-level conversion instead of 65k scalar
    # assignments.  Mixed or huge-int columns fall through to the loop
    # (np.asarray yields a non-integer dtype or overflows).
    if labels and type(labels[0]) is int:
        try:
            arr = np.asarray(labels)
        except OverflowError:
            arr = None
        if arr is not None and arr.dtype.kind in "iu":
            return arr.astype(np.uint64, copy=False)
    if len(labels) >= VECTORIZE_MIN_LABELS:
        keys = _fnv1a_column(labels)
        if keys is not None:
            return keys
    out = np.empty(len(labels), dtype=np.uint64)
    cache = _KEY_CACHE
    hits = misses = 0
    for i, label in enumerate(labels):
        cls = type(label)
        if cls is int:
            out[i] = label & _MASK_64
        elif cls is str or cls is bytes:
            cached = cache.get(label)
            if cached is None:
                cached = fnv1a_64(
                    label.encode("utf-8") if cls is str else label)
                if len(cache) >= _cache_limit:
                    _make_room()
                cache[label] = cached
                misses += 1
            else:
                hits += 1
            out[i] = cached
        else:
            out[i] = label_to_int(label)
    _cache_hits += hits
    _cache_misses += misses
    return out


def label_cache_info() -> Dict[str, int]:
    """Hit/miss/size/eviction counters for the interning cache."""
    return {"hits": _cache_hits, "misses": _cache_misses,
            "size": len(_KEY_CACHE), "limit": _cache_limit,
            "evictions": _cache_evictions}


def label_cache_bytes() -> int:
    """Estimated footprint of the interning cache.

    Sampled rather than summed: ``sys.getsizeof`` over every key would be
    O(cache) per telemetry tick.  Up to 256 keys are measured and the mean
    per-entry size (key object + dict slot + cached int) is extrapolated
    to the full cache, which is accurate enough for the RSS-accounting
    gauge this feeds (``label_cache_bytes`` in docs/OBSERVABILITY.md).
    """
    import sys
    size = len(_KEY_CACHE)
    if size == 0:
        return 0
    sampled = 0
    total = 0
    for label in _KEY_CACHE:
        # ~104B: one dict slot (key+value pointers, hash, load factor
        # headroom) plus the cached int object.
        total += sys.getsizeof(label) + 104
        sampled += 1
        if sampled >= 256:
            break
    return int(total / sampled * size)


def clear_label_cache() -> None:
    """Drop all interned keys and reset the hit/miss/eviction counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    _KEY_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0
    _cache_evictions = 0
