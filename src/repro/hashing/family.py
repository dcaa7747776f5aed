"""Carter-Wegman pairwise-independent hash functions.

A family ``H = {h : U -> [0, w)}`` is pairwise independent when for distinct
keys ``x != y`` and any buckets ``k, l``::

    Pr[h(x) = k and h(y) = l] = 1 / w**2

The classic construction ``h(x) = ((a*x + b) mod p) mod w`` with ``p`` prime,
``a`` drawn uniformly from ``[1, p)`` and ``b`` from ``[0, p)`` achieves this
(up to the small bias of the final ``mod w``).  We use the Mersenne prime
``p = 2**61 - 1``, which covers 64-bit label keys after one reduction, keeps
scalar arithmetic in native Python ints, and admits an overflow-free
vectorized implementation in uint64 numpy arrays via limb splitting.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.hashing.labels import Label, label_to_int

MERSENNE_PRIME_61 = (1 << 61) - 1

_P = np.uint64(MERSENNE_PRIME_61)
_LIMB_BITS = np.uint64(31)
_LIMB_MASK = np.uint64((1 << 31) - 1)
_THIRTY = np.uint64(30)
_SIXTY_ONE = np.uint64(61)
_M30 = np.uint64((1 << 30) - 1)

#: Largest work buffer (in uint64 words) a thread keeps between
#: :func:`hash_many_bulk` calls: 8 MiB, enough for the library's default
#: 65536-key chunk at d <= 4.  Bigger calls take per-call temporaries.
_SCRATCH_MAX_WORDS = 1 << 20

_scratch = threading.local()


def _scratch_words(words: int) -> "np.ndarray":
    """A flat uint64 work buffer of at least ``words`` words: grow-only
    up to ``_SCRATCH_MAX_WORDS``, and per thread because ``ShardedTCM``
    hashes its shards concurrently."""
    if words > _SCRATCH_MAX_WORDS:
        return np.empty(words, dtype=np.uint64)
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.size < words:
        buf = _scratch.buf = np.empty(words, dtype=np.uint64)
    return buf


@dataclass(frozen=True)
class PairwiseHash:
    """One hash ``h(x) = ((a*x + b) mod p) mod width`` with ``p = 2^61-1``.

    Instances are immutable and hashable so sketches can be compared and
    serialized; two sketches built from equal :class:`PairwiseHash` objects
    are bucket-for-bucket identical.
    """

    a: int
    b: int
    width: int

    def __post_init__(self) -> None:
        if not 1 <= self.a < MERSENNE_PRIME_61:
            raise ValueError(f"a must be in [1, p), got {self.a}")
        if not 0 <= self.b < MERSENNE_PRIME_61:
            raise ValueError(f"b must be in [0, p), got {self.b}")
        if self.width < 1:
            raise ValueError(f"width must be >= 1, got {self.width}")

    def __call__(self, label: Label) -> int:
        """Return the bucket of ``label`` in ``[0, width)``."""
        return self.hash_int(label_to_int(label))

    def hash_int(self, key: int) -> int:
        """Bucket an already-converted integer key (scalar fast path)."""
        return ((self.a * (key % MERSENNE_PRIME_61) + self.b) % MERSENNE_PRIME_61) % self.width

    def hash_many(self, keys: "np.ndarray") -> "np.ndarray":
        """Vectorized bucketing of an array of non-negative integer keys.

        Equivalent to ``np.array([self.hash_int(k) for k in keys])``;
        runs the one-function case of :func:`hash_many_bulk`.
        """
        return hash_many_bulk((self,), keys)[0]


@lru_cache(maxsize=128)
def _bulk_coefficients(funcs: Tuple["PairwiseHash", ...]):
    """Stacked ``(d, 1)`` coefficient columns for :func:`hash_many_bulk`.

    Cached per function tuple (``PairwiseHash`` is frozen/hashable): a
    sketch hashes every batch through the same ensemble, so the setup
    cost of the list comprehensions and array constructors is paid once
    per sketch instead of once per batch.
    """
    d = len(funcs)
    a = np.array([f.a for f in funcs], dtype=np.uint64).reshape(d, 1)
    b = np.array([f.b for f in funcs], dtype=np.uint64).reshape(d, 1)
    widths = np.array([f.width for f in funcs],
                      dtype=np.uint64).reshape(d, 1)
    a_hi = a >> _LIMB_BITS                # < 2^30
    a_lo = a & _LIMB_MASK                 # < 2^31
    mask = None
    if bool(np.all(widths & (widths - np.uint64(1)) == 0)):
        mask = widths - np.uint64(1)
    return a_hi + a_hi, a_hi, a_lo, b, widths, mask


def hash_many_bulk(funcs: Sequence["PairwiseHash"],
                   keys: "np.ndarray") -> "np.ndarray":
    """Bucket one key column through several hash functions at once.

    Returns a freshly allocated ``(len(funcs), len(keys))`` int64 array
    whose row ``i`` equals ``[funcs[i].hash_int(int(k)) for k in keys]``
    bit for bit; the library's only vectorized Carter-Wegman pass.  The
    ``(a, b, width)`` coefficients broadcast as ``(d, 1)`` columns
    against the ``(n,)`` keys, so numpy dispatch is paid once per
    ensemble.  Mersenne reduction is lazy -- partial products stay
    congruent mod ``p = 2^61 - 1`` and below ``2^64`` (bounds inline),
    with one fold and one branch-free canonicalization at the end: 18
    vector ops per function and key.  The key limbs and the two
    ``(d, n)`` intermediates live in a per-thread scratch buffer;
    allocating them per call made a service flush map, zero-fill and
    unmap fresh pages (60-140 minor faults per 4096-edge flush).
    All-power-of-two ensembles take a mask instead of the slow ``%``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    if not funcs:
        raise ValueError("hash_many_bulk needs at least one function")
    a2_hi, a_hi, a_lo, b, widths, mask = _bulk_coefficients(tuple(funcs))
    d, n = a_hi.shape[0], keys.shape[0]
    buf = _scratch_words((2 + 2 * d) * n)
    k_hi, k_lo = buf[:2 * n].reshape(2, n)
    mid = buf[2 * n:(2 + d) * n].reshape(d, n)
    scratch = buf[(2 + d) * n:(2 + 2 * d) * n].reshape(d, n)
    # Nearly reduce the key, k = (keys & p) + (keys >> 61) <= 2^61 + 6
    # (congruent mod p), and split it: k_hi = k >> 31 <= 2^30,
    # k_lo < 2^31.
    np.right_shift(keys, _SIXTY_ONE, out=k_hi)
    np.bitwise_and(keys, _P, out=k_lo)
    k_lo += k_hi
    np.right_shift(k_lo, _LIMB_BITS, out=k_hi)
    k_lo &= _LIMB_MASK
    # a*k = a_hi*k_hi*2^62 + (a_hi*k_lo + a_lo*k_hi)*2^31 + a_lo*k_lo.
    # top: 2^62 === 2 (mod p), so top = (2*a_hi)*k_hi < 2^61.
    acc = np.multiply(a2_hi, k_hi)
    # mid = a_hi*k_lo + a_lo*k_hi < 2^61 + 2^61; with
    # mid = m_hi*2^30 + m_lo, mid*2^31 === m_hi + m_lo*2^31 < 2^61 + 2^32.
    np.multiply(a_hi, k_lo, out=mid)
    np.multiply(a_lo, k_hi, out=scratch)
    mid += scratch
    np.right_shift(mid, _THIRTY, out=scratch)
    mid &= _M30
    mid <<= _LIMB_BITS
    mid += scratch
    acc += mid
    # bot = a_lo*k_lo < 2^62 goes in unfolded, and b < 2^61:
    # top + mid + bot + b < 5*2^61 + 2^33 < 2^64.
    np.multiply(a_lo, k_lo, out=mid)
    acc += mid
    acc += b
    # One fold: (acc & p) + (acc >> 61) <= (2^61 - 1) + 5 < 2^61 + 5.
    np.right_shift(acc, _SIXTY_ONE, out=scratch)
    acc &= _P
    acc += scratch
    # Canonicalize: acc - p wraps to >= 2^64 - p > acc when acc < p,
    # so the minimum is acc mod p either way.
    np.subtract(acc, _P, out=scratch)
    np.minimum(acc, scratch, out=acc)
    if mask is not None:
        acc &= mask
    else:
        np.remainder(acc, widths, out=acc)
    # Buckets are < width < 2^63, so the int64 reinterpretation is
    # value-preserving and skips an astype copy.
    return acc.view(np.int64)


class HashFamily:
    """``d`` independent pairwise hash functions over a common key space.

    This is the object handed to a :class:`~repro.core.tcm.TCM`: one
    :class:`PairwiseHash` per constituent graph sketch.  Functions may have
    different widths (used by non-square matrices, paper Section 5.1.2).
    """

    def __init__(self, widths: Sequence[int], seed: Optional[int] = None):
        if not widths:
            raise ValueError("HashFamily needs at least one width")
        rng = random.Random(seed)
        self._functions = tuple(
            PairwiseHash(
                a=rng.randrange(1, MERSENNE_PRIME_61),
                b=rng.randrange(0, MERSENNE_PRIME_61),
                width=w,
            )
            for w in widths
        )

    @classmethod
    def uniform(cls, d: int, width: int, seed: Optional[int] = None) -> "HashFamily":
        """Family of ``d`` functions that all map into ``[0, width)``."""
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        return cls([width] * d, seed=seed)

    def __len__(self) -> int:
        return len(self._functions)

    def __iter__(self) -> Iterator[PairwiseHash]:
        return iter(self._functions)

    def __getitem__(self, i: int) -> PairwiseHash:
        return self._functions[i]
