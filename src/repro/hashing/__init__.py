"""Pairwise-independent hashing substrate.

The TCM paper (Section 5.2) requires pairwise-independent hash functions to
bound the collision probability of the graphical sketch.  This package
provides:

- :func:`fnv1a_64` / :func:`label_to_int`: a deterministic, platform-stable
  mapping from arbitrary node labels (strings, bytes, ints) to 64-bit
  integers.  Python's built-in ``hash`` is salted per process and therefore
  unsuitable for reproducible sketches.
- :class:`PairwiseHash`: a single Carter-Wegman hash
  ``h(x) = ((a*x + b) mod p) mod w`` over the Mersenne prime ``p = 2^61-1``.
- :class:`HashFamily`: ``d`` independent :class:`PairwiseHash` instances
  drawn from a seeded RNG, as used by the TCM ensemble.
- :func:`label_key` / :func:`label_keys`: the scalar and bulk converters
  the batched ingest/query kernels go through.  Large string/bytes
  columns are FNV-hashed in one vectorized pass; single labels and small
  columns go through an interning cache, so a repeated label costs one
  dict probe.
"""

from repro.hashing.labels import (
    clear_label_cache,
    fnv1a_64,
    label_cache_info,
    label_key,
    label_keys,
    label_to_int,
)
from repro.hashing.family import MERSENNE_PRIME_61, HashFamily, PairwiseHash

__all__ = [
    "fnv1a_64",
    "label_to_int",
    "label_key",
    "label_keys",
    "label_cache_info",
    "clear_label_cache",
    "PairwiseHash",
    "HashFamily",
    "MERSENNE_PRIME_61",
]
