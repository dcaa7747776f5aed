"""Pluggable scatter/hash kernels behind the batched ingest paths.

Every bulk mutation in the library bottoms out in one of a handful of
primitives: *scatter-add* (sum/count ingest and deletion), *segment
extreme* (min/max ingest), *segment floor* (batched conservative
update) and *segment sums* (the sparse backend's grouped dict update).
This module implements those primitives once, behind a tiny backend
registry, so the sketches stay storage/aggregation logic and the hot
arithmetic can be swapped wholesale:

- ``numpy``   -- the in-order ``ufunc.at`` ufuncs (``np.add.at``,
  ``np.subtract.at``, ``np.minimum.at``, ``np.maximum.at``) over flat
  cell indices.  Since numpy 1.25 these take a fast path for 1-D
  integer indices and run at a few ns per element, well ahead of any
  bincount- or sort-based reduction at service batch sizes; older
  numpy stays correct but is ~40x slower (hence ``numpy>=1.25``).
- ``numba``   -- optional jitted kernels: per-element scatter loops plus
  a *fused* path that goes key -> Mersenne hash -> flat index -> cell in
  a single compiled pass with no intermediate arrays.  Only offered when
  numba is importable; never a hard dependency.
- ``auto``    -- numba when available, numpy otherwise (the default).

Select a backend with :func:`set_backend`, per-call via
:func:`get_backend`, through the ``REPRO_KERNEL`` environment variable,
or ``tcm ingest --kernel``.

**Exactness contract.**  All backends produce *bit-identical* state to
the per-element scalar loop, for any non-NaN values:

- ``ufunc.at`` applies its elements one at a time in index order, so a
  cell ends at ``((m + w1) + w2) ...`` exactly like repeated ``+=`` (and
  ``((m - w1) - w2) ...`` for deletion), in the matrix's own dtype, at
  any magnitude.
- min/max return one of their inputs, so only ties could tell the paths
  apart, and only signed zeros make a tie visible.  The scalar loop
  keeps the value it already holds on a tie, while ``np.minimum.at``
  takes the incoming one; the numpy kernels therefore fold the batch in
  reverse and then re-fold each touched cell's prior value, so the
  earliest of the tied values wins, as in the loop.
"""

from __future__ import annotations

import contextlib
import os
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "available_backends", "get_backend", "set_backend", "active_backend",
    "use_backend", "resolve_backend", "reset", "dedup_keys", "check_weights",
    "KernelBackend", "NumpyKernels", "NumbaKernels",
]

#: Batches smaller than this skip the per-chunk key dedup (the sort
#: costs more than the duplicate hashing it saves).
_DEDUP_MIN_BATCH = 2048

_DEDUP_PROBE = 512


def dedup_keys(keys: np.ndarray, *,
               min_batch: int = _DEDUP_MIN_BATCH
               ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Distinct keys plus the inverse gather, or ``(keys, None)`` when
    deduplication would cost more than it saves.

    Streams repeat hot endpoints constantly, and an ensemble hashes the
    same key column once per sketch: hashing only the distinct keys and
    gathering per sketch amortizes the sort across ``d`` hash passes.

    The full ``np.unique`` sort is itself the dominant cost on
    low-repetition batches, so a strided ~512-key probe is sorted first
    and the batch is passed through untouched when the probe shows
    almost no repetition.  The probe sees heavy-hitter repetition (the
    case where dedup pays) at roughly its true rate; it under-counts
    keys that repeat only a couple of times each, but for those the
    sort costs about as much as the duplicate hashing it would avoid,
    so skipping is near break-even rather than a loss.
    """
    n = keys.shape[0]
    if n < min_batch:
        return keys, None
    step = n // _DEDUP_PROBE
    if step > 1:
        probe = np.sort(keys[::step])
        distinct = int(np.count_nonzero(probe[1:] != probe[:-1])) + 1
        if distinct * 8 >= probe.shape[0] * 7:
            # Under ~12.5% repetition in the probe: not worth sorting
            # the full batch to find out the exact rate.
            return keys, None
    unique, inverse = np.unique(keys, return_inverse=True)
    if unique.shape[0] * 4 > keys.shape[0] * 3:
        # Barely any repetition; the gathers would cost more than the
        # duplicate hashing they avoid.
        return keys, None
    return unique, inverse


def check_weights(weights: np.ndarray, kind: str = "stream") -> None:
    """Raise ``ValueError`` unless every weight is finite and ``>= 0``.

    NaN fails ``w >= 0`` and +inf fails ``w < inf``, so one pass covers
    negative, NaN and infinite weights alike.
    """
    ok = (weights >= 0) & (weights < np.inf)
    if not ok.all():
        bad = float(weights[~ok][0])
        raise ValueError(
            f"{kind} weights must be finite and non-negative, got {bad}")


def _flat_indices(rows: np.ndarray, cols: np.ndarray,
                  ncols: int) -> np.ndarray:
    return rows * np.int64(ncols) + cols


# -- pure-numpy kernel bodies -------------------------------------------------


def _flat_view(matrix: np.ndarray) -> np.ndarray:
    """1-D view of ``matrix``; refuses to scatter into a silent copy.

    ``reshape(-1)`` of a non-contiguous array is a copy, and updates to
    it would be lost without a trace.
    """
    if not matrix.flags.c_contiguous:
        raise ValueError("scatter target must be C-contiguous; a "
                         "flattened copy would drop the updates")
    return matrix.reshape(-1)


def _np_fold_extreme(fold: np.ufunc, flat: np.ndarray, idx: np.ndarray,
                     values: np.ndarray,
                     flat_touch: Optional[np.ndarray]) -> None:
    """Fold ``values`` into ``flat[idx]`` with ``np.minimum``/``maximum``.

    Cells not yet in ``flat_touch`` are seeded with a value landing on
    them (the fold covers it again); ``flat_touch=None`` treats every
    cell as already holding a value.  The reverse fold plus the re-fold
    of prior values makes the earliest tied value win, as in the loop.
    """
    if flat_touch is None:
        prior_cells = idx
    else:
        seen = flat_touch[idx]
        prior_cells = idx[seen]
        fresh = ~seen
        flat[idx[fresh]] = values[fresh]
        flat_touch[idx] = True
    prior = flat[prior_cells]
    fold.at(flat, idx[::-1], values[::-1])
    fold.at(flat, prior_cells, prior)


def _np_segment_cell_sums(rows: np.ndarray, cols: np.ndarray, ncols: int,
                          values: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct flat cells and their per-cell stream-order weight sums."""
    flat = _flat_indices(rows, cols, ncols)
    cells, inverse = np.unique(flat, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=cells.shape[0])
    return cells, sums


# -- numba kernel bodies ------------------------------------------------------
#
# Written as plain functions over numpy scalars/arrays so the *same*
# bodies run unjitted (the pure-Python twins the test suite exercises
# even when numba is absent) and jitted (what the numba backend
# dispatches to).  All integer arithmetic is uint64 limb math that never
# overflows, mirroring repro.hashing.family's vectorized construction
# bit for bit.

_U61 = np.uint64((1 << 61) - 1)
_U31 = np.uint64(31)
_U30 = np.uint64(30)
_M31 = np.uint64((1 << 31) - 1)
_M30 = np.uint64((1 << 30) - 1)


def _kb_hash_key(a_hi, a_lo, b, width, key):
    """Scalar Mersenne hash ``((a*k + b) mod 2^61-1) mod width``.

    Matches :meth:`repro.hashing.family.PairwiseHash.hash_int` exactly;
    ``a`` arrives pre-split as ``a_hi * 2^31 + a_lo`` so every partial
    product fits in uint64.
    """
    k = (key & _U61) + (key >> np.uint64(61))
    if k >= _U61:
        k -= _U61
    k_hi = k >> _U31
    k_lo = k & _M31
    top = a_hi * k_hi
    top = (top & _U61) + (top >> np.uint64(61))
    if top >= _U61:
        top -= _U61
    top = top + top
    if top >= _U61:
        top -= _U61
    mid = a_hi * k_lo + a_lo * k_hi
    mid = (mid & _U61) + (mid >> np.uint64(61))
    if mid >= _U61:
        mid -= _U61
    mid = ((mid & _M30) << _U31) + (mid >> _U30)
    if mid >= _U61:
        mid -= _U61
    bot = a_lo * k_lo
    bot = (bot & _U61) + (bot >> np.uint64(61))
    if bot >= _U61:
        bot -= _U61
    total = top + mid
    if total >= _U61:
        total -= _U61
    total = total + bot
    if total >= _U61:
        total -= _U61
    total = total + b
    if total >= _U61:
        total -= _U61
    return total % width


def _kb_scatter_add(flat_mat, flat_idx, values):
    for i in range(flat_idx.shape[0]):
        flat_mat[flat_idx[i]] += values[i]


def _kb_scatter_sub(flat_mat, flat_idx, values):
    for i in range(flat_idx.shape[0]):
        flat_mat[flat_idx[i]] -= values[i]


def _kb_scatter_extreme(flat_mat, flat_touch, flat_idx, values, minimum):
    for i in range(flat_idx.shape[0]):
        j = flat_idx[i]
        v = values[i]
        if not flat_touch[j]:
            flat_mat[j] = v
            flat_touch[j] = True
        elif minimum:
            if v < flat_mat[j]:
                flat_mat[j] = v
        elif v > flat_mat[j]:
            flat_mat[j] = v


def _kb_scatter_floor(flat_mat, flat_idx, floors):
    for i in range(flat_idx.shape[0]):
        j = flat_idx[i]
        if flat_mat[j] < floors[i]:
            flat_mat[j] = floors[i]


def _kb_fused_scatter(flat_mat, flat_touch, ncols,
                      ra_hi, ra_lo, rb, rwidth,
                      ca_hi, ca_lo, cb, cwidth,
                      skeys, tkeys, values, op):
    """Fused key -> hash -> flat index -> cell pass.

    ``op``: 0 add, 1 subtract, 2 min, 3 max.  Keys must already be in
    canonical orientation for undirected sketches.
    """
    for i in range(skeys.shape[0]):
        r = _kb_hash_key(ra_hi, ra_lo, rb, rwidth, skeys[i])
        c = _kb_hash_key(ca_hi, ca_lo, cb, cwidth, tkeys[i])
        j = r * ncols + c
        if op == 0:
            flat_mat[j] += values[i]
        elif op == 1:
            flat_mat[j] -= values[i]
        else:
            v = values[i]
            if not flat_touch[j]:
                flat_mat[j] = v
                flat_touch[j] = True
            elif op == 2:
                if v < flat_mat[j]:
                    flat_mat[j] = v
            elif v > flat_mat[j]:
                flat_mat[j] = v


def _hash_coefficients(hash_fn) -> Tuple[np.uint64, np.uint64, np.uint64,
                                         np.uint64]:
    """(a_hi, a_lo, b, width) of a PairwiseHash as uint64 scalars."""
    return (np.uint64(hash_fn.a >> 31), np.uint64(hash_fn.a & ((1 << 31) - 1)),
            np.uint64(hash_fn.b), np.uint64(hash_fn.width))


_DUMMY_TOUCH = np.zeros(1, dtype=np.bool_)


# -- backends -----------------------------------------------------------------


class KernelBackend:
    """The primitive set a scatter backend provides.

    ``fused`` advertises whether :meth:`fused_ingest` is a genuinely
    single-pass kernel (numba) or a composition fallback (numpy) --
    callers use it to decide whether pre-hashing/dedup still pays.
    """

    name = "abstract"
    fused = False

    def scatter_add(self, matrix, rows, cols, values) -> None:
        raise NotImplementedError

    def scatter_sub(self, matrix, rows, cols, values) -> None:
        raise NotImplementedError

    def scatter_extreme(self, matrix, touched, rows, cols, values,
                        minimum) -> None:
        raise NotImplementedError

    def scatter_floor(self, matrix, rows, cols, floors) -> None:
        raise NotImplementedError

    def scatter_add_1d(self, table, idx, values) -> None:
        raise NotImplementedError

    def segment_cell_sums(self, rows, cols, ncols, values):
        return _np_segment_cell_sums(rows, cols, ncols, values)

    def fused_ingest(self, sketch_matrix, touched, row_hash, col_hash,
                     skeys, tkeys, values, op) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r}>"


class NumpyKernels(KernelBackend):
    """In-order ``ufunc.at`` scatter over flat cell indices.

    Unit weights (``values=None``) are a one of the target's dtype: a
    Python ``1`` sends ``ufunc.at`` down its generic path, ~30x slower.
    """

    name = "numpy"
    fused = False

    def scatter_add(self, matrix, rows, cols, values) -> None:
        np.add.at(_flat_view(matrix),
                  _flat_indices(rows, cols, matrix.shape[1]),
                  matrix.dtype.type(1) if values is None else values)

    def scatter_sub(self, matrix, rows, cols, values) -> None:
        np.subtract.at(_flat_view(matrix),
                       _flat_indices(rows, cols, matrix.shape[1]),
                       matrix.dtype.type(1) if values is None else values)

    def scatter_extreme(self, matrix, touched, rows, cols, values,
                        minimum) -> None:
        _np_fold_extreme(np.minimum if minimum else np.maximum,
                         _flat_view(matrix),
                         _flat_indices(rows, cols, matrix.shape[1]),
                         values, _flat_view(touched))

    def scatter_floor(self, matrix, rows, cols, floors) -> None:
        _np_fold_extreme(np.maximum, _flat_view(matrix),
                         _flat_indices(rows, cols, matrix.shape[1]),
                         floors, None)

    def scatter_add_1d(self, table, idx, values) -> None:
        np.add.at(table, idx,
                  table.dtype.type(1) if values is None else values)


class NumbaKernels(KernelBackend):
    """Jitted per-element loops plus the fused hash->scatter pass."""

    name = "numba"
    fused = True

    def __init__(self, jit: Callable):
        self._scatter_add = jit(_kb_scatter_add)
        self._scatter_sub = jit(_kb_scatter_sub)
        self._scatter_extreme = jit(_kb_scatter_extreme)
        self._scatter_floor = jit(_kb_scatter_floor)
        self._fused = jit(_kb_fused_scatter)

    def scatter_add(self, matrix, rows, cols, values) -> None:
        if rows.shape[0] == 0:
            return
        if values is None:
            values = np.ones(rows.shape[0], dtype=np.float64)
        self._scatter_add(_flat_view(matrix),
                          _flat_indices(rows, cols, matrix.shape[1]), values)

    def scatter_sub(self, matrix, rows, cols, values) -> None:
        if rows.shape[0] == 0:
            return
        if values is None:
            values = np.ones(rows.shape[0], dtype=np.float64)
        self._scatter_sub(_flat_view(matrix),
                          _flat_indices(rows, cols, matrix.shape[1]), values)

    def scatter_extreme(self, matrix, touched, rows, cols, values,
                        minimum) -> None:
        if rows.shape[0] == 0:
            return
        self._scatter_extreme(_flat_view(matrix), _flat_view(touched),
                              _flat_indices(rows, cols, matrix.shape[1]),
                              values, minimum)

    def scatter_floor(self, matrix, rows, cols, floors) -> None:
        if rows.shape[0] == 0:
            return
        self._scatter_floor(_flat_view(matrix),
                            _flat_indices(rows, cols, matrix.shape[1]),
                            floors)

    def scatter_add_1d(self, table, idx, values) -> None:
        if idx.shape[0] == 0:
            return
        if values is None:
            values = np.ones(idx.shape[0], dtype=np.float64)
        self._scatter_add(table, idx.astype(np.int64, copy=False), values)

    def fused_ingest(self, sketch_matrix, touched, row_hash, col_hash,
                     skeys, tkeys, values, op) -> None:
        if skeys.shape[0] == 0:
            return
        ra_hi, ra_lo, rb, rw = _hash_coefficients(row_hash)
        ca_hi, ca_lo, cb, cw = _hash_coefficients(col_hash)
        flat_touch = (_flat_view(touched) if touched is not None
                      else _DUMMY_TOUCH)
        self._fused(_flat_view(sketch_matrix), flat_touch,
                    np.uint64(sketch_matrix.shape[1]),
                    ra_hi, ra_lo, rb, rw, ca_hi, ca_lo, cb, cw,
                    skeys, tkeys, values, op)


# -- registry -----------------------------------------------------------------

_numba_checked = False
_numba_jit: Optional[Callable] = None


def _numba_available() -> bool:
    global _numba_checked, _numba_jit
    if not _numba_checked:
        _numba_checked = True
        try:
            from numba import njit  # type: ignore
            _numba_jit = njit(cache=True, fastmath=False)
        except Exception:
            _numba_jit = None
    return _numba_jit is not None


def available_backends() -> Tuple[str, ...]:
    """Backend names accepted by :func:`set_backend` on this machine."""
    names = ["auto", "numpy"]
    if _numba_available():
        names.append("numba")
    return tuple(names)


_instances: Dict[str, KernelBackend] = {}
_default: Optional[KernelBackend] = None


def resolve_backend(name: Optional[str]) -> KernelBackend:
    """Resolve a backend name (``None`` -> ``$REPRO_KERNEL`` -> auto)."""
    if not name:
        name = os.environ.get("REPRO_KERNEL") or "auto"
    name = name.lower()
    if name == "auto":
        name = "numba" if _numba_available() else "numpy"
    if name == "numpy":
        return _instances.setdefault("numpy", NumpyKernels())
    if name == "numba":
        if not _numba_available():
            raise ValueError(
                "kernel backend 'numba' requested but numba is not "
                "importable; install numba or use 'numpy'/'auto' "
                f"(available: {', '.join(available_backends())})")
        return _instances.setdefault("numba", NumbaKernels(_numba_jit))
    raise ValueError(
        f"unknown kernel backend {name!r}; "
        f"available: {', '.join(available_backends())}")


def _publish_gauge(active: str) -> None:
    try:
        from repro.obs.instruments import OBS
    except Exception:  # pragma: no cover - obs must never break ingest
        return
    if not OBS.enabled:
        return
    for name in ("numpy", "numba"):
        OBS.kernel_backend.labels(name).set(1.0 if name == active else 0.0)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The backend to dispatch to: explicit name > process default."""
    global _default
    if name is not None:
        return resolve_backend(name)
    if _default is None:
        _default = resolve_backend(None)
        _publish_gauge(_default.name)
    return _default


def set_backend(name: Optional[str]) -> str:
    """Set the process-wide default backend; returns the resolved name.

    ``None``/"auto" re-resolves from ``$REPRO_KERNEL`` and numba
    availability.
    """
    global _default
    _default = resolve_backend(name)
    _publish_gauge(_default.name)
    return _default.name


def active_backend() -> str:
    """Name of the backend bulk operations currently dispatch to."""
    return get_backend().name


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[KernelBackend]:
    """Temporarily switch the process default (tests, benchmarks)."""
    global _default
    previous = _default
    _default = resolve_backend(name) if name else get_backend()
    try:
        yield _default
    finally:
        _default = previous


def reset() -> None:
    """Forget the cached default so the next call re-reads the env var."""
    global _default
    _default = None
