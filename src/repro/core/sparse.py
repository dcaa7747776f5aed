"""Sparse storage backend for graph sketches.

The paper (Section 5.1.1) weighs adjacency matrices against adjacency
hash-lists and picks the dense matrix because compressed sketches are
"relatively dense".  That holds at tight compression ratios -- but at
loose ratios (or on short streams) most of the ``w x w`` cells stay
empty, and a dense array wastes ``O(w^2)`` memory for ``O(distinct
edges)`` of information.  :class:`SparseGraphSketch` is the hash-list
variant the paper describes: a dict of occupied cells with incrementally
maintained row/column sums, so every operation keeps the same O(1)
per-update / per-point-query costs while memory tracks occupancy.

It implements the same interface as
:class:`~repro.core.graph_sketch.GraphSketch` (sum/count aggregation
only -- the dense class remains the home of min/max) and is selected via
``TCM(..., sparse=True)``.  Dense and sparse sketches with the same hash
configuration are estimate-for-estimate identical; tests enforce it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core import kernels as _kernels
from repro.core.aggregation import Aggregation
from repro.core.graph_sketch import key_cells
from repro.hashing.family import PairwiseHash
from repro.hashing.labels import Label, label_to_int


class SparseGraphSketch:
    """Dict-of-cells graph sketch with the dense class's interface."""

    def __init__(self, row_hash: PairwiseHash,
                 col_hash: Optional[PairwiseHash] = None,
                 directed: bool = True,
                 aggregation: Aggregation = Aggregation.SUM,
                 keep_labels: bool = False):
        if aggregation not in (Aggregation.SUM, Aggregation.COUNT):
            raise ValueError(
                "the sparse backend supports sum/count aggregation only")
        self._row_hash = row_hash
        self._col_hash = col_hash if col_hash is not None else row_hash
        self._graphical = col_hash is None
        if not directed and not self._graphical:
            raise ValueError(
                "undirected sketches need a single hash function "
                "(symmetric square matrix); do not pass col_hash")
        self.directed = directed
        self.aggregation = aggregation
        self._epoch = 0
        self._cells: Dict[Tuple[int, int], float] = {}
        self._row_sums: Dict[int, float] = {}
        self._col_sums: Dict[int, float] = {}
        self._row_adjacency: Dict[int, Set[int]] = {}
        self._col_adjacency: Dict[int, Set[int]] = {}
        self._row_labels: Optional[Dict[int, Set[Label]]] = {} if keep_labels else None
        self._col_labels: Optional[Dict[int, Set[Label]]] = (
            self._row_labels if (keep_labels and self._graphical)
            else ({} if keep_labels else None))

    # -- shape and introspection ------------------------------------------------

    @property
    def rows(self) -> int:
        return self._row_hash.width

    @property
    def cols(self) -> int:
        return self._col_hash.width

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def size_in_cells(self) -> int:
        """The *logical* cell budget (comparable with the dense class)."""
        return self.rows * self.cols

    @property
    def occupied_cells(self) -> int:
        """Cells actually stored -- the real memory footprint driver."""
        return len(self._cells)

    @property
    def is_graphical(self) -> bool:
        return self._graphical

    @property
    def keeps_labels(self) -> bool:
        return self._row_labels is not None

    @property
    def epoch(self) -> int:
        """Monotone update counter (see :attr:`GraphSketch.epoch`)."""
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate epoch-keyed caches after an out-of-band mutation."""
        self._epoch += 1

    def memory_bytes(self) -> int:
        """Estimated footprint: occupancy-proportional, unlike the dense
        class.  ~96B per occupied cell (tuple key + float + dict slot),
        ~56B per maintained row/column sum, ~32B per adjacency entry,
        plus the extended-sketch label estimate used by
        :meth:`GraphSketch.memory_bytes`.  Also available as
        :attr:`nbytes`.
        """
        total = 96 * len(self._cells)
        total += 56 * (len(self._row_sums) + len(self._col_sums))
        total += 32 * (sum(len(s) for s in self._row_adjacency.values())
                       + sum(len(s) for s in self._col_adjacency.values()))
        if self._row_labels is not None:
            maps = [self._row_labels]
            if self._col_labels is not self._row_labels:
                maps.append(self._col_labels)
            for label_map in maps:
                total += 64 * len(label_map)
                total += 80 * sum(len(bucket) for bucket in label_map.values())
        return total

    @property
    def nbytes(self) -> int:
        return self.memory_bytes()

    @property
    def matrix(self) -> np.ndarray:
        """Materialized dense matrix (O(w^2); for interop/serialization)."""
        dense = np.zeros(self.shape)
        for (r, c), value in self._cells.items():
            dense[r, c] = value
        dense.flags.writeable = False
        return dense

    def node_of(self, label: Label) -> int:
        self._require_graphical("node_of")
        return self._row_hash(label)

    def row_of(self, label: Label) -> int:
        return self._row_hash(label)

    def col_of(self, label: Label) -> int:
        return self._col_hash(label)

    def ext(self, bucket: int) -> Set[Label]:
        if self._row_labels is None:
            raise ValueError("sketch was built without keep_labels=True")
        return set(self._row_labels.get(bucket, ()))

    def _require_graphical(self, operation: str) -> None:
        if not self._graphical:
            raise ValueError(
                f"{operation}() needs a graphical (square, single-hash) "
                "sketch; this sketch is non-square")

    # -- updates ---------------------------------------------------------------

    def _buckets(self, source: Label, target: Label) -> Tuple[int, int]:
        kx = label_to_int(source)
        ky = label_to_int(target)
        if not self.directed and kx > ky:
            kx, ky = ky, kx
        return self._row_hash.hash_int(kx), self._col_hash.hash_int(ky)

    def _apply(self, r: int, c: int, delta: float) -> None:
        self._cells[(r, c)] = self._cells.get((r, c), 0.0) + delta
        self._row_sums[r] = self._row_sums.get(r, 0.0) + delta
        self._col_sums[c] = self._col_sums.get(c, 0.0) + delta
        self._row_adjacency.setdefault(r, set()).add(c)
        self._col_adjacency.setdefault(c, set()).add(r)

    def update(self, source: Label, target: Label, weight: float = 1.0) -> None:
        if not 0 <= weight < np.inf:
            raise ValueError(
                f"stream weights must be finite and non-negative, got {weight}")
        r, c = self._buckets(source, target)
        self._epoch += 1
        self._apply(r, c, weight if self.aggregation is Aggregation.SUM else 1.0)
        if self._row_labels is not None:
            self._row_labels.setdefault(self._row_hash(source), set()).add(source)
            self._col_labels.setdefault(self._col_hash(target), set()).add(target)

    def remove(self, source: Label, target: Label, weight: float = 1.0) -> None:
        if not self.aggregation.invertible:
            raise ValueError(
                f"{self.aggregation.value} aggregation does not support deletion")
        if not 0 <= weight < np.inf:
            raise ValueError(
                f"removal weights must be finite and non-negative, got {weight}")
        r, c = self._buckets(source, target)
        self._epoch += 1
        self._apply(r, c, -(weight if self.aggregation is Aggregation.SUM
                            else 1.0))

    def remove_many(self, source_keys: np.ndarray, target_keys: np.ndarray,
                    weights: np.ndarray) -> None:
        """Bulk deletion: vectorized hashing, grouped dict decrements.

        Mirrors :meth:`update_many`'s layout -- hash the whole batch,
        group by distinct cell, touch the dict once per distinct cell
        with the (negated) per-cell weight sum.  Exact for the integer
        and dyadic weights real streams carry, same as bulk insertion.
        """
        if not self.aggregation.invertible:
            raise ValueError(
                f"{self.aggregation.value} aggregation does not support deletion")
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        weights = np.asarray(weights, dtype=float)
        _kernels.check_weights(weights, "removal")
        rows, cols = key_cells(self, source_keys, target_keys)
        if len(rows) == 0:
            return
        self._epoch += 1
        self._scatter(rows, cols,
                      weights if self.aggregation is Aggregation.SUM else None,
                      insert=False)

    def update_many(self, source_keys: np.ndarray, target_keys: np.ndarray,
                    weights: np.ndarray,
                    source_labels: Optional[Sequence[Label]] = None,
                    target_labels: Optional[Sequence[Label]] = None) -> None:
        """Bulk ingest: vectorized hashing, grouped dict accumulation.

        Hashing and per-cell weight accumulation are vectorized; the dict
        is then touched once per *distinct* cell in the chunk instead of
        once per element, which is what makes the sparse backend's bulk
        path scale with occupancy rather than stream length.  Cell sums
        are accumulated per cell in stream order before the single dict
        add, so results match the scalar path exactly for the integer and
        dyadic weights real streams carry (arbitrary floats can differ in
        the last ulp because float addition is not associative).

        Extended sketches need ``source_labels``/``target_labels`` for the
        per-bucket label sets, exactly as in
        :meth:`GraphSketch.update_many`.
        """
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        weights = np.asarray(weights, dtype=float)
        _kernels.check_weights(weights)
        if self._row_labels is not None and (source_labels is None
                                             or target_labels is None):
            raise ValueError(
                "this sketch materializes labels (keep_labels=True); "
                "update_many needs source_labels/target_labels too")
        if source_labels is not None and self._row_labels is not None:
            from repro.core.graph_sketch import GraphSketch
            GraphSketch._record_labels_bulk(source_keys, source_labels,
                                            self._row_hash, self._row_labels)
            GraphSketch._record_labels_bulk(target_keys, target_labels,
                                            self._col_hash, self._col_labels)
        rows, cols = key_cells(self, source_keys, target_keys)
        if len(rows) == 0:
            return
        self._epoch += 1
        self._scatter(rows, cols,
                      weights if self.aggregation is Aggregation.SUM else None,
                      insert=True)

    def _scatter(self, rows: np.ndarray, cols: np.ndarray,
                 values: Optional[np.ndarray], insert: bool = True) -> None:
        """Grouped dict scatter of one pre-hashed batch.

        The sparse counterpart of :meth:`GraphSketch._scatter`: the
        backend's segment-sum kernel accumulates per-cell totals in
        stream order, then the dict is touched once per distinct cell.
        ``values is None`` means unit weights (count aggregation).
        Callers bump the epoch and validate.
        """
        if values is None:
            values = np.ones(len(rows))
        cells, sums = _kernels.get_backend().segment_cell_sums(
            rows, cols, self.cols, values)
        width = self.cols
        if not insert:
            sums = -sums
        for cell, total in zip(cells.tolist(), sums.tolist()):
            self._apply(cell // width, cell % width, total)

    def raise_cell_to(self, source: Label, target: Label,
                      floor: float) -> None:
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("conservative update requires sum aggregation")
        r, c = self._buckets(source, target)
        current = self._cells.get((r, c), 0.0)
        if current < floor:
            self._epoch += 1
            self._apply(r, c, floor - current)

    def raise_cells_to(self, source_keys: np.ndarray,
                       target_keys: np.ndarray,
                       floors: np.ndarray) -> None:
        """Batched :meth:`raise_cell_to` (see the dense counterpart).

        Raising a cell repeatedly is idempotent up to the maximum floor,
        so the sequential dict walk here reaches the same fixed point as
        the dense kernel's ``np.maximum.at``.
        """
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("conservative update requires sum aggregation")
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        rows, cols = key_cells(self, source_keys, target_keys)
        self._epoch += 1
        cells = self._cells
        for r, c, floor in zip(rows.tolist(), cols.tolist(),
                               np.asarray(floors, dtype=float).tolist()):
            current = cells.get((r, c), 0.0)
            if current < floor:
                self._apply(r, c, floor - current)

    # -- point estimates ---------------------------------------------------------

    def edge_estimate(self, source: Label, target: Label) -> float:
        return self._cells.get(self._buckets(source, target), 0.0)

    def edge_estimates(self, source_keys: np.ndarray,
                       target_keys: np.ndarray) -> np.ndarray:
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        rows, cols = key_cells(self, source_keys, target_keys)
        return np.array([self._cells.get((r, c), 0.0)
                         for r, c in zip(rows.tolist(), cols.tolist())])

    def out_flow(self, source: Label) -> float:
        if not self.directed:
            raise ValueError("out_flow() is directed-only; use flow()")
        return self._row_sums.get(self._row_hash(source), 0.0)

    def in_flow(self, target: Label) -> float:
        if not self.directed:
            raise ValueError("in_flow() is directed-only; use flow()")
        return self._col_sums.get(self._col_hash(target), 0.0)

    def flow(self, node: Label) -> float:
        if self.directed:
            raise ValueError("flow() is for undirected sketches; "
                             "use in_flow/out_flow")
        b = self._row_hash(node)
        return (self._row_sums.get(b, 0.0) + self._col_sums.get(b, 0.0)
                - self._cells.get((b, b), 0.0))

    def total_mass(self) -> float:
        return sum(self._row_sums.values())

    # -- bulk read accessors (query-engine kernels) -----------------------------

    def row_sums(self) -> np.ndarray:
        """All row sums as a dense vector, built from the maintained dict.

        O(occupied rows), unlike :attr:`matrix` which densifies O(w^2).
        """
        sums = np.zeros(self.rows, dtype=np.float64)
        for bucket, value in self._row_sums.items():
            sums[bucket] = value
        return sums

    def col_sums(self) -> np.ndarray:
        """All column sums as a dense vector (see :meth:`row_sums`)."""
        sums = np.zeros(self.cols, dtype=np.float64)
        for bucket, value in self._col_sums.items():
            sums[bucket] = value
        return sums

    def diagonal(self) -> np.ndarray:
        """Self-loop cells as a dense vector."""
        diag = np.zeros(min(self.rows, self.cols), dtype=np.float64)
        for (r, c), value in self._cells.items():
            if r == c:
                diag[r] = value
        return diag

    def positive_cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row/column indices of every stored cell with positive weight."""
        rows = []
        cols = []
        for (r, c), value in self._cells.items():
            if value > 0:
                rows.append(r)
                cols.append(c)
        return (np.asarray(rows, dtype=np.int64),
                np.asarray(cols, dtype=np.int64))

    # -- graph topology -------------------------------------------------------------

    def successors(self, bucket: int) -> np.ndarray:
        self._require_graphical("successors")
        forward = {c for c in self._row_adjacency.get(bucket, ())
                   if self._cells.get((bucket, c), 0.0) > 0}
        if not self.directed:
            forward |= {r for r in self._col_adjacency.get(bucket, ())
                        if self._cells.get((r, bucket), 0.0) > 0}
        return np.array(sorted(forward), dtype=np.int64)

    def predecessors(self, bucket: int) -> np.ndarray:
        self._require_graphical("predecessors")
        backward = {r for r in self._col_adjacency.get(bucket, ())
                    if self._cells.get((r, bucket), 0.0) > 0}
        if not self.directed:
            backward |= {c for c in self._row_adjacency.get(bucket, ())
                         if self._cells.get((bucket, c), 0.0) > 0}
        return np.array(sorted(backward), dtype=np.int64)

    def bucket_edge_weight(self, r: int, c: int) -> float:
        if self.directed or r == c:
            return self._cells.get((r, c), 0.0)
        return (self._cells.get((r, c), 0.0)
                + self._cells.get((c, r), 0.0))

    # -- mergeability / maintenance ----------------------------------------------------

    def compatible_with(self, other) -> bool:
        return (self._row_hash == other._row_hash
                and self._col_hash == other._col_hash
                and self.directed == other.directed
                and self.aggregation == other.aggregation)

    def merge_from(self, other: "SparseGraphSketch") -> None:
        if not self.compatible_with(other):
            raise ValueError("cannot merge sketches built with different "
                             "hashes, direction or aggregation")
        self._epoch += 1
        for (r, c), value in other._cells.items():
            self._apply(r, c, value)
        if self._row_labels is not None:
            if other._row_labels is None:
                raise ValueError("cannot merge a plain sketch into an "
                                 "extended one (labels would be lost)")
            for bucket, labels in other._row_labels.items():
                self._row_labels.setdefault(bucket, set()).update(labels)
            if self._col_labels is not self._row_labels:
                for bucket, labels in other._col_labels.items():
                    self._col_labels.setdefault(bucket, set()).update(labels)

    def scale_by(self, factor: float) -> None:
        """Multiply every stored cell (and maintained sums) by ``factor``.

        O(occupied cells); see :meth:`GraphSketch.scale_by` -- this is
        what lets :class:`repro.core.decay.TimeDecayedTCM` renormalize a
        sparse-backed summary.
        """
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("scale_by requires sum aggregation")
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        self._epoch += 1
        for cell in self._cells:
            self._cells[cell] *= factor
        for bucket in self._row_sums:
            self._row_sums[bucket] *= factor
        for bucket in self._col_sums:
            self._col_sums[bucket] *= factor

    def clear(self) -> None:
        self._epoch += 1
        self._cells.clear()
        self._row_sums.clear()
        self._col_sums.clear()
        self._row_adjacency.clear()
        self._col_adjacency.clear()
        if self._row_labels is not None:
            self._row_labels.clear()
            if self._col_labels is not self._row_labels:
                self._col_labels.clear()

    def __repr__(self) -> str:
        kind = "graphical" if self._graphical else "non-square"
        return (f"SparseGraphSketch({self.rows}x{self.cols}, {kind}, "
                f"{'directed' if self.directed else 'undirected'}, "
                f"agg={self.aggregation.value}, "
                f"occupied={self.occupied_cells})")
