"""A single graphical sketch: one hashed adjacency matrix.

This is the building block of TCM (paper Section 3.3 and 5.1).  A
:class:`GraphSketch` compresses the node universe through one
pairwise-independent hash function into ``rows`` buckets and stores the
aggregated edge weights between buckets in a dense ``rows x cols`` numpy
matrix -- the data structure the paper argues for over adjacency lists
because every update and point lookup is O(1).

Square sketches (``rows == cols`` under a *single* hash function) are
themselves graphs: bucket ``i`` is a super-node and the matrix is its
weighted adjacency.  All connectivity-dependent analytics (reachability,
subgraph matching, triangles) require this graphical form.

Non-square sketches (Section 5.1.2) use two hash functions, one for source
rows and one for target columns, trading the graphical property for better
collision behaviour under skewed degree distributions; with ``cols == 1``
they degenerate to a CountMin row over source labels (Section 5.1.3).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.aggregation import Aggregation
from repro.core import kernels as _kernels
from repro.hashing.family import PairwiseHash
from repro.hashing.labels import Label, label_to_int
from repro.hashing.labels import label_keys as _label_keys


def _scatter_backend(matrix: np.ndarray) -> "_kernels.KernelBackend":
    """The active kernel backend; numpy for non-float64 matrices, since
    the jitted kernels are compiled and verified for float64 only."""
    if matrix.dtype == np.float64:
        return _kernels.get_backend()
    return _kernels.get_backend("numpy")


def key_cells(sketch, source_keys: np.ndarray,
              target_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column buckets of a batch of key pairs, in label-canonical
    orientation (smaller key first) when the sketch is undirected, as
    ``_buckets`` does for one pair."""
    if not sketch.directed:
        source_keys, target_keys = (np.minimum(source_keys, target_keys),
                                    np.maximum(source_keys, target_keys))
    return (sketch._row_hash.hash_many(source_keys),
            sketch._col_hash.hash_many(target_keys))


class GraphSketch:
    """One hashed adjacency matrix over bucketed nodes.

    :param row_hash: hash for source labels (and target labels too when
        ``col_hash`` is omitted -- the square, graphical case).
    :param col_hash: optional separate hash for target labels; supplying
        one makes the sketch non-square and non-graphical.
    :param directed: undirected sketches keep the matrix symmetric by
        mirroring every update (paper Section 5.1.1).
    :param aggregation: cell aggregation strategy; ``sum`` by default.
    :param keep_labels: materialize the *extended graph sketch* (Section
        5.1.4): record, per bucket, the set of labels hashed into it.
        Costs O(|V|) extra space and enables label recovery (Algorithm 2).
    """

    def __init__(self, row_hash: PairwiseHash,
                 col_hash: Optional[PairwiseHash] = None,
                 directed: bool = True,
                 aggregation: Aggregation = Aggregation.SUM,
                 keep_labels: bool = False,
                 dtype: type = np.float64):
        self._row_hash = row_hash
        self._col_hash = col_hash if col_hash is not None else row_hash
        self._graphical = col_hash is None
        if not directed and not self._graphical:
            raise ValueError(
                "undirected sketches need a single hash function "
                "(symmetric square matrix); do not pass col_hash")
        self.directed = directed
        self.aggregation = aggregation
        self._matrix = np.zeros((row_hash.width, self._col_hash.width), dtype=dtype)
        self._epoch = 0
        self._touched: Optional[np.ndarray] = None
        if aggregation in (Aggregation.MIN, Aggregation.MAX):
            # min/max need to distinguish "empty cell" from "value 0".
            self._touched = np.zeros(self._matrix.shape, dtype=bool)
        self._row_labels: Optional[Dict[int, Set[Label]]] = {} if keep_labels else None
        self._col_labels: Optional[Dict[int, Set[Label]]] = (
            self._row_labels if (keep_labels and self._graphical)
            else ({} if keep_labels else None))

    # -- shape and introspection --------------------------------------------

    @property
    def rows(self) -> int:
        return self._matrix.shape[0]

    @property
    def cols(self) -> int:
        return self._matrix.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self._matrix.shape

    @property
    def size_in_cells(self) -> int:
        """Storage footprint in matrix cells (the paper's space unit)."""
        return self._matrix.size

    @property
    def is_graphical(self) -> bool:
        """True when the sketch is a graph (square, single hash function)."""
        return self._graphical

    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the adjacency matrix."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    @property
    def keeps_labels(self) -> bool:
        return self._row_labels is not None

    @property
    def epoch(self) -> int:
        """Monotone update counter; bumped by every mutating operation.

        Derived read-side structures (the query engine's connectivity
        indexes, cached flow vectors, ...) are keyed on this value: a
        cached structure is valid exactly while the epoch it was built at
        matches the sketch's current epoch.
        """
        return self._epoch

    def bump_epoch(self) -> None:
        """Invalidate epoch-keyed caches after an out-of-band mutation.

        The public mutators bump automatically; call this only when code
        touches the matrix directly (e.g. the decay layer's
        renormalization).
        """
        self._epoch += 1

    def memory_bytes(self) -> int:
        """Memory footprint in bytes: matrix + label materialization.

        The matrix (and the touched-mask for min/max aggregation) is
        exact via numpy's ``nbytes``; extended-sketch label storage is
        estimated at one dict slot (~64B) per occupied bucket plus ~80B
        per materialized label (set slot + small label object) -- close
        enough for capacity planning, cheap enough to call per scrape.
        Also available as :attr:`nbytes`.
        """
        total = self._matrix.nbytes
        if self._touched is not None:
            total += self._touched.nbytes
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

    def row_of(self, label: Label) -> int:
        """The row bucket of a (source) label."""
        return self._row_hash(label)

    def col_of(self, label: Label) -> int:
        """The column bucket of a (target) label."""
        return self._col_hash(label)

    def node_of(self, label: Label) -> int:
        """The super-node of a label; graphical sketches only."""
        self._require_graphical("node_of")
        return self._row_hash(label)

    def ext(self, bucket: int) -> Set[Label]:
        """Labels materialized into ``bucket`` (extended sketch, §5.1.4)."""
        if self._row_labels is None:
            raise ValueError("sketch was built without keep_labels=True")
        return set(self._row_labels.get(bucket, ()))

    # -- updates -------------------------------------------------------------

    def update(self, source: Label, target: Label, weight: float = 1.0) -> None:
        """Absorb one stream element ``(source, target; .)`` -- O(1).

        Implements strategy C2 of Section 5.1.1 for sum (and the analogous
        rules for the other aggregations).
        """
        if not 0 <= weight < np.inf:
            raise ValueError(
                f"stream weights must be finite and non-negative, got {weight}")
        r, c = self._buckets(source, target)
        self._epoch += 1
        self._apply(r, c, weight)
        if self._row_labels is not None:
            # For graphical sketches row and column label maps are the same
            # dict, so this covers undirected canonicalisation too.
            self._row_labels.setdefault(self._row_hash(source), set()).add(source)
            self._col_labels.setdefault(self._col_hash(target), set()).add(target)

    def _buckets(self, source: Label, target: Label) -> Tuple[int, int]:
        """The matrix cell an element maps to.

        Undirected sketches store each unordered edge once, under the
        *label-canonical* orientation (smaller integer key first).  This
        keeps the whole ``w x w`` matrix usable -- mirroring would double
        the matrix mass, and canonicalising by *bucket* order would waste
        the lower triangle; both cost a factor of two in collision error
        against an equal-space CountMin.
        """
        kx = label_to_int(source)
        ky = label_to_int(target)
        if not self.directed and kx > ky:
            kx, ky = ky, kx
        return self._row_hash.hash_int(kx), self._col_hash.hash_int(ky)

    def _apply(self, r: int, c: int, weight: float) -> None:
        if self.aggregation is Aggregation.SUM:
            self._matrix[r, c] += weight
        elif self.aggregation is Aggregation.COUNT:
            self._matrix[r, c] += 1
        elif self.aggregation is Aggregation.MIN:
            if not self._touched[r, c] or weight < self._matrix[r, c]:
                self._matrix[r, c] = weight
            self._touched[r, c] = True
        else:  # MAX
            if not self._touched[r, c] or weight > self._matrix[r, c]:
                self._matrix[r, c] = weight
            self._touched[r, c] = True

    def remove(self, source: Label, target: Label, weight: float = 1.0) -> None:
        """Delete one previously inserted element -- O(1) (Section 5.1.1).

        Only meaningful for invertible aggregations (sum/count); the caller
        is responsible for only deleting elements that were inserted, as in
        a sliding window.
        """
        if not self.aggregation.invertible:
            raise ValueError(
                f"{self.aggregation.value} aggregation does not support deletion")
        if not 0 <= weight < np.inf:
            # A negative deletion would be an insertion in disguise.
            raise ValueError(
                f"removal weights must be finite and non-negative, got {weight}")
        r, c = self._buckets(source, target)
        delta = weight if self.aggregation is Aggregation.SUM else 1
        self._epoch += 1
        self._matrix[r, c] -= delta

    def remove_many(self, source_keys: np.ndarray, target_keys: np.ndarray,
                    weights: np.ndarray) -> None:
        """Vectorized bulk deletion of pre-converted integer label keys.

        The expiry counterpart of :meth:`update_many` and the kernel the
        sliding-window fast path drives: one scatter (see
        :mod:`repro.core.kernels`) deletes a whole batch of previously
        inserted elements.  Deletion is bit-identical to the scalar path
        for sum (the kernel replays the batch's subtractions in stream
        order per cell) and count (each element subtracts 1); min/max
        are not invertible, so -- exactly like the scalar :meth:`remove`
        -- the call raises ``ValueError`` rather than silently
        corrupting the sketch.
        """
        if not self.aggregation.invertible:
            raise ValueError(
                f"{self.aggregation.value} aggregation does not support deletion")
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        weights = np.asarray(weights, dtype=self._matrix.dtype)
        _kernels.check_weights(weights, "removal")
        if len(source_keys) == 0:
            return
        self._epoch += 1
        rows, cols = key_cells(self, source_keys, target_keys)
        self._scatter(rows, cols,
                      weights if self.aggregation is Aggregation.SUM else None,
                      insert=False)

    def update_many(self, source_keys: np.ndarray, target_keys: np.ndarray,
                    weights: np.ndarray,
                    source_labels: Optional[Sequence[Label]] = None,
                    target_labels: Optional[Sequence[Label]] = None) -> None:
        """Vectorized bulk ingest of pre-converted integer label keys.

        Bit-identical to calling :meth:`update` once per element, for every
        aggregation: sum/count go through the active backend's
        scatter-add (see :mod:`repro.core.kernels` -- the kernel folds
        each cell's additions in stream order, so float rounding matches
        the scalar path exactly), min/max through its segment extreme
        (min/max of the same floats is one of the inputs, and ties keep
        the earliest value, as the scalar path does).

        Extended sketches (``keep_labels=True``) additionally need the
        original label objects to materialize per-bucket label sets; pass
        them via ``source_labels``/``target_labels`` (the keys alone are
        one-way).  Bookkeeping is deduplicated per distinct label per
        chunk, so repeated labels cost one set insertion instead of one
        per element.
        """
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        weights = np.asarray(weights, dtype=self._matrix.dtype)
        _kernels.check_weights(weights)
        if self._row_labels is not None and (source_labels is None
                                             or target_labels is None):
            raise ValueError(
                "this sketch materializes labels (keep_labels=True); "
                "update_many needs source_labels/target_labels too")
        if source_labels is not None and self._row_labels is not None:
            self._record_labels_bulk(source_keys, source_labels,
                                     self._row_hash, self._row_labels)
            self._record_labels_bulk(target_keys, target_labels,
                                     self._col_hash, self._col_labels)
        # key_cells canonicalizes undirected pairs only now, after the
        # label bookkeeping, which uses the original orientation.
        self._epoch += 1
        rows, cols = key_cells(self, source_keys, target_keys)
        self._scatter(rows, cols,
                      weights if self.aggregation is not Aggregation.COUNT
                      else None,
                      insert=True)

    def _scatter(self, rows: np.ndarray, cols: np.ndarray,
                 weights: Optional[np.ndarray], insert: bool = True) -> None:
        """Dispatch one pre-hashed batch to the active scatter kernel.

        ``weights is None`` means unit weights (count aggregation, or an
        unweighted sum).  Callers bump the epoch and validate; this only
        mutates the matrix.  Every kernel folds a cell's updates in
        stream order in the matrix's own dtype, so the result is
        bit-identical to the per-element :meth:`update` loop.
        """
        agg = self.aggregation
        matrix = self._matrix
        backend = _scatter_backend(matrix)
        if agg is Aggregation.SUM or agg is Aggregation.COUNT:
            values = weights if agg is Aggregation.SUM else None
            if insert:
                backend.scatter_add(matrix, rows, cols, values)
            else:
                backend.scatter_sub(matrix, rows, cols, values)
        else:
            backend.scatter_extreme(matrix, self._touched, rows, cols,
                                    weights, agg is Aggregation.MIN)

    def _apply_keys_fused(self, backend: "_kernels.KernelBackend",
                          source_keys: np.ndarray, target_keys: np.ndarray,
                          weights: Optional[np.ndarray],
                          insert: bool = True) -> None:
        """Single-pass key->hash->cell ingest on a fused backend.

        Keys must already be in canonical orientation for undirected
        sketches and validated; used by the TCM column fast path when the
        active backend compiles the whole pipeline (numba).
        """
        agg = self.aggregation
        if agg is Aggregation.SUM:
            values = (weights if weights is not None
                      else np.ones(source_keys.shape[0], dtype=np.float64))
            op = 0 if insert else 1
        elif agg is Aggregation.COUNT:
            values = np.ones(source_keys.shape[0], dtype=np.float64)
            op = 0 if insert else 1
        elif agg is Aggregation.MIN:
            values, op = weights, 2
        else:
            values, op = weights, 3
        self._epoch += 1
        backend.fused_ingest(self._matrix, self._touched, self._row_hash,
                             self._col_hash, source_keys, target_keys,
                             values, op)

    @staticmethod
    def _record_labels_bulk(keys: np.ndarray, labels: Sequence[Label],
                            hash_fn: PairwiseHash,
                            label_map: Dict[int, Set[Label]]) -> None:
        """Materialize a chunk's labels into per-bucket sets.

        Deduplicates by label object first (a chunk typically repeats hot
        labels thousands of times), then buckets the distinct survivors
        with one vectorized hash pass.
        """
        first_index: Dict[Label, int] = {}
        for i, label in enumerate(labels):
            if label not in first_index:
                first_index[label] = i
        if not first_index:
            return
        distinct = list(first_index.keys())
        buckets = hash_fn.hash_many(
            keys[np.fromiter(first_index.values(), dtype=np.intp,
                             count=len(first_index))])
        for bucket, label in zip(buckets.tolist(), distinct):
            label_map.setdefault(bucket, set()).add(label)

    def raise_cells_to(self, source_keys: np.ndarray,
                       target_keys: np.ndarray,
                       floors: np.ndarray) -> None:
        """Batched :meth:`raise_cell_to`: lift each edge's cell to its floor.

        The kernel behind chunked conservative update.  When several edges
        in the batch share a cell, the cell ends at the maximum of their
        floors -- the same fixed point per-edge raising reaches for floors
        computed against a common pre-batch state.
        """
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("conservative update requires sum aggregation")
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        rows, cols = key_cells(self, source_keys, target_keys)
        self._epoch += 1
        floors = np.asarray(floors, dtype=self._matrix.dtype)
        _scatter_backend(self._matrix).scatter_floor(self._matrix, rows,
                                                     cols, floors)

    # -- point estimates -----------------------------------------------------

    def edge_estimate(self, source: Label, target: Label) -> float:
        """Estimated aggregated weight of edge ``(source, target)``."""
        return float(self._matrix[self._buckets(source, target)])

    def edge_estimates(self, source_keys: np.ndarray,
                       target_keys: np.ndarray) -> np.ndarray:
        """Vectorized point estimates for many edges at once.

        Takes pre-converted integer label keys (see :func:`label_keys`)
        and returns one estimate per pair.  This is the batch counterpart
        of :meth:`edge_estimate` and the query-side analogue of
        :meth:`update_many`.
        """
        source_keys = np.asarray(source_keys, dtype=np.uint64)
        target_keys = np.asarray(target_keys, dtype=np.uint64)
        rows, cols = key_cells(self, source_keys, target_keys)
        return self._matrix[rows, cols].astype(np.float64)

    def out_flow(self, source: Label) -> float:
        """Estimated out-flow of a node: its row sum (Section 4.2)."""
        if not self.directed:
            raise ValueError("out_flow() is directed-only; use flow()")
        return float(self._matrix[self._row_hash(source), :].sum())

    def in_flow(self, target: Label) -> float:
        """Estimated in-flow of a node: its column sum (Section 4.2)."""
        if not self.directed:
            raise ValueError("in_flow() is directed-only; use flow()")
        return float(self._matrix[:, self._col_hash(target)].sum())

    def flow(self, node: Label) -> float:
        """Estimated undirected node flow ``f_v(a, -)``.

        With canonical single-cell storage a node's incident weight is its
        row sum plus its column sum minus the diagonal cell (which the two
        sums count twice).
        """
        if self.directed:
            raise ValueError("flow() is for undirected sketches; "
                             "use in_flow/out_flow")
        b = self._row_hash(node)
        return float(self._matrix[b, :].sum() + self._matrix[:, b].sum()
                     - self._matrix[b, b])

    # -- bulk read accessors (query-engine kernels) ---------------------------

    def row_sums(self) -> np.ndarray:
        """All row sums at once -- ``row_sums()[row_of(x)] == out_flow(x)``."""
        return self._matrix.sum(axis=1, dtype=np.float64)

    def col_sums(self) -> np.ndarray:
        """All column sums at once -- the batch counterpart of in_flow."""
        return self._matrix.sum(axis=0, dtype=np.float64)

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal (self-loop cells) as a fresh array."""
        return np.diagonal(self._matrix).astype(np.float64)

    def positive_cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """Row/column indices of every cell with positive weight.

        The backend-agnostic adjacency extraction the query engine builds
        its connectivity indexes from; undirected sketches return the
        canonical (stored) orientation only -- symmetrize downstream.
        """
        return np.nonzero(self._matrix > 0)

    # -- graph topology (graphical sketches only) ----------------------------

    def successors(self, bucket: int) -> np.ndarray:
        """Buckets with a positive-weight edge out of ``bucket``.

        Undirected sketches return all neighbours (row and column side of
        the canonical triangle).
        """
        self._require_graphical("successors")
        forward = self._matrix[bucket, :] > 0
        if self.directed:
            return np.nonzero(forward)[0]
        return np.nonzero(forward | (self._matrix[:, bucket] > 0))[0]

    def predecessors(self, bucket: int) -> np.ndarray:
        """Buckets with a positive-weight edge into ``bucket``."""
        self._require_graphical("predecessors")
        backward = self._matrix[:, bucket] > 0
        if self.directed:
            return np.nonzero(backward)[0]
        return np.nonzero(backward | (self._matrix[bucket, :] > 0))[0]

    def bucket_edge_weight(self, r: int, c: int) -> float:
        """Aggregated weight between two buckets.

        Undirected sketches store an unordered edge in whichever of the
        two cells its label-canonical orientation selects, so the
        super-edge weight between buckets ``r`` and ``c`` is the sum of
        both cells (they hold disjoint edge sets).
        """
        if self.directed or r == c:
            return float(self._matrix[r, c])
        return float(self._matrix[r, c] + self._matrix[c, r])

    def _require_graphical(self, operation: str) -> None:
        if not self._graphical:
            raise ValueError(
                f"{operation}() needs a graphical (square, single-hash) "
                "sketch; this sketch is non-square")

    def raise_cell_to(self, source: Label, target: Label,
                      floor: float) -> None:
        """Raise the element's cell to at least ``floor`` (no-op if higher).

        The primitive behind conservative update (see
        :meth:`repro.core.tcm.TCM.update_conservative`): instead of
        adding to every sketch, each cell is only lifted to the smallest
        value consistent with the new element, which provably never
        under-counts and empirically collides much less.
        """
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("conservative update requires sum aggregation")
        r, c = self._buckets(source, target)
        if self._matrix[r, c] < floor:
            self._epoch += 1
            self._matrix[r, c] = floor

    def total_mass(self) -> float:
        """Sum of all cell values (total absorbed weight for sum/count)."""
        return float(self._matrix.sum())

    # -- mergeability ---------------------------------------------------------

    def compatible_with(self, other: "GraphSketch") -> bool:
        """Whether two sketches summarize into identical bucket spaces.

        Compatible sketches were built with the *same* hash functions,
        directedness and aggregation -- e.g. the same configuration fed
        by two shards of a stream.
        """
        return (self._row_hash == other._row_hash
                and self._col_hash == other._col_hash
                and self.directed == other.directed
                and self.aggregation == other.aggregation)

    def merge_from(self, other: "GraphSketch") -> None:
        """Fold another compatible sketch into this one, in place.

        After the merge, this sketch equals the sketch of the two input
        streams concatenated -- the standard sketch mergeability property
        that makes sharded/windowed summarization possible (sum and count
        add; min/max combine cell-wise).
        """
        if not self.compatible_with(other):
            raise ValueError("cannot merge sketches built with different "
                             "hashes, direction or aggregation")
        self._epoch += 1
        if self.aggregation in (Aggregation.SUM, Aggregation.COUNT):
            self._matrix += other._matrix
        elif self.aggregation is Aggregation.MIN:
            both = self._touched & other._touched
            self._matrix = np.where(
                both, np.minimum(self._matrix, other._matrix),
                np.where(other._touched, other._matrix, self._matrix))
            self._touched |= other._touched
        else:  # MAX
            both = self._touched & other._touched
            self._matrix = np.where(
                both, np.maximum(self._matrix, other._matrix),
                np.where(other._touched, other._matrix, self._matrix))
            self._touched |= other._touched
        if self._row_labels is not None:
            if other._row_labels is None:
                raise ValueError("cannot merge a plain sketch into an "
                                 "extended one (labels would be lost)")
            for bucket, labels in other._row_labels.items():
                self._row_labels.setdefault(bucket, set()).update(labels)
            if self._col_labels is not self._row_labels:
                for bucket, labels in other._col_labels.items():
                    self._col_labels.setdefault(bucket, set()).update(labels)

    # -- maintenance ---------------------------------------------------------

    def scale_by(self, factor: float) -> None:
        """Multiply every cell by ``factor`` -- O(cells), epoch-bumping.

        The backend-agnostic primitive behind the decay layer's
        renormalization (:class:`repro.core.decay.TimeDecayedTCM`): sum
        aggregation is linear, so folding a running scale into the cells
        preserves every estimate while keeping magnitudes in the float
        sweet spot.  Only meaningful for sum aggregation.
        """
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("scale_by requires sum aggregation")
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        self._epoch += 1
        self._matrix *= factor

    def clear(self) -> None:
        """Reset the sketch to its freshly-constructed state."""
        self._epoch += 1
        self._matrix.fill(0)
        if self._touched is not None:
            self._touched.fill(False)
        if self._row_labels is not None:
            self._row_labels.clear()
            if self._col_labels is not self._row_labels:
                self._col_labels.clear()

    def __repr__(self) -> str:
        kind = "graphical" if self._graphical else "non-square"
        return (f"GraphSketch({self.rows}x{self.cols}, {kind}, "
                f"{'directed' if self.directed else 'undirected'}, "
                f"agg={self.aggregation.value})")


#: Re-exported here for backwards compatibility; the implementation (with
#: its interning cache) lives in :mod:`repro.hashing.labels`.
label_keys = _label_keys
