"""TCM: an ensemble of d graphical sketches with merged estimates.

Paper Section 3.3: a TCM is ``{S1(V1, E1), ..., Sd(Vd, Ed)}`` built with
``d`` pairwise-independent hash functions.  Any analytics method ``M``
runs per sketch and the results merge:

    M(G) ~ phi( M(S1), ..., M(Sd) )

where ``phi`` is ``min`` for weight estimates (sum aggregation
over-approximates) and boolean conjunction for reachability-style
predicates.  This module implements the summary itself plus every query
from Section 4; the streaming monitors (Algorithms 1 and 2) live in
:mod:`repro.core.heavy_hitters` and :mod:`repro.core.triangles`.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analytics.pagerank import pagerank as _pagerank
from repro.analytics.reachability import reach as _reach
from repro.analytics.subgraph import subgraph_weight as _subgraph_weight
from repro.analytics.triangles import count_triangles as _count_triangles
from repro.analytics.views import SketchView
from repro.core import kernels as _kernels
from repro.core.aggregation import Aggregation
from repro.core.graph_sketch import GraphSketch
from repro.core.queries import SubgraphQuery, is_wildcard
from repro.core.query_engine import QueryEngine
from repro.hashing.family import HashFamily
from repro.hashing.family import hash_many_bulk as _hash_bulk
from repro.hashing.labels import Label, label_keys
from repro.obs.instruments import OBS

#: Default ingest batch size.  Big enough to amortize numpy/hashing call
#: overheads (they flatten out around ~16k elements), small enough that a
#: chunk of label lists + three key/weight arrays stays a few MB.
DEFAULT_CHUNK_SIZE = 65536


def _timed_query(kind: str):
    """Record the wrapped query's latency under ``tcm_query_seconds{kind}``.

    Disabled observability short-circuits to the bare call after a single
    attribute check, so un-instrumented workloads pay only the wrapper
    frame.
    """
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not OBS.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                OBS.query_seconds.labels(kind).observe(
                    time.perf_counter() - start)
        return wrapper
    return decorate


class TCM:
    """The TCM graph-stream summary.

    :param d: number of constituent sketches (hash functions).
    :param width: bucket count per side for square sketches.  Ignored when
        ``shapes`` is given.
    :param shapes: explicit per-sketch matrix shapes ``(rows, cols)``;
        square entries become graphical single-hash sketches, non-square
        entries use two hash functions (Section 5.1.2).
    :param seed: seeds the hash family; equal seeds give identical sketches.
    :param directed: whether the summarized stream is directed.
    :param aggregation: cell aggregation (default sum, Section 3.3).
    :param keep_labels: build *extended* sketches that materialize node
        labels per bucket (Section 5.1.4; needed by Algorithm 2).

    >>> tcm = TCM(d=4, width=64, seed=7)
    >>> tcm.update("a", "b", 3.0)
    >>> tcm.edge_weight("a", "b")
    3.0
    """

    def __init__(self, d: int = 4, width: int = 256, *,
                 shapes: Optional[Sequence[Tuple[int, int]]] = None,
                 seed: Optional[int] = 0,
                 directed: bool = True,
                 aggregation: Aggregation = Aggregation.SUM,
                 keep_labels: bool = False,
                 sparse: bool = False):
        if shapes is None:
            if d < 1:
                raise ValueError(f"d must be >= 1, got {d}")
            if width < 1:
                raise ValueError(f"width must be >= 1, got {width}")
            shapes = [(width, width)] * d
        if not shapes:
            raise ValueError("shapes must be non-empty")
        self.directed = directed
        self.aggregation = aggregation

        # One hash per square sketch, two per non-square sketch.
        widths: List[int] = []
        for rows, cols in shapes:
            if rows < 1 or cols < 1:
                raise ValueError(f"invalid sketch shape ({rows}, {cols})")
            if rows == cols:
                widths.append(rows)
            else:
                widths.extend((rows, cols))
        family = HashFamily(widths, seed=seed)

        if sparse:
            # The dict-backed backend (paper §5.1.1's adjacency hash-list
            # alternative); memory tracks occupancy instead of w^2.
            from repro.core.sparse import SparseGraphSketch
            sketch_class = SparseGraphSketch
        else:
            sketch_class = GraphSketch

        self._sketches: List[GraphSketch] = []
        cursor = 0
        for rows, cols in shapes:
            if rows == cols:
                sketch = sketch_class(family[cursor], directed=directed,
                                      aggregation=aggregation,
                                      keep_labels=keep_labels)
                cursor += 1
            else:
                if not directed:
                    raise ValueError(
                        "non-square shapes are only valid for directed "
                        "streams (undirected matrices must be symmetric)")
                sketch = sketch_class(family[cursor], family[cursor + 1],
                                      directed=directed,
                                      aggregation=aggregation,
                                      keep_labels=keep_labels)
                cursor += 2
            self._sketches.append(sketch)

        # Plain ensembles take the shared-hash column fast path
        # (validate/canonicalize/dedup once per chunk instead of per
        # sketch); extended sketches need per-sketch label bookkeeping,
        # so they keep the per-sketch update_many route.  The fused
        # (single-pass key->cell) kernel additionally requires dense
        # float64 matrices.
        self._column_fast_path = not keep_labels
        self._fused_eligible = not keep_labels and not sparse

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_space(cls, total_cells: int, d: int, **kwargs) -> "TCM":
        """Square TCM where *each* sketch gets ``total_cells`` cells.

        This mirrors the paper's experimental setup (Section 6.2 Exp-1(a)):
        a compression ratio of ``c`` on a stream of ``|E|`` elements gives
        each matrix ``|E| * c`` cells, i.e. width ``sqrt(|E| * c)``.
        """
        width = max(1, int(math.isqrt(total_cells)))
        return cls(d=d, width=width, **kwargs)

    @classmethod
    def with_varied_shapes(cls, total_cells: int, d: int, **kwargs) -> "TCM":
        """Non-square ensemble: ``n x n, 2n x n/2, n/2 x 2n, 4n x n/4, ...``

        The heuristic of Section 5.1.2: vary aspect ratios across sketches
        so skewed degree distributions collide differently in each.
        """
        n = max(2, int(math.isqrt(total_cells)))
        # Cap the aspect ratio so no dimension collapses below n/8: a
        # handful of rows would put most stream mass in the same row and
        # defeat the point of varying shapes on small sketches.
        max_factor = max(1, min(8, n // 8))
        shapes: List[Tuple[int, int]] = []
        for i in range(d):
            if i == 0:
                shapes.append((n, n))
            else:
                factor = min(2 ** ((i + 1) // 2), max_factor)
                if factor <= 1:
                    shapes.append((n, n))
                elif i % 2 == 1:
                    shapes.append((n * factor, max(1, n // factor)))
                else:
                    shapes.append((max(1, n // factor), n * factor))
        return cls(shapes=shapes, **kwargs)

    @classmethod
    def from_stream(cls, stream: Iterable, d: int = 4, width: int = 256,
                    **kwargs) -> "TCM":
        """Build a TCM and ingest an entire stream in one pass."""
        directed = getattr(stream, "directed", kwargs.pop("directed", True))
        tcm = cls(d=d, width=width, directed=directed, **kwargs)
        tcm.ingest(stream)
        return tcm

    # -- structure ------------------------------------------------------------

    @property
    def d(self) -> int:
        """Number of constituent sketches."""
        return len(self._sketches)

    @property
    def sketches(self) -> Tuple[GraphSketch, ...]:
        return tuple(self._sketches)

    @property
    def size_in_cells(self) -> int:
        """Total storage in matrix cells across all sketches."""
        return sum(s.size_in_cells for s in self._sketches)

    def memory_bytes(self) -> int:
        """Total memory footprint in bytes across all sketches.

        Sums each sketch's matrix storage plus its label-materialization
        storage (extended sketches); see
        :meth:`GraphSketch.memory_bytes`.  Once the lazy
        :attr:`query_engine` has been exercised, its epoch-cached index
        structures (connectivity closures, flow vectors, distance rows --
        :meth:`QueryEngine.cache_bytes`) are counted too, so this
        accessor and process RSS telemetry agree about what the summary
        actually holds.  A TCM that has never been queried reports
        exactly its matrix bytes.  Also available as :attr:`nbytes` to
        mirror numpy.
        """
        total = sum(s.memory_bytes() for s in self._sketches)
        return total + self.query_engine_cache_bytes()

    def query_engine_cache_bytes(self) -> int:
        """Bytes held by the lazy query engine's caches (0 before first use)."""
        engine = getattr(self, "_query_engine", None)
        return engine.cache_bytes() if engine is not None else 0

    def shadow_truth(self, *, sample_size: int = 256, seed: int = 0):
        """A matched shadow-truth comparator for accuracy telemetry.

        Returns a :class:`~repro.obs.accuracy.ShadowTruthComparator` with
        this summary's aggregation and directedness; feed it the same
        stream and compare via
        :class:`~repro.obs.accuracy.AccuracyTracker`.
        """
        from repro.obs.accuracy import shadow_truth_for
        return shadow_truth_for(self, sample_size=sample_size, seed=seed)

    @property
    def nbytes(self) -> int:
        return self.memory_bytes()

    @property
    def is_graphical(self) -> bool:
        """True when every sketch is a graph (square, single hash)."""
        return all(s.is_graphical for s in self._sketches)

    def views(self) -> List[SketchView]:
        """Per-sketch graph views for running black-box algorithms."""
        self._require_graphical("views")
        return [SketchView(s) for s in self._sketches]

    @property
    def query_engine(self) -> QueryEngine:
        """The batched, epoch-cached query engine over this ensemble.

        Created lazily (so deserialized and pickled TCMs get one on first
        use) and shared by every query method; see
        :mod:`repro.core.query_engine` for the caching model and
        :meth:`QueryEngine.cache_stats` for hit/miss introspection.
        """
        engine = getattr(self, "_query_engine", None)
        if engine is None:
            engine = QueryEngine(self)
            self._query_engine = engine
        return engine

    def _require_graphical(self, operation: str) -> None:
        if not self.is_graphical:
            raise ValueError(
                f"{operation} needs graphical sketches; this TCM contains "
                "non-square matrices (edge/flow estimates only)")

    # -- maintenance ------------------------------------------------------------

    def update(self, source: Label, target: Label, weight: float = 1.0) -> None:
        """Absorb one stream element into every sketch -- O(d)."""
        for sketch in self._sketches:
            sketch.update(source, target, weight)
        if OBS.enabled:
            # Direct slot bumps: this is the hottest line in the library
            # and Counter.inc()'s validation costs more than the add
            # itself (see BENCH_obs_overhead.json for the budget).
            OBS.tcm_updates._value += 1.0
            OBS.tcm_update_weight._value += weight

    def remove(self, source: Label, target: Label, weight: float = 1.0) -> None:
        """Delete one previously inserted element from every sketch.

        Deletion inverts insertion only for the linear aggregations
        (sum/count); min/max raise ``ValueError`` *before* any sketch is
        touched, so a bad call can never leave the ensemble
        half-mutated.
        """
        if not self.aggregation.invertible:
            raise ValueError(
                f"{self.aggregation.value} aggregation does not support "
                "deletion")
        for sketch in self._sketches:
            sketch.remove(source, target, weight)
        if OBS.enabled:
            OBS.tcm_removes.inc()

    def remove_many(self, sources: Sequence[Label],
                    targets: Sequence[Label],
                    weights: Optional[np.ndarray] = None) -> int:
        """Vectorized bulk deletion: the expiry mirror of :meth:`ingest_columns`.

        Accepts parallel label sequences -- or, on the window fast path,
        pre-hashed ``uint64`` key arrays (the columnar ring buffer stores
        keys, so expiry skips label conversion entirely) -- and applies
        one :meth:`GraphSketch.remove_many` scatter per sketch.
        ``weights`` defaults to all-ones.  Exactly equivalent to calling
        :meth:`remove` once per element; raises ``ValueError`` for
        non-invertible aggregations before touching any sketch.  Returns
        the number of elements deleted.
        """
        if not self.aggregation.invertible:
            raise ValueError(
                f"{self.aggregation.value} aggregation does not support "
                "deletion")
        n = len(sources)
        if len(targets) != n:
            raise ValueError(f"got {n} sources but {len(targets)} targets")
        if n == 0:
            return 0
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if len(weights) != n:
                raise ValueError(f"got {n} sources but {len(weights)} weights")
        source_keys = self._deletion_keys(sources)
        target_keys = self._deletion_keys(targets)
        if getattr(self, "_column_fast_path", False):
            self._apply_key_columns(source_keys, target_keys, weights,
                                    insert=False)
        else:
            if weights is None:
                weights = np.ones(n)
            for sketch in self._sketches:
                sketch.remove_many(source_keys, target_keys, weights)
        if OBS.enabled:
            OBS.tcm_removes.inc(n)
        return n

    @staticmethod
    def _deletion_keys(values) -> np.ndarray:
        """Label sequence or pre-hashed key array -> uint64 key array."""
        if isinstance(values, np.ndarray) and values.dtype == np.uint64:
            return values
        return label_keys(values)

    def update_conservative(self, source: Label, target: Label,
                            weight: float = 1.0) -> None:
        """Conservative update (Estan & Varghese): raise, don't add.

        The current merged estimate plus the new weight is the smallest
        value any cell must reach to keep the no-undercount guarantee, so
        every sketch's cell is only lifted to that floor instead of
        incremented.  Estimates remain over-approximations but grow far
        slower under collisions (see the ablation bench).

        Trade-offs: requires sum aggregation; the resulting summary is
        **not** linear -- deletions, merging and sliding windows no longer
        apply.  Use for insert-only workloads where accuracy matters most.
        """
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("conservative update requires sum aggregation")
        if not 0 <= weight < math.inf:
            raise ValueError(
                f"weights must be finite and non-negative, got {weight}")
        floor = self.edge_weight(source, target) + weight
        for sketch in self._sketches:
            sketch.raise_cell_to(source, target, floor)

    def ingest_conservative(self, stream: Iterable, *,
                            chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
        """One-pass bulk construction using conservative updates.

        Consumes the stream lazily in ``chunk_size`` batches (constant
        memory) and applies one batched conservative raise per chunk:
        the chunk is grouped by distinct (canonical) edge, each group's
        weights are summed, floors are computed as ``current ensemble
        estimate + chunk sum`` against the pre-chunk state, and every
        sketch's cells are lifted to the max floor landing on them.

        **Equivalence.**  For a repeated edge the per-element floors
        telescope -- raising every sketch's cell to ``f`` makes the
        ensemble estimate exactly ``max(f, old estimate)``, so ``k``
        consecutive updates of one edge raise it to ``estimate + w_1 +
        ... + w_k`` -- which is precisely the batched floor.  Hence the
        batched result is *identical* to per-element
        :meth:`update_conservative` whenever no two distinct edges of a
        chunk collide in a cell of any sketch (always true for
        ``chunk_size=1``).  Under within-chunk collisions the batched
        floors are computed against the pre-chunk state instead of the
        partially-raised one, so batched cells are *at most* the
        per-element cells -- estimates stay one-sided (never undercount,
        the tests assert both invariants) and collide strictly less.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if self.aggregation is not Aggregation.SUM:
            raise ValueError("conservative update requires sum aggregation")
        start = time.perf_counter() if OBS.enabled else 0.0
        count = 0
        iterator = iter(stream)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            count += len(chunk)
            source_keys = label_keys([e.source for e in chunk])
            target_keys = label_keys([e.target for e in chunk])
            weights = np.array([e.weight for e in chunk])
            _kernels.check_weights(weights)
            if not self.directed:
                source_keys, target_keys = (
                    np.minimum(source_keys, target_keys),
                    np.maximum(source_keys, target_keys))
            pairs = np.column_stack((source_keys, target_keys))
            distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
            sums = np.bincount(inverse.ravel(), weights=weights,
                               minlength=len(distinct))
            estimates = np.stack(
                [s.edge_estimates(distinct[:, 0], distinct[:, 1])
                 for s in self._sketches]).min(axis=0)
            floors = estimates + sums
            for sketch in self._sketches:
                sketch.raise_cells_to(distinct[:, 0], distinct[:, 1], floors)
            if OBS.enabled:
                OBS.tcm_ingest_chunks.inc()
        if OBS.enabled:
            OBS.tcm_ingest_elements.inc(count)
            OBS.tcm_ingest_seconds.observe(time.perf_counter() - start)
        return count

    def ingest(self, stream: Iterable, *,
               chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
        """One-pass bulk construction from a stream of elements.

        Consumes the stream lazily in fixed-size chunks -- a generator
        stream is never materialized, so peak memory is bounded by
        ``chunk_size`` regardless of stream length -- and routes every
        chunk through the vectorized kernels
        (:meth:`GraphSketch.update_many`), which cover all aggregations,
        both backends, and extended (``keep_labels``) sketches.  Results
        are bit-identical to per-element :meth:`update` (see
        docs/PERFORMANCE.md for the engine's layout and measured rates).
        Returns the number of elements ingested.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        start = time.perf_counter() if OBS.enabled else 0.0
        count = 0
        iterator = iter(stream)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            count += self.ingest_chunk(chunk)
        if OBS.enabled:
            OBS.tcm_ingest_seconds.observe(time.perf_counter() - start)
        return count

    def ingest_chunk(self, edges: Sequence) -> int:
        """Absorb one batch of stream elements through the vectorized path.

        The per-chunk kernel behind :meth:`ingest`; also usable directly
        by replay/batching layers (see
        :meth:`repro.streams.replay.MonitoringHub.replay_chunked`).
        """
        if not edges:
            return 0
        return self.ingest_columns([e.source for e in edges],
                                   [e.target for e in edges],
                                   np.array([e.weight for e in edges]))

    def ingest_columns(self, sources: Sequence[Label],
                       targets: Sequence[Label],
                       weights: Optional[np.ndarray] = None) -> int:
        """Columnar chunk ingest: parallel label/weight sequences.

        The zero-copy entry point for columnar sources (parallel workers
        ship chunks as three flat lists; benchmarks feed numpy slices).
        ``weights`` defaults to all-ones.
        """
        n = len(sources)
        if len(targets) != n:
            raise ValueError(
                f"got {n} sources but {len(targets)} targets")
        if n == 0:
            return 0
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if len(weights) != n:
                raise ValueError(
                    f"got {n} sources but {len(weights)} weights")
        source_keys = label_keys(sources)
        target_keys = label_keys(targets)
        if getattr(self, "_column_fast_path", False):
            self._apply_key_columns(source_keys, target_keys, weights,
                                    insert=True)
        else:
            if weights is None:
                weights = np.ones(n)
            for sketch in self._sketches:
                if sketch.keeps_labels:
                    sketch.update_many(source_keys, target_keys, weights,
                                       source_labels=sources,
                                       target_labels=targets)
                else:
                    sketch.update_many(source_keys, target_keys, weights)
        if OBS.enabled:
            OBS.tcm_ingest_chunks.inc()
            OBS.tcm_ingest_elements.inc(n)
        return n

    def ingest_keys(self, source_keys: np.ndarray,
                    target_keys: np.ndarray,
                    weights: Optional[np.ndarray] = None) -> int:
        """Pre-hashed columnar ingest: the service-layer batch entry point.

        Absorbs one batch given as parallel ``uint64`` key arrays (the
        output of :func:`repro.hashing.labels.label_keys`) plus optional
        ``float64`` weights, skipping label conversion entirely -- the
        micro-batching coalescer in :mod:`repro.server` hashes labels
        once at request-parse time, stages raw keys, and flushes whole
        batches through this method.  Bit-identical to
        :meth:`ingest_columns` over the same labels: ``label_keys`` is
        deterministic, so staging keys instead of labels changes nothing
        downstream.  Requires a plain (non-extended) ensemble; extended
        (``keep_labels=True``) sketches need the original labels and
        must use :meth:`ingest_columns`.  Returns the batch size.
        """
        source_keys = np.asarray(source_keys)
        target_keys = np.asarray(target_keys)
        if source_keys.dtype != np.uint64 or target_keys.dtype != np.uint64:
            if (source_keys.dtype.kind not in "iu"
                    or target_keys.dtype.kind not in "iu"):
                raise TypeError(
                    "ingest_keys takes pre-hashed integer key arrays; "
                    "for label sequences use ingest_columns")
            source_keys = source_keys.astype(np.uint64)
            target_keys = target_keys.astype(np.uint64)
        n = source_keys.shape[0]
        if target_keys.shape[0] != n:
            raise ValueError(
                f"got {n} source keys but {target_keys.shape[0]} targets")
        if n == 0:
            return 0
        if not getattr(self, "_column_fast_path", True):
            raise ValueError(
                "extended (keep_labels) ensembles materialize labels per "
                "bucket and cannot ingest pre-hashed keys; use "
                "ingest_columns with the original labels")
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != n:
                raise ValueError(
                    f"got {n} source keys but {weights.shape[0]} weights")
        self._apply_key_columns(source_keys, target_keys, weights,
                                insert=True)
        if OBS.enabled:
            OBS.tcm_ingest_chunks.inc()
            OBS.tcm_ingest_elements.inc(n)
        return n

    def _apply_key_columns(self, source_keys: np.ndarray,
                           target_keys: np.ndarray,
                           weights: Optional[np.ndarray],
                           insert: bool = True) -> None:
        """Shared-hash scatter of one pre-converted key-column chunk.

        The hot core of :meth:`ingest_columns`/:meth:`remove_many` for
        plain (non-extended) ensembles.  Hoists everything
        ``update_many`` would repeat per sketch -- weight validation,
        undirected canonicalization, and (via per-chunk key dedup) most
        of the hashing -- so each additional sketch costs one gather
        plus one scatter.  On a fused backend (numba) the whole
        key->hash->cell pipeline runs as a single compiled pass per
        sketch instead.  Bit-identical to the per-sketch route: the
        hash values are the same by construction and the scatters are
        the same kernels.

        ``weights is None`` means unit weights.  Callers have already
        checked the aggregation is invertible when ``insert=False``.
        """
        if weights is not None:
            _kernels.check_weights(weights, "stream" if insert else "removal")
        if not self.directed:
            source_keys, target_keys = (np.minimum(source_keys, target_keys),
                                        np.maximum(source_keys, target_keys))
        values = (weights if self.aggregation is not Aggregation.COUNT
                  else None)
        backend = _kernels.get_backend()
        if backend.fused and getattr(self, "_fused_eligible", False):
            for sketch in self._sketches:
                sketch._apply_keys_fused(backend, source_keys, target_keys,
                                         values, insert=insert)
            return
        if (self.aggregation in (Aggregation.MIN, Aggregation.MAX)
                and values is None):
            values = np.ones(source_keys.shape[0], dtype=np.float64)
        # Hash only the distinct keys of the chunk, once per sketch side,
        # and gather back -- streams repeat hot endpoints constantly, and
        # with d sketches every duplicate would otherwise be hashed d
        # times.
        if self.d > 1:
            unique_sources, source_inverse = _kernels.dedup_keys(source_keys)
            unique_targets, target_inverse = _kernels.dedup_keys(target_keys)
        else:
            unique_sources = unique_targets = None
            source_inverse = target_inverse = None
        # One broadcast pass hashes every sketch's row (resp. column)
        # function together -- bit-identical to per-sketch hash_many,
        # but numpy dispatch overhead is paid once per side, not per
        # sketch (see hash_many_bulk).
        all_rows = _hash_bulk(
            [s._row_hash for s in self._sketches],
            unique_sources if unique_sources is not None else source_keys)
        all_cols = _hash_bulk(
            [s._col_hash for s in self._sketches],
            unique_targets if unique_targets is not None else target_keys)
        for i, sketch in enumerate(self._sketches):
            rows = (all_rows[i][source_inverse]
                    if source_inverse is not None else all_rows[i])
            cols = (all_cols[i][target_inverse]
                    if target_inverse is not None else all_cols[i])
            sketch._epoch += 1
            sketch._scatter(rows, cols, values, insert=insert)

    def clear(self) -> None:
        for sketch in self._sketches:
            sketch.clear()

    def merge_from(self, other: "TCM") -> None:
        """Fold another TCM built with the same configuration into this one.

        Mergeability (per constituent sketch) lets shards of a stream be
        summarized independently -- on different machines or over different
        time windows -- and combined into the summary of the whole stream.
        Both TCMs must come from the same ``seed``/shape configuration.
        """
        if self.d != other.d:
            raise ValueError(f"cannot merge TCMs with d={self.d} and "
                             f"d={other.d}")
        for mine, theirs in zip(self._sketches, other._sketches):
            mine.merge_from(theirs)

    # -- edge and node queries (Sections 4.1, 4.2) ------------------------------

    @_timed_query("edge_weight")
    def edge_weight(self, source: Label, target: Label) -> float:
        """Estimated aggregated edge weight ``f_e(source, target)``."""
        return self.aggregation.merge(
            s.edge_estimate(source, target) for s in self._sketches)

    @_timed_query("edge_weight_batch")
    def edge_weights(self, pairs: Sequence[Tuple[Label, Label]]) -> np.ndarray:
        """Vectorized edge-weight estimates for a batch of queries.

        Converts labels once, probes every sketch with numpy gathers and
        merges with the aggregation's direction.  Orders of magnitude
        faster than per-pair :meth:`edge_weight` for large workloads
        (Appendix C.4's query-time experiment uses this path).
        """
        if len(pairs) == 0:
            return np.zeros(0)
        source_keys = label_keys([x for x, _ in pairs])
        target_keys = label_keys([y for _, y in pairs])
        estimates = np.stack([s.edge_estimates(source_keys, target_keys)
                              for s in self._sketches])
        if self.aggregation.overestimates:
            return estimates.min(axis=0)
        return estimates.max(axis=0)

    @_timed_query("out_flow")
    def out_flow(self, node: Label) -> float:
        """Estimated node out-flow ``f_v(node, ->)``.

        Delegates to :meth:`out_flows` -- the scalar and batch paths
        share the engine's cached-row-sum kernel.
        """
        return float(self.out_flows([node])[0])

    @_timed_query("in_flow")
    def in_flow(self, node: Label) -> float:
        """Estimated node in-flow ``f_v(node, <-)``."""
        return float(self.in_flows([node])[0])

    @_timed_query("flow")
    def flow(self, node: Label) -> float:
        """Estimated undirected node flow ``f_v(node, -)``."""
        return float(self.flows([node])[0])

    @_timed_query("flow_batch")
    def out_flows(self, nodes: Sequence[Label]) -> np.ndarray:
        """Vectorized out-flow estimates for a batch of nodes.

        Per sketch the engine caches all row sums (keyed on the sketch
        epoch) and answers the batch with one fancy-indexed gather, then
        merges with the aggregation's direction.
        """
        return self.query_engine.out_flow_many(nodes)

    @_timed_query("flow_batch")
    def in_flows(self, nodes: Sequence[Label]) -> np.ndarray:
        """Vectorized in-flow estimates for a batch of nodes."""
        return self.query_engine.in_flow_many(nodes)

    @_timed_query("flow_batch")
    def flows(self, nodes: Sequence[Label]) -> np.ndarray:
        """Vectorized undirected node-flow estimates for a batch of nodes."""
        return self.query_engine.flow_many(nodes)

    @_timed_query("degree")
    def degree_estimate(self, node: Label, direction: str = "out") -> int:
        """Heuristic distinct-neighbour count: the node's occupied cells.

        Per sketch, the node's row (column) occupancy counts the distinct
        neighbour *buckets* of every label sharing the node's bucket --
        bucket-mates inflate it, neighbour merging deflates it, so unlike
        the weight estimates this has two-sided error.  The minimum
        across sketches discards the most inflated rows and tracks the
        true degree well when buckets are sparse (compare
        :func:`repro.metrics.bounds.expected_flow_error` for the matching
        regime discussion).
        """
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        self._require_graphical("degree_estimate")
        counts = []
        for sketch in self._sketches:
            bucket = sketch.node_of(node)
            occupied = (sketch.successors(bucket) if direction == "out"
                        else sketch.predecessors(bucket))
            counts.append(len(occupied))
        return min(counts)

    @_timed_query("heaviest_neighbours")
    def heaviest_neighbours(self, node: Label, k: int = 5,
                            direction: str = "in") -> List[Tuple[Label, float]]:
        """Conditional node query (paper Example 2): the heaviest
        neighbours of a given node, by estimated edge weight.

        One-dimensional sketches cannot answer "who sends the most to
        ``a``" at all; the graphical sketch can, and with the *extended*
        sketch (``keep_labels=True``) the answer comes back as labels.
        Candidates are the materialized labels of buckets adjacent to
        ``node``'s bucket, intersected across sketches; each candidate is
        ranked by the full ensemble estimate.

        :param direction: ``"in"`` (senders to node), ``"out"``
            (receivers from node) or ``"both"`` (undirected streams).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if direction not in ("in", "out", "both"):
            raise ValueError(
                f"direction must be 'in'/'out'/'both', got {direction!r}")
        self._require_graphical("heaviest_neighbours")
        candidates: Optional[set] = None
        for sketch in self._sketches:
            if not sketch.keeps_labels:
                raise ValueError(
                    "heaviest_neighbours needs an extended sketch; build "
                    "the TCM with keep_labels=True")
            bucket = sketch.node_of(node)
            if direction == "in":
                adjacent = sketch.predecessors(bucket)
            elif direction == "out":
                adjacent = sketch.successors(bucket)
            else:
                adjacent = set(sketch.successors(bucket)) | \
                    set(sketch.predecessors(bucket))
            local: set = set()
            for neighbour_bucket in adjacent:
                local |= sketch.ext(int(neighbour_bucket))
            candidates = local if candidates is None else candidates & local
        candidates = candidates or set()
        candidates.discard(node)

        ordered = sorted(candidates, key=repr)
        if not ordered:
            return []
        if direction == "in":
            weights = self.edge_weights([(c, node) for c in ordered])
        elif direction == "out":
            weights = self.edge_weights([(node, c) for c in ordered])
        elif not self.directed:
            # Undirected storage is symmetric: one estimate already covers
            # both directions (summing would double-count every edge).
            weights = self.edge_weights([(node, c) for c in ordered])
        else:
            # Directed "both": traffic in either direction counts, so score
            # outgoing + incoming instead of silently dropping one side.
            weights = (self.edge_weights([(node, c) for c in ordered])
                       + self.edge_weights([(c, node) for c in ordered]))
        scored = [(candidate, float(weight))
                  for candidate, weight in zip(ordered, weights)
                  if weight > 0]
        scored.sort(key=lambda kv: (-kv[1], repr(kv[0])))
        return scored[:k]

    # -- path queries (Section 4.3) ----------------------------------------------

    @_timed_query("reachable")
    def reachable(self, source: Label, target: Label,
                  max_hops: Optional[int] = None) -> bool:
        """Estimated reachability ``r(source, target)``.

        P1: answer per sketch; P2: conjoin -- True only if the hashed
        endpoints are connected in *all* sketches.  Never returns False
        for a truly reachable pair (no false "unreachable" answers); may
        return True for unreachable pairs when collisions manufacture
        paths.

        Unbounded queries delegate to :meth:`reachable_many`, i.e. the
        engine's epoch-cached connectivity indexes: steady state is an
        O(1) component/bitset probe instead of a BFS.  Hop-bounded
        queries (``max_hops``) cannot use the transitive index and run
        the per-sketch BFS.
        """
        self._require_graphical("reachable")
        if max_hops is not None:
            return self._reachable_bfs(source, target, max_hops)
        return bool(self.reachable_many([(source, target)])[0])

    def _reachable_bfs(self, source: Label, target: Label,
                       max_hops: Optional[int]) -> bool:
        """The index-free per-sketch BFS path (hop-bounded queries)."""
        for sketch in self._sketches:
            view = SketchView(sketch)
            if not _reach(view, view.node_of(source), view.node_of(target),
                          max_hops=max_hops):
                return False
        return True

    @_timed_query("reachable_batch")
    def reachable_many(self,
                       pairs: Sequence[Tuple[Label, Label]]) -> np.ndarray:
        """Vectorized reachability for a batch of label pairs.

        Element-wise identical to calling :meth:`reachable` per pair;
        per sketch the whole batch costs two hash passes plus one index
        probe (see :class:`repro.core.query_engine.ConnectivityIndex`).
        """
        self._require_graphical("reachable")
        return self.query_engine.reachable_many(pairs)

    @_timed_query("shortest_path")
    def shortest_path_weight(self, source: Label, target: Label) -> float:
        """Estimated shortest-path weight between two labels.

        Collisions both inflate edge weights (over-estimate) and add
        spurious shortcut edges (under-estimate), so no one-sided bound
        exists; we return the max across sketches, which empirically
        tracks the truth best (spurious shortcuts are what extra sketches
        rule out).  Returns ``math.inf`` explicitly whenever *any* sketch
        finds no path -- a no-path answer is never conflated with a
        genuine zero-weight (same-node) path.

        Delegates to :meth:`shortest_path_weights`; repeated sources hit
        the engine's per-source distance cache.
        """
        weight = float(self.shortest_path_weights([(source, target)])[0])
        return math.inf if math.isinf(weight) else weight

    @_timed_query("shortest_path_batch")
    def shortest_path_weights(
            self, pairs: Sequence[Tuple[Label, Label]]) -> np.ndarray:
        """Vectorized shortest-path weights for a batch of label pairs.

        Per sketch, queries are grouped by source bucket and each group
        shares one numpy frontier relaxation over the cached bucket
        weight matrix; entries are ``inf`` where some sketch has no path.
        """
        self._require_graphical("shortest_path_weight")
        return self.query_engine.shortest_path_weight_many(pairs)

    # -- subgraph queries (Section 4.4) --------------------------------------------

    @_timed_query("subgraph")
    def subgraph_weight(self, query, max_matches: Optional[int] = None) -> float:
        """Aggregate subgraph weight ``f_g(Q)`` via per-sketch matching.

        S1: run the black-box ``subgraph()`` on each sketch; S2: merge by
        minimum.  Accepts a :class:`SubgraphQuery` or a raw edge list.
        Supports wildcards and bound wildcards.
        """
        query = query if isinstance(query, SubgraphQuery) else SubgraphQuery(query)
        self._require_graphical("subgraph_weight")
        estimates = []
        for sketch in self._sketches:
            view = SketchView(sketch)
            weight = _subgraph_weight(view, query, node_of=view.node_of,
                                      max_matches=max_matches)
            if weight == 0.0:
                # Some sketch proves no exact match exists; terminate early
                # (the optimization noted under S2 in the paper).
                return 0.0
            estimates.append(weight)
        return self.aggregation.merge(estimates)

    @_timed_query("subgraph_decomposed")
    def subgraph_weight_decomposed(self, query) -> float:
        """The per-edge optimization ``f'_g(Q)`` of Section 4.4.

        Decomposes the query into constituent edges, estimates each with
        the full ensemble (wildcard endpoints become flow queries), and
        sums -- hence ``f'_g(Q) <= f_g(Q)``.  Returns 0 if any edge
        estimate is 0.  Not applicable to bound wildcards (raises).

        Delegates to :meth:`subgraph_weight_decomposed_many`.
        """
        return float(self.subgraph_weight_decomposed_many([query])[0])

    @_timed_query("subgraph_decomposed_batch")
    def subgraph_weight_decomposed_many(self, queries) -> np.ndarray:
        """Vectorized decomposed estimates for a batch of subgraph queries.

        Flattens every query's edges into three work lists -- concrete
        pairs, wildcard-source flows, wildcard-target flows -- answers
        each list with one batched kernel (:meth:`edge_weights`,
        :meth:`in_flows`, :meth:`out_flows`), then reassembles the
        per-query sums in edge order with the same zero-rule
        short-circuit as the scalar path.
        """
        parsed = [q if isinstance(q, SubgraphQuery) else SubgraphQuery(q)
                  for q in queries]
        for query in parsed:
            if not query.supports_decomposed_estimate():
                raise ValueError(
                    "the decomposed estimate cannot bind wildcards to the "
                    "same node; use subgraph_weight() for bound-wildcard "
                    "queries")
        edge_pairs: List[Tuple[Label, Label]] = []
        in_nodes: List[Label] = []
        out_nodes: List[Label] = []
        plans: List[List[Tuple[str, int]]] = []
        total_needed = False
        for query in parsed:
            steps: List[Tuple[str, int]] = []
            for x, y in query:
                x_wild, y_wild = is_wildcard(x), is_wildcard(y)
                if x_wild and y_wild:
                    steps.append(("total", 0))
                    total_needed = True
                elif x_wild:
                    steps.append(("in", len(in_nodes)))
                    in_nodes.append(y)
                elif y_wild:
                    steps.append(("out", len(out_nodes)))
                    out_nodes.append(x)
                else:
                    steps.append(("edge", len(edge_pairs)))
                    edge_pairs.append((x, y))
            plans.append(steps)
        estimates = {
            "edge": (self.edge_weights(edge_pairs) if edge_pairs
                     else np.zeros(0)),
            "in": self.in_flows(in_nodes) if in_nodes else np.zeros(0),
            "out": self.out_flows(out_nodes) if out_nodes else np.zeros(0),
        }
        total_estimate = (self.total_weight_estimate() if total_needed
                          else 0.0)
        results = np.zeros(len(parsed))
        for qi, steps in enumerate(plans):
            total = 0.0
            for kind, idx in steps:
                estimate = (total_estimate if kind == "total"
                            else float(estimates[kind][idx]))
                if estimate == 0.0:
                    total = 0.0
                    break
                total += estimate
            results[qi] = total
        return results

    def total_weight_estimate(self) -> float:
        """Estimated total stream weight (the ``f_e(*, *)`` query)."""
        return self.aggregation.merge(
            s.total_mass() for s in self._sketches)

    # -- whole-graph analytics -------------------------------------------------------

    @_timed_query("triangles")
    def triangle_count(self) -> int:
        """Estimated triangle count: black-box count per sketch, merged min.

        Unlike weight estimates this is not a one-sided bound: hash
        collisions both *create* triangles (unrelated edges meeting in a
        bucket) and *destroy* them (two corners collapsing into one
        bucket turns a triangle into a 2-cycle).  The min-merge is a
        heuristic that discards the most collision-inflated sketches.
        """
        self._require_graphical("triangle_count")
        return min(_count_triangles(SketchView(s), directed=self.directed)
                   for s in self._sketches)

    @_timed_query("pagerank")
    def pagerank(self, damping: float = 0.85):
        """Per-sketch PageRank over super-nodes.

        Returns one rank dict per sketch (bucket -> rank); use the extended
        sketch's ``ext()`` to interpret buckets as label groups.
        """
        self._require_graphical("pagerank")
        return [_pagerank(SketchView(s), damping=damping)
                for s in self._sketches]

    def __repr__(self) -> str:
        shapes = ", ".join(f"{s.rows}x{s.cols}" for s in self._sketches)
        return (f"TCM(d={self.d}, shapes=[{shapes}], "
                f"{'directed' if self.directed else 'undirected'}, "
                f"agg={self.aggregation.value})")
