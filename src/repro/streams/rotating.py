"""Rotating sub-sketch windows: coarse expiry without per-element deletion.

:class:`~repro.streams.window.SlidingWindow` keeps the window *exact* by
replaying every expired element as a deletion -- which requires buffering
the raw live elements (O(window) memory next to the sketch) and only works
for the invertible aggregations.  :class:`RotatingWindowTCM` is the classic
bucketed alternative: stream time is cut into ``B`` equal buckets per
horizon, each bucket gets its own same-seed sub-TCM, and crossing a bucket
boundary expires the oldest bucket with one O(cells / B)
:meth:`~repro.core.tcm.TCM.clear` -- no element buffer, no deletions, any
aggregation (including min/max, which the exact window cannot support).

The price is boundary coarseness: the summary covers *at most one extra
bucket span* of stream beyond the horizon.  Concretely, with current
bucket ``b = floor(t / span)`` the ring keeps buckets ``b-B .. b``
(``B + 1`` sub-sketches), whose oldest start ``(b-B) * span = b*span - H
<= t - H`` -- so every element inside the true window is always covered
(estimates never fall below the exact window's), and the surplus is
limited to elements in ``[(b-B)*span, t-H)``, a half-open span shorter
than one bucket.  Queries are served by a merged view that is rebuilt
lazily (sub-TCMs are same-seed, hence mergeable) and cached until the
next mutation -- between rotations, repeated queries cost one staleness
check, and the rebuild bumps the merged sketches' epochs so the query
engine's cached indexes invalidate exactly when the view changes.

Cost model (vs the exact window, docs/PERFORMANCE.md "Window path"):
ingest is one ``update_many`` scatter into the current sub-TCM (d of the
exact path's, no buffer append); expiry is amortized O(cells/B) per bucket
crossing instead of O(expired elements); memory is ``(B + 2) x`` one TCM
(ring + merged view) instead of one TCM + the live-element buffer.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregation import Aggregation
from repro.core.kernels import check_weights
from repro.hashing.labels import Label, label_keys
from repro.obs.instruments import OBS
from repro.streams.model import StreamEdge
from repro.streams.window import DEFAULT_WINDOW_CHUNK


class RotatingWindowTCM:
    """An approximate sliding-window TCM built from a ring of sub-sketches.

    :param horizon: window length in stream time units.
    :param buckets: sub-sketches per horizon (``B``).  Larger ``B`` means
        tighter boundaries (staleness < ``horizon / B``) and cheaper
        individual rotations, at ``B + 2`` TCMs of memory.
    :param kwargs: forwarded to every sub-:class:`TCM` (``d``, ``width``,
        ``directed``, ``aggregation``, ``keep_labels``, ``sparse``).
        ``seed`` must not be ``None``: sub-sketches can only merge into
        the query view when they share hash functions.
    """

    def __init__(self, horizon: float, buckets: int = 8, *,
                 d: int = 4, width: int = 256,
                 seed: Optional[int] = 0, directed: bool = True,
                 aggregation: Aggregation = Aggregation.SUM,
                 keep_labels: bool = False, sparse: bool = False):
        # Deferred: repro.core.tcm pulls repro.analytics, which imports
        # this package -- a module-level import here would be circular.
        from repro.core.tcm import TCM
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        if seed is None:
            raise ValueError(
                "rotating windows need a fixed seed: sub-sketches must "
                "share hash functions to merge into the query view")
        self.horizon = float(horizon)
        self.buckets = buckets
        self.span = self.horizon / buckets
        self.directed = directed
        self.aggregation = aggregation
        config = dict(d=d, width=width, seed=seed, directed=directed,
                      aggregation=aggregation, keep_labels=keep_labels,
                      sparse=sparse)
        # B + 1 slots: with current bucket b the ring holds b-B .. b, so
        # the oldest live bucket starts at or before t - horizon and the
        # true window is always fully covered (see the module docstring).
        self._ring: List[TCM] = [TCM(**config) for _ in range(buckets + 1)]
        self._merged = TCM(**config)
        self._merged_stale = False
        self._bucket_index: Optional[int] = None
        self._watermark = float("-inf")
        # Maintenance (advance/observe/rotation) and the lazy merged-view
        # rebuild are serialized so a server can advance the window from
        # one thread while another queries: rotations clear sub-sketches
        # in place, which must never interleave with a half-built merge.
        # Re-entrant because observe_* advance internally.
        self._lock = threading.RLock()

    # -- structure ------------------------------------------------------------

    @property
    def watermark(self) -> float:
        """The latest timestamp observed (or advanced to)."""
        return self._watermark

    @property
    def max_staleness(self) -> float:
        """Upper bound on extra stream time the view may cover.

        The merged view summarizes ``[t - horizon - s, t]`` for some
        ``0 <= s < max_staleness == horizon / buckets``.
        """
        return self.span

    @property
    def ring(self) -> Tuple[TCM, ...]:
        """The sub-sketches, oldest-to-newest rotation slots."""
        return tuple(self._ring)

    @property
    def current(self) -> TCM:
        """The sub-TCM absorbing the current bucket's elements."""
        if self._bucket_index is None:
            return self._ring[0]
        return self._ring[self._bucket_index % len(self._ring)]

    def memory_bytes(self) -> int:
        """Footprint of the ring plus the cached merged view."""
        return (sum(t.memory_bytes() for t in self._ring)
                + self._merged.memory_bytes())

    @property
    def nbytes(self) -> int:
        return self.memory_bytes()

    # -- maintenance ------------------------------------------------------------

    def _bucket_of(self, timestamp: float) -> int:
        return math.floor(timestamp / self.span)

    def _rotate_to(self, bucket: int) -> None:
        """Advance the ring so ``bucket`` is current, clearing expired slots."""
        if self._bucket_index is None:
            self._bucket_index = bucket
            return
        steps = bucket - self._bucket_index
        if steps <= 0:
            return
        ring_length = len(self._ring)
        if steps >= ring_length:
            # The whole ring aged out (a long quiet gap); wipe everything.
            for tcm in self._ring:
                tcm.clear()
            rotations = ring_length
        else:
            for k in range(1, steps + 1):
                self._ring[(self._bucket_index + k) % ring_length].clear()
            rotations = steps
        self._bucket_index = bucket
        self._merged_stale = True
        if OBS.enabled:
            OBS.window_rotations.inc(rotations)

    def advance_to(self, timestamp: float) -> None:
        """Move the watermark forward, rotating out expired buckets.

        Thread-safe: rotation (which clears expired sub-sketches in
        place) is serialized against concurrent observes and the merged
        view's rebuild.
        """
        with self._lock:
            if timestamp < self._watermark:
                raise ValueError(
                    f"cannot move watermark backwards to {timestamp} "
                    f"(currently {self._watermark})")
            self._watermark = timestamp
            self._rotate_to(self._bucket_of(timestamp))

    def observe(self, source: Label, target: Label, weight: float = 1.0,
                timestamp: Optional[float] = None) -> None:
        """Ingest one element at ``timestamp`` (default: current watermark)."""
        with self._lock:
            if timestamp is None:
                timestamp = self._watermark \
                    if math.isfinite(self._watermark) else 0.0
            self.advance_to(timestamp)
            self.current.update(source, target, weight)
            self._merged_stale = True
        if OBS.enabled:
            OBS.window_observed.inc()

    def observe_many(self, edges: Sequence[StreamEdge]) -> int:
        """Ingest a batch of timestamp-ordered elements.

        The batch is split into runs per bucket (one ``searchsorted``-
        style scan over the monotone timestamps) and each run lands in
        its sub-TCM with one vectorized :meth:`TCM.ingest_columns` call,
        rotating between runs.  Returns the number of elements ingested.
        """
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        n = len(edges)
        if n == 0:
            return 0
        with self._lock:
            timestamps = np.fromiter((e.timestamp for e in edges),
                                     dtype=np.float64, count=n)
            previous = np.empty(n, dtype=np.float64)
            previous[0] = self._watermark
            previous[1:] = timestamps[:-1]
            disorder = timestamps < previous
            if disorder.any():
                i = int(np.argmax(disorder))
                raise ValueError(
                    f"out-of-order element at t={timestamps[i]} "
                    f"(watermark is {previous[i]})")
            weights = np.fromiter((e.weight for e in edges),
                                  dtype=np.float64, count=n)
            sources = [e.source for e in edges]
            targets = [e.target for e in edges]
            bucket_ids = np.floor(timestamps / self.span).astype(np.int64)
            splits = np.flatnonzero(np.diff(bucket_ids)) + 1
            for lo, hi in zip(np.concatenate(([0], splits)),
                              np.concatenate((splits, [n]))):
                lo, hi = int(lo), int(hi)
                self._rotate_to(int(bucket_ids[lo]))
                self.current.ingest_columns(sources[lo:hi], targets[lo:hi],
                                            weights[lo:hi])
            self._watermark = float(timestamps[-1])
            self._merged_stale = True
        if OBS.enabled:
            OBS.window_observed.inc(n)
        return n

    def observe_columns(self, sources: Sequence[Label],
                        targets: Sequence[Label],
                        weights: Optional[np.ndarray] = None,
                        timestamps: Optional[np.ndarray] = None) -> int:
        """Columnar batch ingest for service layers: labels *or* raw keys.

        The rotating mirror of :meth:`~repro.core.tcm.TCM.ingest_keys`,
        built for the :mod:`repro.server` coalescer, whose batches
        aggregate concurrent requests and therefore cannot promise the
        ordering :meth:`observe_many` demands.  Differences:

        - accepts parallel columns -- label sequences or pre-hashed
          ``uint64`` key arrays -- instead of :class:`StreamEdge`\\ s;
        - **late elements are clamped, not rejected**: a timestamp below
          the current watermark is raised to the watermark (the standard
          late-arrival policy; each clamp counts on
          ``window_late_clamped_total``), so one slow client can never
          poison a shared tenant with a ``ValueError``;
        - within-batch disorder is fixed up with one stable argsort
          before bucket-splitting;
        - thread-safe under the same lock as :meth:`advance_to`.

        ``weights`` defaults to all-ones; ``timestamps`` defaults to the
        current watermark (ingest without advancing time).  Returns the
        number of elements ingested.
        """
        n = len(sources)
        if len(targets) != n:
            raise ValueError(f"got {n} sources but {len(targets)} targets")
        if n == 0:
            return 0
        source_keys = label_keys(sources)
        target_keys = label_keys(targets)
        if weights is None:
            weights = np.ones(n)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape[0] != n:
                raise ValueError(
                    f"got {n} sources but {weights.shape[0]} weights")
            # Checked before any bucket rotates: a bad column must not
            # leave the window half-applied.
            check_weights(weights)
        with self._lock:
            watermark = self._watermark
            if timestamps is None:
                base = watermark if math.isfinite(watermark) else 0.0
                ts = np.full(n, base)
            else:
                ts = np.array(timestamps, dtype=np.float64)
                if ts.shape[0] != n:
                    raise ValueError(
                        f"got {n} sources but {ts.shape[0]} timestamps")
                if not np.isfinite(ts).all():
                    raise ValueError(
                        "timestamps must be finite, got "
                        f"{float(ts[~np.isfinite(ts)][0])}")
                if math.isfinite(watermark):
                    late = ts < watermark
                    if late.any():
                        ts[late] = watermark
                        if OBS.enabled:
                            OBS.window_late_clamped.inc(int(late.sum()))
                else:
                    # First-ever batch: nothing to clamp against.
                    pass
                if n > 1 and (np.diff(ts) < 0).any():
                    order = np.argsort(ts, kind="stable")
                    ts = ts[order]
                    source_keys = source_keys[order]
                    target_keys = target_keys[order]
                    weights = weights[order]
            bucket_ids = np.floor(ts / self.span).astype(np.int64)
            splits = np.flatnonzero(np.diff(bucket_ids)) + 1
            for lo, hi in zip(np.concatenate(([0], splits)),
                              np.concatenate((splits, [n]))):
                lo, hi = int(lo), int(hi)
                self._rotate_to(int(bucket_ids[lo]))
                self.current.ingest_columns(source_keys[lo:hi],
                                            target_keys[lo:hi],
                                            weights[lo:hi])
            self._watermark = max(watermark, float(ts[-1]))
            self._merged_stale = True
        if OBS.enabled:
            OBS.window_observed.inc(n)
        return n

    def consume(self, stream: Iterable[StreamEdge], *,
                chunk_size: int = DEFAULT_WINDOW_CHUNK) -> int:
        """Drive a whole (lazy) stream through the window in chunks."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        count = 0
        iterator = iter(stream)
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            count += self.observe_many(chunk)
        return count

    def shadow_truth(self, *, sample_size: int = 256, seed: int = 0):
        """A matched shadow-truth comparator for accuracy telemetry.

        Returns a :class:`~repro.obs.accuracy.RotatingShadowTruth` with
        this window's horizon, bucket count, aggregation and
        directedness, so its exact per-key weights expire on the same
        bucket boundaries the sub-sketches rotate on.  Feed it the same
        elements (``observe_timestamped`` next to :meth:`observe_many`)
        and compare via :class:`~repro.obs.accuracy.AccuracyTracker`.
        """
        # Deferred for symmetry with the TCM import above: repro.obs's
        # package init pulls repro.core, which imports this package.
        from repro.obs.accuracy import shadow_truth_for
        return shadow_truth_for(self, sample_size=sample_size, seed=seed)

    # -- queries (all over the merged live-bucket view) -----------------------

    @property
    def merged(self) -> TCM:
        """The union-of-live-buckets summary serving every query.

        Rebuilt lazily -- ``clear()`` plus one ``merge_from`` per ring
        slot -- on the first query after a mutation, then cached.  The
        rebuild bumps the merged sketches' epochs, so the view's
        :attr:`~repro.core.tcm.TCM.query_engine` invalidates its cached
        indexes exactly when the contents actually change; between
        rotations, repeated queries run entirely off the caches.
        """
        with self._lock:
            if self._merged_stale:
                self._merged.clear()
                for tcm in self._ring:
                    self._merged.merge_from(tcm)
                self._merged_stale = False
            return self._merged

    def edge_weight(self, source: Label, target: Label) -> float:
        return self.merged.edge_weight(source, target)

    def edge_weights(self, pairs: Sequence[Tuple[Label, Label]]) -> np.ndarray:
        return self.merged.edge_weights(pairs)

    def out_flow(self, node: Label) -> float:
        return self.merged.out_flow(node)

    def in_flow(self, node: Label) -> float:
        return self.merged.in_flow(node)

    def flow(self, node: Label) -> float:
        return self.merged.flow(node)

    def out_flows(self, nodes: Sequence[Label]) -> np.ndarray:
        return self.merged.out_flows(nodes)

    def in_flows(self, nodes: Sequence[Label]) -> np.ndarray:
        return self.merged.in_flows(nodes)

    def flows(self, nodes: Sequence[Label]) -> np.ndarray:
        return self.merged.flows(nodes)

    def reachable(self, source: Label, target: Label,
                  max_hops: Optional[int] = None) -> bool:
        return self.merged.reachable(source, target, max_hops=max_hops)

    def reachable_many(self,
                       pairs: Sequence[Tuple[Label, Label]]) -> np.ndarray:
        return self.merged.reachable_many(pairs)

    def total_weight_estimate(self) -> float:
        return self.merged.total_weight_estimate()

    def __repr__(self) -> str:
        return (f"RotatingWindowTCM(horizon={self.horizon}, "
                f"buckets={self.buckets}, span={self.span}, "
                f"agg={self.aggregation.value})")
