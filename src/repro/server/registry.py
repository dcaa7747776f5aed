"""The named-sketch registry: per-tenant summaries plus their coalescers.

Each tenant is one named summary -- a plain :class:`~repro.core.tcm.TCM`
(``kind="tcm"``) or a :class:`~repro.streams.rotating.RotatingWindowTCM`
(``kind="window"``) -- paired with its own
:class:`~repro.server.coalescer.IngestCoalescer` and
:class:`~repro.server.coalescer.QueryCoalescer`.  Coalescing is per
tenant: requests against the same sketch share batches (that is where
the win is), requests against different sketches never block each other
on a shared buffer.

The registry is the server's only mutable state; it is event-loop-owned
and needs no locks (the sketches themselves are additionally
thread-safe where it matters -- see ``RotatingWindowTCM``'s lock).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.aggregation import Aggregation
from repro.core.kernels import check_weights
from repro.obs.instruments import OBS
from repro.server.coalescer import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY,
    IngestCoalescer,
    QueryCoalescer,
)

#: Constructor keys a tenant config may set, per kind.
_TCM_KEYS = frozenset({"d", "width", "seed", "directed", "aggregation",
                       "sparse"})
_WINDOW_KEYS = _TCM_KEYS | {"horizon", "buckets"}


def _parse_config(kind: str, config: Dict[str, Any]) -> Dict[str, Any]:
    if config.get("keep_labels"):
        raise ValueError(
            "keep_labels sketches are not servable: the extended sketch "
            "has no columnar fast path for the coalescer to ride")
    allowed = _WINDOW_KEYS if kind == "window" else _TCM_KEYS
    unknown = set(config) - allowed - {"keep_labels"}
    if unknown:
        raise ValueError(f"unknown sketch config keys: {sorted(unknown)}")
    parsed = dict(config)
    parsed.pop("keep_labels", None)
    if isinstance(parsed.get("aggregation"), str):
        try:
            parsed["aggregation"] = Aggregation(parsed["aggregation"])
        except ValueError:
            raise ValueError(
                f"unknown aggregation {parsed['aggregation']!r} (expected "
                f"one of {[a.value for a in Aggregation]})")
    if kind == "window" and "horizon" not in parsed:
        raise ValueError("window sketches need a 'horizon'")
    return parsed


class TenantSketch:
    """One named summary and its micro-batching state."""

    def __init__(self, name: str, kind: str, config: Dict[str, Any], *,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay: float = DEFAULT_MAX_DELAY,
                 batching: bool = True,
                 max_backlog: Optional[int] = None):
        if kind not in ("tcm", "window"):
            raise ValueError(
                f"unknown sketch kind {kind!r} (expected 'tcm' or 'window')")
        self.name = name
        self.kind = kind
        self.config = _parse_config(kind, config)
        #: Optional write-ahead log (attached by a DurabilityManager).
        #: When set, every applied batch is logged *before* it mutates
        #: the sketch, so an acked request is always recoverable.
        self.wal = None
        if kind == "window":
            from repro.streams.rotating import RotatingWindowTCM
            self.sketch = RotatingWindowTCM(**self.config)
            apply_batch = self._apply_window_batch
            apply_scalar = self._apply_window_scalar
        else:
            from repro.core.tcm import TCM
            self.sketch = TCM(**self.config)
            apply_batch = self._apply_tcm_batch
            apply_scalar = self._apply_tcm_scalar
        self.ingest = IngestCoalescer(
            apply_batch, apply_scalar=apply_scalar,
            max_batch=max_batch, max_delay=max_delay,
            with_timestamps=(kind == "window"), batching=batching,
            max_backlog=max_backlog, kind="ingest",
            ack_barrier=self.durable_barrier)
        self.queries = QueryCoalescer(
            self._run_queries, max_batch=max_batch, max_delay=max_delay,
            batching=batching, before_flush=self.ingest.flush,
            kind="query")

    # -- ingest applications (batch rides the kernels, scalar does not) ----

    def _apply_tcm_batch(self, src, dst, weights, _ts, *,
                         _log: bool = True) -> None:
        if _log and self.wal is not None:
            self.wal.append_ingest(src, dst, weights)
        self.sketch.ingest_keys(src, dst, weights)

    def _apply_tcm_scalar(self, src, dst, weights, _ts, *,
                          _log: bool = True) -> None:
        if _log and self.wal is not None:
            self.wal.append_ingest(src, dst, weights, scalar=True)
        update = self.sketch.update
        for s, t, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
            update(s, t, w)

    def _apply_window_batch(self, src, dst, weights, ts, *,
                            _log: bool = True) -> None:
        if _log and self.wal is not None:
            self.wal.append_ingest(src, dst, weights, ts)
        self.sketch.observe_columns(src, dst, weights, ts)

    def _apply_window_scalar(self, src, dst, weights, ts, *,
                             _log: bool = True) -> None:
        if _log and self.wal is not None:
            self.wal.append_ingest(src, dst, weights, ts, scalar=True)
        observe = self.sketch.observe
        for s, t, w, when in zip(src.tolist(), dst.tolist(),
                                 weights.tolist(), ts.tolist()):
            # Same late policy as observe_columns: clamp, don't reject.
            observe(s, t, w, max(when, self.sketch.watermark))

    def durable_barrier(self):
        """The WAL group-commit barrier covering everything logged so far.

        Returns the open group's future when the pipeline is staging for
        this tenant's WAL, else ``None`` (no WAL, pipeline off, or
        nothing staged -- in all of which cases appends were written
        inline and durability is already settled).  Acks chained on the
        barrier resolve only after the group's frame is written (and
        fsynced under ``--fsync always``).
        """
        wal = self.wal
        if wal is None or wal.group is None or not wal.group.active:
            return None
        return wal.group.barrier(wal)

    def replay(self, record) -> None:
        """Re-apply one decoded WAL record (recovery path, no logging).

        Replays through the *same* apply function that produced the
        record -- the scalar/batch mode is carried in the record's flags
        -- so the recovered matrices are bit-identical to the pre-crash
        ones (the scalar and batch window paths clamp late timestamps
        at different granularities, so the mode matters).
        """
        from repro.server.durability import FLAG_SCALAR
        if record.op == "ingest":
            scalar = bool(record.flags & FLAG_SCALAR)
            if self.kind == "window":
                apply = (self._apply_window_scalar if scalar
                         else self._apply_window_batch)
            else:
                apply = (self._apply_tcm_scalar if scalar
                         else self._apply_tcm_batch)
            apply(record.sources, record.targets, record.weights,
                  record.timestamps, _log=False)
        elif record.op == "remove":
            self.sketch.remove_many(record.sources, record.targets,
                                    record.weights)
        elif record.op == "advance":
            self.sketch.advance_to(record.timestamp)
        else:  # pragma: no cover -- the decoder only emits the three ops
            raise ValueError(f"unknown WAL op {record.op!r}")

    # -- the batched query runner ------------------------------------------

    def _run_queries(self, kind: str, payload: list):
        sketch = self.sketch
        if kind == "edge":
            return sketch.edge_weights(payload)
        if kind == "reach":
            return sketch.reachable_many(payload)
        if kind == "outflow":
            return sketch.out_flows(payload)
        if kind == "inflow":
            return sketch.in_flows(payload)
        if kind == "flow":
            return sketch.flows(payload)
        if kind == "total":
            return sketch.total_weight_estimate()
        raise ValueError(f"unknown query kind {kind!r}")  # pragma: no cover

    # -- maintenance -------------------------------------------------------

    def remove(self, sources, targets, weights) -> int:
        """Apply deletions after draining staged inserts (order matters)."""
        if self.kind != "tcm":
            raise ValueError(
                "window sketches expire by rotation; deletions are only "
                "supported on kind='tcm'")
        self.ingest.flush("barrier")
        if self.wal is not None:
            # Validate before logging: a remove the sketch would reject
            # (non-invertible aggregation, bad lengths) must not leave a
            # poison record in the log.
            from repro.core.tcm import TCM
            if not self.sketch.aggregation.invertible:
                raise ValueError(
                    f"{self.sketch.aggregation.value} aggregation does "
                    "not support deletion")
            source_keys = TCM._deletion_keys(sources)
            target_keys = TCM._deletion_keys(targets)
            n = len(source_keys)
            if len(target_keys) != n:
                raise ValueError(
                    f"got {n} sources but {len(target_keys)} targets")
            wts = (np.ones(n) if weights is None
                   else np.asarray(weights, dtype=np.float64))
            if len(wts) != n:
                raise ValueError(
                    f"got {n} sources but {len(wts)} weights")
            check_weights(wts, "removal")
            self.wal.append_remove(source_keys, target_keys, wts)
            return self.sketch.remove_many(source_keys, target_keys, wts)
        return self.sketch.remove_many(sources, targets, weights)

    def advance(self, timestamp: float) -> Dict[str, float]:
        """Move a window tenant's watermark after draining staged inserts."""
        if self.kind != "window":
            raise ValueError("advance is only supported on kind='window'")
        self.ingest.flush("barrier")
        if self.wal is not None:
            if timestamp < self.sketch.watermark:
                raise ValueError(
                    f"cannot advance backwards: watermark is "
                    f"{self.sketch.watermark}, got {timestamp}")
            self.wal.append_advance(timestamp)
        self.sketch.advance_to(timestamp)
        return {"watermark": self.sketch.watermark}

    def drain(self) -> None:
        """Flush both coalescers (shutdown / deletion barrier)."""
        self.ingest.flush("shutdown")
        self.queries.flush("shutdown")

    def info(self) -> Dict[str, Any]:
        config = {k: (v.value if isinstance(v, Aggregation) else v)
                  for k, v in self.config.items()}
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "config": config,
            "memory_bytes": int(self.sketch.memory_bytes()),
            "total_weight": float(self.sketch.total_weight_estimate()),
            "staged_elements": len(self.ingest),
            "ingest_flushes": self.ingest.flushes,
            "ingested_elements": self.ingest.staged_elements,
        }
        if self.kind == "window":
            watermark = self.sketch.watermark
            out["watermark"] = watermark if np.isfinite(watermark) else None
        return out


class SketchRegistry:
    """Create / look up / drop named tenants; one coalescer pair each."""

    def __init__(self, *, max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay: float = DEFAULT_MAX_DELAY,
                 batching: bool = True,
                 max_backlog: Optional[int] = None):
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.batching = batching
        self.max_backlog = max_backlog
        #: Optional DurabilityManager; when set, created tenants get a
        #: WAL and deleted tenants have their on-disk state removed.
        self.durability = None
        self._tenants: Dict[str, TenantSketch] = {}

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def create(self, name: str, kind: str = "tcm",
               **config: Any) -> TenantSketch:
        # Names double as data-dir entries once durability is on, so
        # path-walking names are invalid everywhere for consistency.
        if (not name or "/" in name or "\\" in name or "\x00" in name
                or name in (".", "..")):
            raise ValueError(f"invalid sketch name {name!r}")
        if name in self._tenants:
            raise ValueError(f"sketch {name!r} already exists")
        tenant = TenantSketch(name, kind, config,
                              max_batch=self.max_batch,
                              max_delay=self.max_delay,
                              batching=self.batching,
                              max_backlog=self.max_backlog)
        if self.durability is not None:
            self.durability.attach(tenant)
        self._tenants[name] = tenant
        if OBS.enabled:
            OBS.server_active_sketches.set(len(self._tenants))
        return tenant

    def adopt(self, tenant: TenantSketch) -> None:
        """Insert an already-built tenant (the recovery path)."""
        if tenant.name in self._tenants:
            raise ValueError(f"sketch {tenant.name!r} already exists")
        self._tenants[tenant.name] = tenant
        if OBS.enabled:
            OBS.server_active_sketches.set(len(self._tenants))

    def get(self, name: str) -> TenantSketch:
        try:
            return self._tenants[name]
        except KeyError:
            raise KeyError(f"no sketch named {name!r}")

    def delete(self, name: str) -> None:
        tenant = self.get(name)
        tenant.drain()
        if self.durability is not None:
            self.durability.detach(name, tenant.wal, delete=True)
            tenant.wal = None
        del self._tenants[name]
        if OBS.enabled:
            OBS.server_active_sketches.set(len(self._tenants))

    def drain_all(self) -> None:
        """Flush every tenant's staged work (server shutdown)."""
        for tenant in self._tenants.values():
            tenant.drain()

    def infos(self) -> List[Dict[str, Any]]:
        return [self._tenants[name].info() for name in self.names()]
