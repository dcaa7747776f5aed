"""The well-known instrument handles shared by every instrumented module.

``OBS`` is the single process-wide switchboard: instrumented code guards
every metric touch with ``if OBS.enabled:`` -- one attribute lookup and a
branch when observability is off, which is what keeps the hot update loop
honest (see ``BENCH_obs_overhead.json`` for the measured cost).

The handles are created eagerly against the default registry so metric
names exist (at zero) from the first export, and so hot loops can cache
a bound child (e.g. ``OBS.hh_observed.labels("edge")``) once instead of
doing a dict lookup per element.

Metric catalog: docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, log_buckets

#: The default process-wide registry every instrument lives in.
REGISTRY = MetricsRegistry()


class Instruments:
    """Pre-declared metric handles plus the global enable flag."""

    def __init__(self, registry: MetricsRegistry):
        self.enabled = False
        self.registry = registry

        # -- ingest path ---------------------------------------------------
        self.tcm_updates = registry.counter(
            "tcm_updates_total",
            "Stream elements absorbed via TCM.update (any aggregation)")
        self.tcm_update_weight = registry.counter(
            "tcm_update_weight_total",
            "Total weight absorbed via TCM.update")
        self.tcm_removes = registry.counter(
            "tcm_removes_total", "Deletions applied via TCM.remove")
        self.tcm_ingest_elements = registry.counter(
            "tcm_ingest_elements_total",
            "Elements absorbed through bulk TCM.ingest / "
            "ingest_conservative")
        self.tcm_ingest_seconds = registry.histogram(
            "tcm_ingest_seconds",
            "Wall time of bulk ingest calls",
            buckets=log_buckets(1e-5, 100.0))
        self.tcm_ingest_chunks = registry.counter(
            "tcm_ingest_chunks_total",
            "Fixed-size chunks processed by the batched ingest engine")

        # -- query path ----------------------------------------------------
        self.query_seconds = registry.histogram(
            "tcm_query_seconds",
            "Latency per query, labeled by query family",
            labelnames=("kind",))
        self.subgraph_queries_built = registry.counter(
            "tcm_subgraph_queries_built_total",
            "SubgraphQuery objects constructed (parsed or programmatic)")

        # -- query engine (epoch-cached indexes) ---------------------------
        self.query_cache_hits = registry.counter(
            "query_engine_cache_hits_total",
            "Epoch-cache hits in the query engine, labeled by index kind",
            labelnames=("index",))
        self.query_cache_misses = registry.counter(
            "query_engine_cache_misses_total",
            "Epoch-cache misses (index rebuilds), labeled by index kind",
            labelnames=("index",))
        self.query_cache_invalidations = registry.counter(
            "query_engine_cache_invalidations_total",
            "Per-sketch cache states discarded because the sketch epoch "
            "moved past the cached one")
        self.query_index_build_seconds = registry.histogram(
            "query_engine_index_build_seconds",
            "Wall time to (re)build one cached index, labeled by kind",
            labelnames=("index",),
            buckets=log_buckets(1e-6, 100.0))

        # -- sliding / rotating windows ------------------------------------
        self.window_observed = registry.counter(
            "window_observed_total",
            "Stream elements absorbed by sliding/rotating windows")
        self.window_expired = registry.counter(
            "window_expired_total",
            "Elements expired (deleted) out of sliding windows")
        self.window_live_elements = registry.gauge(
            "window_live_elements",
            "Live (non-expired) elements in the most recently advanced "
            "sliding window")
        self.window_watermark_lag = registry.gauge(
            "window_watermark_lag",
            "Stream-time span the live buffer covers: watermark minus "
            "oldest live timestamp (0 when empty)")
        self.window_expired_per_advance = registry.histogram(
            "window_expired_per_advance",
            "Elements expired per watermark advance (batch deletion size)",
            buckets=log_buckets(1.0, 1e6))
        self.window_rotations = registry.counter(
            "window_rotations_total",
            "Sub-sketch rotations (oldest-bucket clears) in rotating "
            "windows")
        self.window_late_clamped = registry.counter(
            "window_late_clamped_total",
            "Late elements whose timestamps were clamped up to the "
            "watermark by RotatingWindowTCM.observe_columns")

        # -- streaming monitors (Algorithms 1 & 2) -------------------------
        self.hh_observed = registry.counter(
            "hh_observed_total",
            "Elements observed by heavy-hitter monitors",
            labelnames=("monitor",))
        self.hh_evictions = registry.counter(
            "hh_evictions_total",
            "Candidate evictions across heavy-hitter monitors")
        self.triangle_query_seconds = registry.histogram(
            "tcm_triangle_query_seconds",
            "Latency of heavy-triangle-connection queries (Algorithm 2)",
            labelnames=("stage",))

        # -- stream replay -------------------------------------------------
        self.replay_edges = registry.counter(
            "stream_replay_edges_total",
            "Elements delivered through MonitoringHub.observe")
        self.replay_bytes = registry.counter(
            "stream_replay_bytes_total",
            "Estimated wire bytes of elements delivered through "
            "MonitoringHub (label lengths + 16B weight/timestamp)")

        # -- accuracy telemetry (repro.obs.accuracy) -----------------------
        self.accuracy_observed_are = registry.gauge(
            "accuracy_observed_are",
            "Mean absolute relative error of the summary over the "
            "shadow-truth sampled keys, per tracked summary",
            labelnames=("summary",))
        self.accuracy_observed_max_are = registry.gauge(
            "accuracy_observed_max_are",
            "Max absolute relative error over the sampled keys",
            labelnames=("summary",))
        self.accuracy_observed_epsilon = registry.gauge(
            "accuracy_observed_epsilon",
            "Max (estimate - exact) / total stream weight over the "
            "sampled keys: the empirical epsilon in err <= eps * W",
            labelnames=("summary",))
        self.accuracy_false_positive_rate = registry.gauge(
            "accuracy_false_positive_rate",
            "Fraction of never-inserted probe edges the summary answers "
            "with a positive weight",
            labelnames=("summary",))
        self.accuracy_sampled_keys = registry.gauge(
            "accuracy_sampled_keys",
            "Edge keys currently tracked by the shadow-truth comparator",
            labelnames=("summary",))
        self.accuracy_summary_load_factor = registry.gauge(
            "accuracy_summary_load_factor",
            "Occupied / total cells of the tracked summary at the last "
            "accuracy tick (the drift detector's occupancy signal)",
            labelnames=("summary",))
        self.accuracy_ticks = registry.counter(
            "accuracy_ticks_total",
            "Accuracy-tracker ticks (summary probes) performed")
        self.drift_events = registry.counter(
            "drift_events_total",
            "Drift alarms emitted, labeled by detector signal",
            labelnames=("signal",))
        self.drift_statistic = registry.gauge(
            "drift_statistic",
            "Current Page-Hinkley excursion per detector signal",
            labelnames=("signal",))

        # -- runtime telemetry (repro.obs.runtime) -------------------------
        self.process_rss_bytes = registry.gauge(
            "process_rss_bytes",
            "Resident set size of this process at the last runtime sample "
            "or /metrics, /stats scrape")
        self.process_gc_collections = registry.counter(
            "process_gc_collections_total",
            "Garbage collections observed since sampling started, "
            "labeled by generation",
            labelnames=("generation",))
        self.process_minor_page_faults = registry.counter(
            "process_minor_page_faults_total",
            "Minor page faults of this process (getrusage ru_minflt) as "
            "of the last runtime sample or /metrics, /stats scrape")
        self.query_engine_cache_bytes = registry.gauge(
            "query_engine_cache_bytes",
            "Bytes held by a TCM's lazily built query-engine index caches "
            "(connectivity, closure bitsets, flow vectors, distances)",
            labelnames=("tcm",))
        self.label_cache_bytes = registry.gauge(
            "label_cache_bytes",
            "Estimated bytes held by the process-wide label-intern cache")

        # -- flight recorder (repro.obs.flight) ----------------------------
        self.flight_events = registry.counter(
            "flight_events_total",
            "Events captured by the flight recorder, labeled by kind",
            labelnames=("kind",))

        # -- distributed ---------------------------------------------------
        self.shard_elements = registry.counter(
            "sharded_elements_total",
            "Elements summarized per shard worker",
            labelnames=("shard",))
        self.shard_build_seconds = registry.histogram(
            "sharded_build_seconds",
            "Wall time to summarize one shard",
            buckets=log_buckets(1e-5, 100.0))
        self.shard_merge_seconds = registry.histogram(
            "sharded_merge_seconds",
            "Wall time per pairwise shard-summary merge",
            buckets=log_buckets(1e-6, 10.0))
        self.shard_count = registry.gauge(
            "sharded_shards", "Shards in the most recent summarize() call")
        self.parallel_workers = registry.gauge(
            "parallel_build_workers",
            "Worker processes in the most recent parallel build")
        self.parallel_worker_seconds = registry.histogram(
            "parallel_worker_build_seconds",
            "Per-worker wall time spent building a shard summary",
            buckets=log_buckets(1e-4, 1000.0))
        self.parallel_worker_chunks = registry.counter(
            "parallel_worker_chunks_total",
            "Chunks ingested per parallel worker",
            labelnames=("worker",))
        self.parallel_merge_seconds = registry.histogram(
            "parallel_merge_seconds",
            "Wall time per worker-summary merge in a parallel build",
            buckets=log_buckets(1e-6, 10.0))
        self.parallel_shm_bytes = registry.gauge(
            "parallel_shared_memory_bytes",
            "Shared-memory bytes mapped by the active parallel build "
            "(input slot ring + per-worker output tables; 0 when idle)")
        self.kernel_backend = registry.gauge(
            "kernel_backend_active",
            "1 for the scatter-kernel backend bulk ingest dispatches to, "
            "0 for the others (see repro.core.kernels)",
            labelnames=("backend",))

        # -- sketch service (repro.server) ---------------------------------
        self.server_requests = registry.counter(
            "server_requests_total",
            "HTTP requests served, labeled by endpoint and status code",
            labelnames=("endpoint", "status"))
        self.server_request_seconds = registry.histogram(
            "server_request_seconds",
            "End-to-end request latency (parse to response write), "
            "labeled by endpoint",
            labelnames=("endpoint",),
            buckets=log_buckets(1e-5, 10.0))
        self.server_batch_flushes = registry.counter(
            "server_batch_flushes_total",
            "Coalescer flushes, labeled by batch kind (ingest/query) and "
            "trigger reason (size/deadline/barrier/shutdown)",
            labelnames=("kind", "reason"))
        self.server_batch_elements = registry.histogram(
            "server_batch_elements",
            "Elements (or queries) per coalesced batch flush",
            labelnames=("kind",),
            buckets=log_buckets(1.0, 1e6))
        self.server_batch_wait_seconds = registry.histogram(
            "server_batch_wait_seconds",
            "Time the first request of a batch waited before its flush",
            buckets=log_buckets(1e-6, 1.0))
        self.server_coalesced_requests = registry.counter(
            "server_coalesced_requests_total",
            "Requests answered from a shared coalesced batch, labeled by "
            "batch kind",
            labelnames=("kind",))
        self.server_active_sketches = registry.gauge(
            "server_active_sketches",
            "Named sketches currently registered in the service")
        self.server_open_connections = registry.gauge(
            "server_open_connections",
            "Client connections currently open against the service")

        # -- binary wire protocol (repro.server.wire) ----------------------
        self.server_wire_requests = registry.counter(
            "server_wire_requests_total",
            "Binary columnar requests decoded, labeled by wire op",
            labelnames=("op",))
        self.server_wire_bytes = registry.counter(
            "server_wire_bytes_total",
            "Request-body bytes received as binary columnar frames")

        # -- multi-process sharding (repro.server.sharding) ----------------
        self.server_misdirected_requests = registry.counter(
            "server_misdirected_requests_total",
            "Tenant requests answered 421 because another worker owns "
            "the tenant (shard-oblivious client)")
        self.server_worker_index = registry.gauge(
            "server_worker_index",
            "This process's worker index in a sharded deployment")
        self.server_cluster_workers = registry.gauge(
            "server_cluster_workers",
            "Worker processes in the sharded deployment (0 = unsharded)")

        # -- durability (repro.server.durability) --------------------------
        self.wal_records = registry.counter(
            "wal_records_total",
            "Records appended to tenant write-ahead logs, labeled by op",
            labelnames=("op",))
        self.wal_bytes = registry.counter(
            "wal_bytes_total",
            "Frame bytes appended to tenant write-ahead logs")
        self.wal_fsyncs = registry.counter(
            "wal_fsyncs_total", "fsync calls issued by WAL writers")
        self.wal_fsync_seconds = registry.histogram(
            "wal_fsync_seconds", "Wall time per WAL fsync",
            buckets=log_buckets(1e-6, 10.0))
        self.wal_rotations = registry.counter(
            "wal_rotations_total",
            "WAL segment rotations (size-triggered or snapshot-triggered)")
        self.wal_append_errors = registry.counter(
            "wal_append_errors_total",
            "WAL appends that failed (write or fsync error) and were "
            "rolled back")
        self.wal_snapshots = registry.counter(
            "wal_snapshots_total", "Tenant snapshots written")
        self.wal_snapshot_seconds = registry.histogram(
            "wal_snapshot_seconds",
            "Wall time per tenant snapshot (rotate + write + prune)",
            buckets=log_buckets(1e-4, 100.0))
        self.wal_segments_pruned = registry.counter(
            "wal_segments_pruned_total",
            "WAL segments deleted because a snapshot covers them")
        self.wal_group_commits = registry.counter(
            "wal_group_commits_total",
            "Group-commit barriers executed by the WAL pipeline")
        self.wal_group_commit_records = registry.histogram(
            "wal_group_commit_records",
            "Records committed per group-commit barrier (across all "
            "tenants staged since the previous barrier)",
            buckets=log_buckets(1.0, 1e5))
        self.wal_group_commit_seconds = registry.histogram(
            "wal_group_commit_seconds",
            "Wall time per group-commit barrier (write + fsync, off the "
            "event loop)",
            buckets=log_buckets(1e-6, 10.0))
        self.wal_tmp_files_pruned = registry.counter(
            "wal_tmp_files_pruned_total",
            "Orphan temp files (died mid-snapshot/meta write) pruned "
            "from tenant dirs at attach/recovery time")
        self.recovery_replayed_records = registry.counter(
            "recovery_replayed_records_total",
            "WAL records replayed during startup recovery")
        self.recovery_replayed_elements = registry.counter(
            "recovery_replayed_elements_total",
            "Stream elements replayed during startup recovery")
        self.recovery_torn_frames = registry.counter(
            "recovery_torn_frames_total",
            "Torn/corrupt WAL tail frames discarded during recovery")
        self.recovery_tenants = registry.counter(
            "recovery_tenants_total",
            "Tenants rebuilt from disk during startup recovery")
        self.recovery_seconds = registry.histogram(
            "recovery_seconds",
            "Wall time of a full startup recovery (all tenants)",
            buckets=log_buckets(1e-4, 1000.0))

        # -- graceful degradation (admission control) ----------------------
        self.shed_requests = registry.counter(
            "shed_requests_total",
            "Requests refused (429/503) to protect the service, labeled "
            "by reason (lag/backlog/query_class/connections)",
            labelnames=("reason",))
        self.server_loop_lag = registry.gauge(
            "server_loop_lag_seconds",
            "EWMA of event-loop callback delay -- the overload signal "
            "the admission controller sheds on")
        self.retry_attempts = registry.counter(
            "retry_attempts_total",
            "Client-side (loadgen) retries, labeled by cause "
            "(http_429/timeout/connection)",
            labelnames=("reason",))
        self.retry_backoff_seconds = registry.counter(
            "retry_backoff_seconds_total",
            "Total client-side (loadgen) backoff sleep time")


OBS = Instruments(REGISTRY)


def enable() -> None:
    """Turn instrumentation on (counters start moving)."""
    OBS.enabled = True


def disable() -> None:
    """Turn instrumentation off (hot paths fall back to the no-op check)."""
    OBS.enabled = False


def is_enabled() -> bool:
    return OBS.enabled
