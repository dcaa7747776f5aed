"""Per-layer metrics: span self times from the traced launcher, counters
from ``/metrics`` deltas, and the ledger check that ties them to the
server's own CPU time.

Self time is a span's CPU time (``thread_time``) minus the CPU time of
its child spans: children on the same thread whose wall interval lies
inside the parent's.  A span whose recorded parent does not contain it
(a deadline flush scheduled from inside a staging call, say) counts as a
root.  Batched work is reported per element: self time over the
``count`` the calls handled.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from common import BenchError, Metrics

#: CPU-time slack for the ledger check: /proc reports whole clock ticks
#: (10 ms), read once at each end of the window.
LEDGER_SLACK_S = 0.02


class Spans:
    """Spans of one traced window, with self CPU time per span."""

    def __init__(self, path: str, t0_ns: int, t1_ns: int):
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        self.missing: List[str] = payload["missing"]
        spans = [s for s in payload["spans"] if t0_ns <= s[5] <= t1_ns]
        # Label-cache counters after each label call: the window's gain
        # is its last mark minus the last mark before it.
        marks = sorted((s[5], s[10]) for s in payload["spans"]
                       if s[4] == "labels.label_keys" and s[10] is not None
                       and s[5] <= t1_ns)
        before = [m for t, m in marks if t < t0_ns]
        inside = [m for t, m in marks if t >= t0_ns]
        base = before[-1] if before else (0, 0)
        last = inside[-1] if inside else base
        self.label_hits = last[0] - base[0]
        self.label_misses = last[1] - base[1]
        self.requests = sum(1 for s in spans if s[4] == "http.request")
        sync = [s for s in spans if s[4] != "http.request"]
        by_id = {s[0]: s for s in sync}
        child_cpu: Dict[int, int] = defaultdict(int)
        for s in sync:
            parent = by_id.get(s[1])
            if (parent is not None and parent[3] == s[3]
                    and parent[5] <= s[5] and s[6] <= parent[6]):
                child_cpu[s[1]] += s[8] - s[7]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.count: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Summed numeric extras: bytes decoded, distinct keys found.
        self.extra: Dict[str, int] = defaultdict(int)
        for s in sync:
            name = s[4]
            self.self_ns[name] += s[8] - s[7] - child_cpu.get(s[0], 0)
            self.count[name] += s[9]
            self.calls[name] += 1
            if isinstance(s[10], int):
                self.extra[name] += s[10]
        self.attributed_s = sum(self.self_ns.values()) / 1e9

    def table(self, server_cpu_s: float) -> List[str]:
        """One line per span name: calls, elements, self CPU, share."""
        lines = []
        for name in sorted(self.self_ns, key=self.self_ns.get, reverse=True):
            seconds = self.self_ns[name] / 1e9
            lines.append(f"  {name:24s} calls={self.calls[name]:<8d} "
                         f"elements={self.count[name]:<10d} "
                         f"self_cpu={seconds:8.4f} s "
                         f"({_ratio(seconds, server_cpu_s) * 100:5.1f}%)")
        return lines

    def ns_per(self, *names: str) -> float:
        """Self CPU nanoseconds per handled element over ``names``."""
        count = sum(self.count[n] for n in names)
        return sum(self.self_ns[n] for n in names) / count if count else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def delta(before: Metrics, after: Metrics, name: str, **labels) -> float:
    return after.get(name, **labels) - before.get(name, **labels)


def delta_mean(before: Metrics, after: Metrics, histogram: str,
               **labels) -> float:
    count = delta(before, after, histogram + "_count", **labels)
    return _ratio(delta(before, after, histogram + "_sum", **labels), count)


def per_layer(spans: Spans, m0: Metrics, m1: Metrics, *,
              server_cpu_window_s: float, server_cpu_load_s: float,
              acked_elements: int, written_elements: int,
              client_cpu_s: float, client_requests: int,
              late_p99_ms: float, recovery: Optional[Metrics] = None,
              recover_s: float = 0.0) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    flushes = delta(m0, m1, "server_batch_flushes_total", kind="ingest")
    hits = delta(m0, m1, "query_engine_cache_hits_total")
    misses = delta(m0, m1, "query_engine_cache_misses_total")
    label_hits, label_misses = spans.label_hits, spans.label_misses
    dedup_keys = spans.count["kernels.dedup"]
    unattributed = server_cpu_window_s - spans.attributed_s
    replayed = recovery.get("recovery_replayed_elements_total") \
        if recovery is not None else 0.0
    replay_s = recovery.get("recovery_seconds_sum") \
        if recovery is not None else 0.0
    out = {
        "client.cpu_us_per_req": (
            _ratio(client_cpu_s * 1e6, client_requests), "us"),
        "client.late_p99_ms": (late_p99_ms, "ms"),
        "server.cpu_us_per_elem": (
            _ratio(server_cpu_load_s * 1e6, acked_elements), "us"),
        "ledger.attributed_share": (
            _ratio(spans.attributed_s, server_cpu_window_s), "ratio"),
        "http.json_decode_ns_per_elem": (
            spans.ns_per("http.json_decode"), "ns"),
        "http.unattributed_us_per_req": (
            _ratio(max(unattributed, 0.0) * 1e6, spans.requests), "us"),
        "wire.decode_ns_per_elem": (spans.ns_per("wire.decode_frame"), "ns"),
        "wire.bytes_per_elem": (
            _ratio(spans.extra["wire.decode_frame"],
                   spans.count["wire.decode_frame"]), "B"),
        "labels.ns_per_label": (spans.ns_per("labels.label_keys"), "ns"),
        "labels.cache_hit_ratio": (
            _ratio(label_hits, label_hits + label_misses), "ratio"),
        "coalescer.stage_ns_per_elem": (
            spans.ns_per("coalescer.ingest_add"), "ns"),
        "coalescer.elems_per_flush": (
            delta_mean(m0, m1, "server_batch_elements", kind="ingest"),
            "count"),
        "coalescer.reqs_per_flush": (
            _ratio(delta(m0, m1, "server_requests_total",
                         endpoint="ingest", status="200"), flushes),
            "count"),
        "coalescer.deadline_flush_share": (
            _ratio(delta(m0, m1, "server_batch_flushes_total",
                         kind="ingest", reason="deadline"), flushes),
            "ratio"),
        "coalescer.barrier_flushes": (
            delta(m0, m1, "server_batch_flushes_total", kind="ingest",
                  reason="barrier")
            + delta(m0, m1, "server_batch_flushes_total", kind="ingest",
                    reason="explicit"), "count"),
        "coalescer.wait_ms_mean": (
            delta_mean(m0, m1, "server_batch_wait_seconds") * 1e3, "ms"),
        "wal.append_ns_per_elem": (spans.ns_per("wal.append"), "ns"),
        "wal.commit_ms_mean": (
            delta_mean(m0, m1, "wal_group_commit_seconds") * 1e3, "ms"),
        "wal.records_per_group": (
            delta_mean(m0, m1, "wal_group_commit_records"), "count"),
        "wal.bytes_per_elem": (
            _ratio(delta(m0, m1, "wal_bytes_total"), written_elements), "B"),
        "wal.fsyncs": (delta(m0, m1, "wal_fsyncs_total"), "count"),
        "wal.fsync_ms_mean": (
            delta_mean(m0, m1, "wal_fsync_seconds") * 1e3, "ms"),
        "recovery.replay_ns_per_elem": (_ratio(replay_s * 1e9, replayed),
                                        "ns"),
        "recovery.recover_s": (recover_s, "s"),
        "tcm.ingest_ns_per_elem": (spans.ns_per("tcm.ingest"), "ns"),
        "tcm.remove_ns_per_elem": (spans.ns_per("tcm.remove"), "ns"),
        "hash.ns_per_key": (spans.ns_per("hash.bulk"), "ns"),
        "kernels.scatter_ns_per_elem": (
            spans.ns_per("kernels.scatter"), "ns"),
        "kernels.dedup_ns_per_key": (spans.ns_per("kernels.dedup"), "ns"),
        "kernels.dedup_ratio": (
            _ratio(spans.extra["kernels.dedup"], dedup_keys), "ratio"),
        "query.edge_us_per_pair": (spans.ns_per("query.edge") / 1e3, "us"),
        "query.flow_us_per_node": (spans.ns_per("query.flow") / 1e3, "us"),
        "query.reach_us_per_pair": (
            spans.ns_per("query.reach") / 1e3, "us"),
        "query_engine.cache_hit_ratio": (_ratio(hits, hits + misses),
                                         "ratio"),
        "query_engine.index_build_ms_mean": (
            delta_mean(m0, m1, "query_engine_index_build_seconds") * 1e3,
            "ms"),
        "query_engine.invalidations": (
            delta(m0, m1, "query_engine_cache_invalidations_total"),
            "count"),
        "window.observe_ns_per_elem": (spans.ns_per("window.observe"), "ns"),
        "window.merge_ms_mean": (
            _ratio(spans.self_ns["window.merge"] / 1e6,
                   spans.calls["window.merge"]), "ms"),
        "window.rotations": (delta(m0, m1, "window_rotations_total"),
                             "count"),
    }
    return out


def check_ledger(spans: Spans, server_cpu_window_s: float) -> None:
    """Attributed self time above the measured CPU means double counting."""
    if spans.attributed_s > server_cpu_window_s + LEDGER_SLACK_S:
        raise BenchError(
            f"ledger over-attributes: spans claim {spans.attributed_s:.3f}"
            f" s of self CPU, the server used {server_cpu_window_s:.3f} s")
