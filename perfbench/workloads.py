"""The three workloads: inputs from a seed, drivers, oracles, probes.

Every workload is generated in full from ``--seed`` before any clock
starts.  A driver sends the pre-built request bytes over at most two
keep-alive connections (sized for a two-core host: the client gets one
event loop, the server the other core) and records, per request, its
kind, the time it was due or sent, the time its response arrived and
its status.  The oracle is an in-process ``TCM`` / ``RotatingWindowTCM``
with the tenant's config and seed, fed the acknowledged columns only;
with unit weights every cell is an exact integer in float64, so the
server must match it bit for bit however its coalescer grouped the
requests.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import REFERENCE_SPEED, BenchError, Conn, host_speed, http_request

TENANT = "bench"
CONNECTIONS = 2
#: Load before the measured window (label cache, query caches, page
#: faults in the sketch matrices); acked and checked, never timed.
WARMUP_S = 1.0
#: A closed loop pauses about this often, with nothing in flight, to read
#: the host's speed (see ``LoadStats.scale``).
SEGMENT_S = 2.0
#: Verification reads after the load; bulk-binary's only reads, so its
#: query p95 has six chunks of 200 (see common.tail).
PROBE_REQUESTS = 1200

_WIRE = "application/x-tcm-columnar"


def _ingest_path() -> str:
    return f"/sketches/{TENANT}/ingest"


@dataclass
class Record:
    """One request as the client saw it."""
    kind: str           # "ingest", "remove", "query", "advance"
    elements: int
    start: float        # due time (open loop) or send time (closed loop)
    sent: float
    done: float
    status: int


@dataclass
class LoadStats:
    """The measured window of one load phase."""
    records: List[Record] = field(default_factory=list)
    t0: float = 0.0       # start of the measured window
    t1: float = 0.0       # last measured response
    lateness: List[float] = field(default_factory=list)
    #: Closed loops only: (start, end, host speed) of each measured
    #: segment, the speed the mean of the readings on either side.
    segments: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Client CPU spent on the readings, not on the load.
    reading_cpu_s: float = 0.0
    _open: Optional[Tuple[float, float]] = None

    def measured(self) -> List[Record]:
        return [r for r in self.records if r.start >= self.t0]

    def mark(self, last: bool = False) -> None:
        """Close the open segment, read the host's speed, open the next.

        Called with nothing in flight, so the reading competes with no
        request and no request waits for it.
        """
        end = time.perf_counter()
        cpu = time.process_time()
        speed = host_speed()
        self.reading_cpu_s += time.process_time() - cpu
        if self._open is not None:
            start, before = self._open
            self.segments.append((start, end, (before + speed) / 2))
        self._open = None if last else (time.perf_counter(), speed)

    def scale(self, t: float) -> float:
        """Host speed over ``REFERENCE_SPEED`` in the segment holding t.

        A closed loop keeps the server's CPU busy, so its rates and
        latencies follow the host's speed; a time taken at t times this
        factor, or a rate divided by it, reads as on the reference host.
        1 outside any segment: the open loop's rate and much of its
        latency are set by its schedule, the coalescer's timers and the
        disk, not by the host's speed.
        """
        for start, end, speed in self.segments:
            if start <= t < end:
                return speed / REFERENCE_SPEED
        return 1.0


# -- the probe (every workload) ---------------------------------------------

@dataclass
class Probe:
    """Verification reads: per request its kind, items and request bytes."""
    kinds: List[str]
    items: List[Tuple[np.ndarray, Optional[np.ndarray]]]
    requests: List[bytes]


def _probe_plan(rng, endpoints: Callable[[int], Tuple[np.ndarray,
                                                       np.ndarray]]):
    """(kind, sources, targets) per probe request, edges half seen."""
    plan = []
    kinds = ("edge", "outflow", "inflow", "reach")
    for i in range(PROBE_REQUESTS):
        kind = kinds[i % 4]
        size = 4 if kind == "reach" else 16
        seen_src, seen_dst = endpoints(size)
        if kind in ("edge", "reach"):
            plan.append((kind, seen_src, seen_dst))
        else:
            plan.append((kind, np.concatenate((seen_src[:size // 2],
                                               seen_dst[size // 2:])), None))
    return plan


def binary_probe(rng, endpoints) -> Probe:
    from repro.server import wire
    kinds, items, requests = [], [], []
    for kind, src, dst in _probe_plan(rng, endpoints):
        body = wire.encode_query(TENANT, kind, src, dst)
        kinds.append(kind)
        items.append((src, dst))
        requests.append(http_request("POST", f"/sketches/{TENANT}/query",
                                     body, _WIRE, accept=_WIRE))
    return Probe(kinds, items, requests)


def json_probe(rng, endpoints, labels: Sequence[str],
               keys: np.ndarray) -> Probe:
    """Probe in string labels; ``items`` keep the matching keys."""
    kinds, items, requests = [], [], []
    for kind, src, dst in _probe_plan(rng, endpoints):
        if dst is None:
            payload = {"kind": kind, "nodes": [labels[i] for i in src]}
            items.append((keys[src], None))
        else:
            payload = {"kind": kind, "pairs": [[labels[s], labels[t]]
                                               for s, t in zip(src, dst)]}
            items.append((keys[src], keys[dst]))
        kinds.append(kind)
        requests.append(http_request(
            "POST", f"/sketches/{TENANT}/query",
            json.dumps(payload).encode()))
    return Probe(kinds, items, requests)


def oracle_answers(sketch, kind: str, src: np.ndarray,
                   dst: Optional[np.ndarray]) -> np.ndarray:
    keys_src = [int(x) for x in src]
    if kind == "edge":
        return np.asarray(sketch.edge_weights(
            list(zip(keys_src, [int(x) for x in dst]))), dtype=np.float64)
    if kind == "reach":
        return np.asarray(sketch.reachable_many(
            list(zip(keys_src, [int(x) for x in dst]))), dtype=np.float64)
    if kind == "outflow":
        return np.asarray(sketch.out_flows(keys_src), dtype=np.float64)
    if kind == "inflow":
        return np.asarray(sketch.in_flows(keys_src), dtype=np.float64)
    raise BenchError(f"unknown probe kind {kind}")


def _decode_answer(body: bytes, binary: bool) -> np.ndarray:
    if binary:
        from repro.server import wire
        return np.asarray(wire.decode_values(body), dtype=np.float64)
    return np.asarray(json.loads(body)["values"], dtype=np.float64)


async def run_probe(conn: Conn, probe: Probe, oracle,
                    binary: bool) -> Tuple[List[Record], List[str]]:
    """Send every probe read, one at a time; compare with the oracle.

    One connection, so each read is answered alone (after the query
    coalescer's deadline) and its latency is that of an isolated read.
    """
    records: List[Record] = []
    mismatches: List[str] = []
    for i, request in enumerate(probe.requests):
        sent = time.perf_counter()
        status, body = await conn.send(request)
        records.append(Record("query", len(probe.items[i][0]), sent, sent,
                              time.perf_counter(), status))
        if status != 200:
            mismatches.append(f"probe {i} answered {status}")
            continue
        got = _decode_answer(body, binary)
        src, dst = probe.items[i]
        want = oracle_answers(oracle, probe.kinds[i], src, dst)
        if not np.array_equal(got, want):
            mismatches.append(f"probe {i} ({probe.kinds[i]}): server "
                              f"{got[:4]} oracle {want[:4]}")
    return records, mismatches


# -- closed loops -------------------------------------------------------------

async def closed_loop(conns: Sequence[Conn], take: Callable[[], Optional[
        Tuple[str, int, Tuple[bytes, ...], object]]], t_end: float,
        stats: LoadStats, on_ack: Callable[[object], None]) -> None:
    """Each connection sends its next request when the last one returns."""
    async def worker(conn: Conn) -> None:
        while True:
            sent = time.perf_counter()
            if sent >= t_end:
                return
            item = take()
            if item is None:
                return
            kind, elements, parts, tag = item
            status, _ = await conn.send(*parts)
            stats.records.append(Record(kind, elements, sent, sent,
                                        time.perf_counter(), status))
            if status == 200:
                on_ack(tag)
    await asyncio.gather(*(worker(c) for c in conns))


class BulkBinary:
    """Closed loop, binary wire, 4096 uniform integer-keyed edges/request.

    One request is exactly the coalescer's default ``max_batch``, so it
    is flushed by size on arrival and the server's CPU is busy all run.
    Were two requests to fill a batch, each flush would wait for the
    other connection's request, and a run would settle by chance into a
    size-flushed (p50 1.3 ms at 2048 edges) or a deadline-flushed rhythm
    (p50 2.1 ms, a third less throughput) for its whole length.
    """

    name = "bulk-binary"
    binary = True
    durable = False
    elements = 4096
    pool = 256

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        from repro.server import wire
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.elements = max(16, int(self.elements * scale))
        n = self.elements
        self.src = rng.integers(0, 1 << 40, size=(self.pool, n),
                                dtype=np.uint64)
        self.dst = rng.integers(0, 1 << 40, size=(self.pool, n),
                                dtype=np.uint64)
        self.requests = [
            http_request("POST", _ingest_path(),
                         wire.encode_ingest(TENANT, self.src[k],
                                            self.dst[k]), _WIRE)
            for k in range(self.pool)]
        self.acked = np.zeros(self.pool, dtype=np.int64)

        def endpoints(size):
            k = int(rng.integers(self.pool))
            at = rng.integers(n, size=size // 2)
            fresh = rng.integers(0, 1 << 40, size=(2, size - size // 2),
                                 dtype=np.uint64)
            return (np.concatenate((self.src[k, at], fresh[0])),
                    np.concatenate((self.dst[k, at], fresh[1])))
        self.probe = binary_probe(rng, endpoints)

    def config(self) -> Dict:
        return {"kind": "tcm", "d": 4, "width": 256,
                "seed": self.seed % (1 << 31)}

    async def drive(self, conns, seconds: float) -> LoadStats:
        stats = LoadStats()
        counter = iter(range(1 << 62))
        pool, n, requests = self.pool, self.elements, self.requests

        def take():
            k = next(counter) % pool
            return "ingest", n, (requests[k],), k

        def on_ack(k):
            self.acked[k] += 1
        await closed_loop(conns, take, time.perf_counter() + WARMUP_S,
                          stats, on_ack)
        segments = max(1, round(seconds / SEGMENT_S))
        stats.mark()
        stats.t0 = time.perf_counter()
        for k in range(segments):
            await closed_loop(conns, take,
                              time.perf_counter() + seconds / segments,
                              stats, on_ack)
            stats.mark(last=k == segments - 1)
        stats.t1 = max(r.done for r in stats.records)
        return stats

    def oracle(self):
        from repro.core.tcm import TCM
        cfg = self.config()
        sketch = TCM(d=cfg["d"], width=cfg["width"], seed=cfg["seed"])
        for k in np.flatnonzero(self.acked):
            sketch.ingest_keys(self.src[k], self.dst[k],
                               np.full(self.elements,
                                       float(self.acked[k])))
        return sketch


# -- flows over JSON into a window tenant -----------------------------------

class FlowsJsonWindow:
    """Closed loop, JSON, Zipf string labels, window tenant with time.

    A request carries 4096 edges (8192 labels), the coalescer's default
    ``max_batch``, for the reason ``BulkBinary`` gives: flushed by size
    on arrival, the server's CPU is busy all run instead of waiting on
    the 2 ms flush timer between requests.
    """

    name = "flows-json-window"
    binary = False
    durable = False
    edges = 4096          # 8192 labels per request
    pool = 128
    universe = 200_000    # distinct labels, below the 2**20 cache cap
    zipf_s = 1.1
    epoch_requests = 16   # requests sharing one timestamp
    advance_every = 4     # epochs between explicit advance requests
    query_every = 12      # one request in 12 is a read
    horizon = 8.0
    buckets = 8
    ts0 = 100000          # six digits: every timestamp has one width

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        from repro.hashing.labels import label_keys
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.edges = max(16, int(self.edges * scale))
        universe = max(1000, int(self.universe * scale))
        ids = rng.choice(1 << 24, size=universe, replace=False)
        self.labels = [f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"
                       for i in ids.tolist()]
        self.keys = label_keys(self.labels)
        weights = 1.0 / np.arange(1, universe + 1) ** self.zipf_s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        rank_to_label = rng.permutation(universe)

        def draw(shape):
            ranks = np.minimum(np.searchsorted(cdf, rng.random(shape)),
                               universe - 1)
            return rank_to_label[ranks]
        n = self.edges
        self.src = draw((self.pool, n))
        self.dst = draw((self.pool, n))
        self.prefix: List[bytes] = []
        for k in range(self.pool):
            self.prefix.append(
                b'{"sources": '
                + json.dumps([self.labels[i] for i in self.src[k]]).encode()
                + b', "targets": '
                + json.dumps([self.labels[i] for i in self.dst[k]]).encode()
                + b', "timestamps": ')
        # Timestamps for every epoch the run can reach (2 M edges/s is
        # several times what a JSON closed loop sustains here).
        max_epochs = int((WARMUP_S + seconds) * 2e6 / n
                         / self.epoch_requests) + 2
        self.ts_bytes = [("[" + ", ".join([str(self.ts0 + e)] * n)
                          + "]}").encode() for e in range(max_epochs)]
        ts_len = len(self.ts_bytes[0])
        self.heads = [http_request("POST", _ingest_path(), b"x" * (
            len(p) + ts_len))[:-(len(p) + ts_len)] for p in self.prefix]
        self.queries: List[bytes] = []
        for q in range(96):
            kind = ("outflow", "inflow", "edge")[q % 3]
            a, b = draw(64), draw(64)
            if kind == "edge":
                payload = {"kind": kind, "pairs": [
                    [self.labels[s], self.labels[t]] for s, t in zip(a, b)]}
            else:
                payload = {"kind": kind, "nodes": [self.labels[s]
                                                   for s in a]}
            self.queries.append(http_request(
                "POST", f"/sketches/{TENANT}/query",
                json.dumps(payload).encode()))
        self.advances = [http_request(
            "POST", f"/sketches/{TENANT}/advance",
            json.dumps({"timestamp": self.ts0 + e}).encode())
            for e in range(max_epochs)]
        #: per epoch: (advanced, {pool index: acked count})
        self.epochs: List[Tuple[bool, Dict[int, int]]] = []

        def endpoints(size):
            k = int(rng.integers(self.pool))
            at = rng.integers(n, size=size // 2)
            fresh = draw((2, size - size // 2))
            return (np.concatenate((self.src[k, at], fresh[0])),
                    np.concatenate((self.dst[k, at], fresh[1])))
        self.probe = json_probe(rng, endpoints, self.labels, self.keys)

    def config(self) -> Dict:
        return {"kind": "window", "horizon": self.horizon,
                "buckets": self.buckets, "d": 4, "width": 256,
                "seed": self.seed % (1 << 31)}

    async def drive(self, conns, seconds: float) -> LoadStats:
        stats = LoadStats()
        warm_end = time.perf_counter() + WARMUP_S
        t_end = float("inf")     # until the warm-up is over
        opened = 0.0             # start of the open segment
        n = self.edges
        body_cursor = 0
        query_cursor = 0
        request_no = 0
        epoch = 0
        while True:
            # Segments open and close between epochs, with nothing in
            # flight; the measured window opens after the warm-up.
            now = time.perf_counter()
            if now >= t_end:
                stats.mark(last=True)
                break
            if t_end == float("inf"):
                if now >= warm_end:
                    stats.mark()
                    stats.t0 = opened = time.perf_counter()
                    t_end = stats.t0 + seconds
            elif now - opened >= SEGMENT_S:
                stats.mark()
                opened = time.perf_counter()
            if epoch >= len(self.ts_bytes):
                raise BenchError("ran past the pre-generated timestamps")
            ts = self.ts_bytes[epoch]
            advanced = epoch > 0 and epoch % self.advance_every == 0
            acked: Dict[int, int] = {}
            self.epochs.append((advanced, acked))
            if advanced:
                # Nothing is in flight here: the previous epoch drained.
                sent = time.perf_counter()
                status, _ = await conns[0].send(self.advances[epoch])
                stats.records.append(Record("advance", 0, sent, sent,
                                            time.perf_counter(), status))
                if status != 200:
                    raise BenchError(f"advance answered {status}")
            items = []
            for _ in range(self.epoch_requests):
                request_no += 1
                if request_no % self.query_every == 0:
                    items.append(("query", 64, (self.queries[
                        query_cursor % len(self.queries)],), None))
                    query_cursor += 1
                else:
                    k = body_cursor % self.pool
                    body_cursor += 1
                    items.append(("ingest", n, (self.heads[k],
                                                self.prefix[k], ts), k))
            it = iter(items)

            def on_ack(k, acked=acked):
                if k is not None:
                    acked[k] = acked.get(k, 0) + 1
            # The epoch's requests share one timestamp; the next epoch
            # starts only when both connections are idle, so no request
            # ever carries a timestamp behind the window's watermark.
            await closed_loop(conns, lambda: next(it, None), t_end, stats,
                              on_ack)
            epoch += 1
        stats.t1 = max(r.done for r in stats.records)
        return stats

    def oracle(self):
        from repro.streams.rotating import RotatingWindowTCM
        cfg = self.config()
        window = RotatingWindowTCM(horizon=cfg["horizon"],
                                   buckets=cfg["buckets"], d=cfg["d"],
                                   width=cfg["width"], seed=cfg["seed"])
        span = self.horizon / self.buckets
        # The watermark is the last epoch that advanced or landed data (a
        # run can end just after opening an epoch with nothing sent).
        last = max(e for e, (advanced, acked) in enumerate(self.epochs)
                   if advanced or acked)
        final = int(np.floor((self.ts0 + last) / span))
        n = self.edges
        for e, (advanced, acked) in enumerate(self.epochs):
            ts = float(self.ts0 + e)
            # Buckets older than the ring are gone from the server too.
            if int(np.floor(ts / span)) < final - self.buckets:
                continue
            if advanced:
                window.advance_to(ts)
            for k, count in sorted(acked.items()):
                window.observe_columns(self.keys[self.src[k]],
                                       self.keys[self.dst[k]],
                                       np.full(n, float(count)),
                                       np.full(n, ts))
        return window


# -- durable mixed open loop --------------------------------------------------

class DurableMixed:
    """Open loop at a fixed rate, binary, durable tcm tenant, crash test."""

    name = "durable-mixed"
    binary = True
    durable = True
    #: Offered requests per second, well below what a two-vCPU host
    #: sustains for the mix: writes come every 12.5 ms, longer than a reach stall, so
    #: stalls do not cascade (see perfbench/README.md).
    rate = 100.0
    read_share = 0.2
    remove_share = 0.15   # of writes
    ingest_edges = 256
    remove_edges = 64
    nodes = 1 << 16
    #: Distinct edges the traffic repeats over (a fixed flow topology):
    #: the sketch graph stops growing after warm-up, so the reachability
    #: index a write invalidates costs the same all run long.
    topology = 4096
    remove_lag_s = 1.0    # removes target ingests due this much earlier

    def __init__(self, seed: int, seconds: float, scale: float = 1.0):
        from repro.server import wire
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.ingest_edges = max(16, int(self.ingest_edges * scale))
        self.remove_edges = max(4, int(self.remove_edges * scale))
        total = int((WARMUP_S + seconds) * self.rate)
        lag = int(self.remove_lag_s * self.rate)
        q_path = f"/sketches/{TENANT}/query"
        #: (due offset, conn, kind, elements, request, ingest index)
        self.schedule: List[Tuple[float, int, str, int, bytes, int]] = []
        self.ingest_src: List[np.ndarray] = []
        self.ingest_dst: List[np.ndarray] = []
        ingest_at: List[int] = []       # schedule position per ingest
        next_removable = 0
        self.removes: List[int] = []    # ingest index per remove
        # Reach rebuilds the connectivity index a write invalidated (~10
        # ms here).  One read in twelve stalls the loop under 2% of the
        # time: few enough writes wait behind it that the write p95 stays
        # clear of the stall instead of straddling it.
        reads = ("edge", "outflow") * 5 + ("edge", "reach")
        read_no = 0
        edge_src = rng.integers(self.nodes, size=self.topology,
                                dtype=np.uint64)
        edge_dst = rng.integers(self.nodes, size=self.topology,
                                dtype=np.uint64)
        for i in range(total):
            due = i / self.rate
            u = rng.random()
            if u < self.read_share:
                kind = reads[read_no % len(reads)]
                read_no += 1
                size = 8 if kind == "reach" else 32
                src = rng.integers(self.nodes, size=size, dtype=np.uint64)
                dst = (rng.integers(self.nodes, size=size, dtype=np.uint64)
                       if kind != "outflow" else None)
                body = wire.encode_query(TENANT, kind, src, dst)
                self.schedule.append((due, 1, "query", size, http_request(
                    "POST", q_path, body, _WIRE, accept=_WIRE), -1))
                continue
            if (rng.random() < self.remove_share
                    and next_removable < len(ingest_at)
                    and ingest_at[next_removable] <= i - lag):
                j = next_removable
                next_removable += 1
                m = self.remove_edges
                body = wire.encode_remove(TENANT, self.ingest_src[j][:m],
                                          self.ingest_dst[j][:m])
                self.removes.append(j)
                self.schedule.append((due, 0, "remove", m, http_request(
                    "POST", f"/sketches/{TENANT}/remove", body, _WIRE), j))
                continue
            pick = rng.integers(self.topology, size=self.ingest_edges)
            src, dst = edge_src[pick], edge_dst[pick]
            ingest_at.append(i)
            self.ingest_src.append(src)
            self.ingest_dst.append(dst)
            self.schedule.append((due, 0, "ingest", self.ingest_edges,
                                  http_request("POST", _ingest_path(),
                                               wire.encode_ingest(
                                                   TENANT, src, dst),
                                               _WIRE),
                                  len(self.ingest_src) - 1))
        self.ingest_acked = np.zeros(len(self.ingest_src), dtype=bool)
        self.remove_acked = np.zeros(len(self.ingest_src), dtype=bool)

        def endpoints(size):
            j = int(rng.integers(len(self.ingest_src)))
            at = rng.integers(self.ingest_edges, size=size // 2)
            fresh = rng.integers(self.nodes, size=(2, size - size // 2),
                                 dtype=np.uint64)
            return (np.concatenate((self.ingest_src[j][at], fresh[0])),
                    np.concatenate((self.ingest_dst[j][at], fresh[1])))
        self.probe = binary_probe(rng, endpoints)

    def config(self) -> Dict:
        return {"kind": "tcm", "d": 4, "width": 256,
                "seed": self.seed % (1 << 31)}

    async def drive(self, conns, seconds: float) -> LoadStats:
        stats = LoadStats()
        loop = asyncio.get_running_loop()
        acks = [loop.create_future() for _ in self.ingest_src]
        start = time.perf_counter() + 0.05
        stats.t0 = start + WARMUP_S

        async def feeder(conn: Conn, which: int) -> None:
            free = time.perf_counter()
            for due_off, c, kind, elements, request, j in self.schedule:
                if c != which:
                    continue
                due = start + due_off
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if kind == "remove" and not acks[j].done():
                    await acks[j]
                sent = time.perf_counter()
                if due >= stats.t0:
                    stats.lateness.append(max(0.0, sent - max(due, free)))
                status, _ = await conn.send(request)
                free = time.perf_counter()
                stats.records.append(Record(kind, elements, due, sent, free,
                                            status))
                if kind == "ingest":
                    self.ingest_acked[j] = status == 200
                    acks[j].set_result(status)
                elif kind == "remove":
                    self.remove_acked[j] = status == 200
        await asyncio.gather(feeder(conns[0], 0), feeder(conns[1], 1))
        stats.t1 = max(r.done for r in stats.records)
        return stats

    def oracle(self):
        from repro.core.tcm import TCM
        cfg = self.config()
        sketch = TCM(d=cfg["d"], width=cfg["width"], seed=cfg["seed"])
        for j in np.flatnonzero(self.ingest_acked):
            sketch.ingest_keys(self.ingest_src[j], self.ingest_dst[j])
        m = self.remove_edges
        for j in np.flatnonzero(self.remove_acked):
            sketch.remove_many(self.ingest_src[j][:m], self.ingest_dst[j][:m])
        return sketch


WORKLOADS = {cls.name: cls for cls in (BulkBinary, FlowsJsonWindow,
                                       DurableMixed)}
