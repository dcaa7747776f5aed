"""The stdlib-only asyncio HTTP/JSON front end (``tcm serve``).

One event loop, hand-rolled HTTP/1.1 with keep-alive, JSON bodies.  The
handler's job is deliberately thin: parse, **pre-hash labels to uint64
keys**, hand the columns to the tenant's coalescer, await the shared
batch's future, serialize.  All sketch work happens in the coalescer
flushes (see :mod:`repro.server.coalescer`).

Endpoints (docs/SERVER.md, docs/API.md):

- ``GET /healthz`` -- liveness.
- ``GET /metrics`` -- Prometheus text exposition of the process registry.
- ``GET /stats`` -- JSON: per-endpoint latency quantiles (via
  :func:`repro.obs.runtime.latency_quantiles`), per-sketch info and the
  process's RSS and minor page faults.
- ``GET /sketches`` | ``PUT/GET/DELETE /sketches/{name}`` -- registry.
- ``POST /sketches/{name}/ingest`` -- ``{sources, targets, weights?,
  timestamps?}``; acknowledged when its micro-batch lands.
- ``POST /sketches/{name}/remove`` -- deletions (kind="tcm").
- ``POST /sketches/{name}/query`` -- ``{kind, pairs|nodes}``; coalesced
  per query family.
- ``POST /sketches/{name}/advance`` -- ``{timestamp}`` (kind="window").

With ``data_dir`` set the server is **durable**: tenant mutations are
write-ahead-logged before they are acked, snapshots truncate the log in
the background, and startup replays snapshot+tail back to the pre-crash
state (see :mod:`repro.server.durability`).

Under overload the server **degrades instead of melting**: a loop-lag
probe drives an admission controller that sheds expensive query classes
first, then ingest, with ``429 Too Many Requests`` + ``Retry-After``;
a connection cap turns accept storms into fast 503s; a bounded staging
buffer backstops the coalescer (:class:`~repro.server.coalescer.
BacklogExceeded` also maps to 429).
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from email.utils import formatdate
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.kernels import check_weights
from repro.hashing.labels import label_key, label_keys
from repro.obs.instruments import OBS, REGISTRY
from repro.server import wire
from repro.server.coalescer import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY,
    QUERY_KINDS,
    BacklogExceeded,
)
from repro.server.registry import SketchRegistry

_MAX_BODY = 64 * 1024 * 1024
_STATUS_TEXT = {200: "OK", 201: "Created", 204: "No Content",
                400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 409: "Conflict",
                413: "Payload Too Large",
                421: "Misdirected Request", 429: "Too Many Requests",
                500: "Internal Server Error", 503: "Service Unavailable"}

#: ``Date`` header cache: (whole second, formatted header value).  The
#: hot response path re-formats the RFC 5322 date only once per second
#: instead of per request (visible in server profiles at high req/s).
_DATE_CACHE: Tuple[int, str] = (-1, "")


def _date_header() -> str:
    global _DATE_CACHE
    now = int(time.time())
    cached = _DATE_CACHE
    if cached[0] != now:
        cached = (now, formatdate(now, usegmt=True))
        _DATE_CACHE = cached
    return cached[1]

#: Query kinds the admission controller sheds first under load: they
#: build whole-graph indexes (closure bitsets) rather than probing a few
#: cells, so one of them can cost thousands of edge lookups.
EXPENSIVE_QUERY_KINDS = frozenset({"reach"})


class _HTTPError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class _ShedError(_HTTPError):
    """Load shed: 429 with a Retry-After hint (not a client mistake)."""

    def __init__(self, reason: str, retry_after: float,
                 message: Optional[str] = None):
        super().__init__(429, message or
                         f"overloaded ({reason}); retry after "
                         f"{retry_after:.3f}s")
        self.reason = reason
        self.retry_after = retry_after


class BackpressureController:
    """Loop-lag sensing + tiered admission control.

    The single-threaded server's honest overload signal is how late the
    event loop runs its callbacks: staged batches cannot pile up (the
    size trigger flushes synchronously), but a loop that is saturated
    with flush work and socket churn services everything late.  A
    periodic probe measures that lateness and keeps an EWMA; admission
    is then tiered by how much work a request class costs to serve:

    - ``lag >= 0.5 * lag_limit`` -- shed expensive query classes
      (:data:`EXPENSIVE_QUERY_KINDS`): they amplify load the most.
    - ``lag >= lag_limit`` -- shed ingest too: stop taking on new
      state-changing work.
    - ``lag >= 2 * lag_limit`` -- shed cheap queries as well; only
      health/metrics/admin traffic is still served.

    Shed responses carry ``Retry-After`` derived from the current lag,
    so well-behaved clients space out exactly as much as the server
    needs them to.
    """

    def __init__(self, *, lag_limit: float = 0.25,
                 probe_interval: float = 0.05):
        if lag_limit <= 0:
            raise ValueError(f"lag_limit must be positive, got {lag_limit}")
        self.lag_limit = lag_limit
        self.probe_interval = probe_interval
        self.lag = 0.0
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._probe())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _probe(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(self.probe_interval)
            sample = max(0.0, loop.time() - before - self.probe_interval)
            # Fast-attack, slow-decay EWMA: overload shows up within a
            # couple of probes, recovery is declared a bit lazily so the
            # shed decision does not flap.
            alpha = 0.5 if sample > self.lag else 0.25
            self.lag += alpha * (sample - self.lag)
            if OBS.enabled:
                OBS.server_loop_lag.set(self.lag)

    def retry_after(self) -> float:
        return round(max(2 * self.lag, 0.05), 3)

    def shed_reason(self, cost: str) -> Optional[str]:
        """``None`` to admit, else the shed reason for this cost class."""
        lag = self.lag
        if cost == "expensive_query":
            if lag >= 0.5 * self.lag_limit:
                return "query_class"
        elif cost == "ingest":
            if lag >= self.lag_limit:
                return "lag"
        elif cost == "cheap_query":
            if lag >= 2 * self.lag_limit:
                return "lag"
        return None


def _parse_labels(body: Dict, field: str) -> np.ndarray:
    values = body.get(field)
    if not isinstance(values, list):
        raise _HTTPError(400, f"'{field}' must be a list")
    try:
        return label_keys(values)
    except (TypeError, UnicodeEncodeError) as exc:
        raise _HTTPError(400, f"bad label in '{field}': {exc}")


def _parse_floats(body: Dict, field: str, n: int,
                  default: Optional[float]) -> Optional[np.ndarray]:
    values = body.get(field)
    if values is None:
        if default is None:
            return None
        return np.full(n, default)
    if not isinstance(values, list) or len(values) != n:
        raise _HTTPError(
            400, f"'{field}' must be a list of {n} numbers")
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise _HTTPError(400, f"'{field}' must be numeric")


def _check_columns(weights: Optional[np.ndarray], timestamps: Any = None,
                   kind: str = "stream") -> None:
    """400 unless every weight is finite and >= 0 and every timestamp
    finite.

    Runs per request, before staging: a bad column must fail only its
    own request, never the micro-batch it would join or the WAL.
    """
    if weights is not None:
        try:
            check_weights(weights, kind)
        except ValueError as exc:
            raise _HTTPError(400, f"bad 'weights': {exc}")
    if timestamps is not None and not np.isfinite(timestamps).all():
        raise _HTTPError(400, "'timestamps' must be finite numbers")


class SketchServer:
    """The asyncio service; owns a registry and a listening socket."""

    def __init__(self, registry: Optional[SketchRegistry] = None, *,
                 host: str = "127.0.0.1", port: int = 8765,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay: float = DEFAULT_MAX_DELAY,
                 batching: bool = True,
                 max_body: int = _MAX_BODY,
                 max_backlog: Optional[int] = None,
                 max_connections: int = 512,
                 lag_limit: float = 0.25,
                 data_dir: Optional[str] = None,
                 fsync: str = "interval",
                 fsync_interval: float = 0.05,
                 rotate_bytes: int = 64 * 1024 * 1024,
                 snapshot_interval: Optional[float] = 30.0,
                 faults=None,
                 shard=None):
        if max_backlog is None:
            # Default bound: several full batches of headroom -- never
            # hit while flushes are healthy, sheds when they are not.
            max_backlog = 8 * max_batch
        self.registry = registry if registry is not None else SketchRegistry(
            max_batch=max_batch, max_delay=max_delay, batching=batching,
            max_backlog=max_backlog)
        self.host = host
        self.port = port
        self.batching = self.registry.batching
        self.max_body = max_body
        self.max_connections = max_connections
        self.backpressure = BackpressureController(lag_limit=lag_limit)
        self.snapshot_interval = snapshot_interval
        self.durability = None
        self.recovery_report: Optional[Dict[str, Any]] = None
        if data_dir is not None:
            from repro.server.durability import DurabilityManager
            from repro.server.faults import FaultPlan
            if faults is None:
                faults = FaultPlan.from_env()
            self.durability = DurabilityManager(
                data_dir, fsync=fsync, fsync_interval=fsync_interval,
                rotate_bytes=rotate_bytes, faults=faults)
            self.registry.durability = self.durability
        #: Optional :class:`repro.server.sharding.ShardInfo`.  When set,
        #: this server is one worker of a sharded deployment: tenant
        #: routes it does not own answer 421 with the owner's address,
        #: and ``/cluster`` reports the topology.
        self.shard = shard
        self._server: Optional[asyncio.AbstractServer] = None
        self._direct_server: Optional[asyncio.AbstractServer] = None
        self.direct_port: Optional[int] = None
        self._snapshot_task: Optional[asyncio.Task] = None
        self._connections = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, reuse_port: bool = False,
                    direct_port: Optional[int] = None) -> int:
        """Recover (if durable), bind and listen; returns the port.

        ``reuse_port`` binds with ``SO_REUSEPORT`` so sibling worker
        processes can share the port (the kernel load-balances accepted
        connections).  ``direct_port`` additionally binds a second,
        worker-private listener on that port (0 for ephemeral) -- the
        address shard-aware clients use to reach this worker directly.
        """
        if self.durability is not None and self.recovery_report is None:
            self.recovery_report = self.durability.recover(self.registry)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            reuse_port=reuse_port or None)
        self.port = self._server.sockets[0].getsockname()[1]
        if direct_port is not None:
            self._direct_server = await asyncio.start_server(
                self._handle_connection, self.host, direct_port)
            self.direct_port = \
                self._direct_server.sockets[0].getsockname()[1]
        self.backpressure.start()
        if self.durability is not None and self.batching:
            # Group-commit pipelining rides the coalescer's deferred
            # acks.  In --no-batching mode every request needs its WAL
            # write result synchronously (fail-fast: a rejected append
            # must surface *before* the sketch mutates), so the plain
            # inline append path stays in force there.
            self.durability.start_pipeline()
        if self.durability is not None and self.snapshot_interval:
            self._snapshot_task = asyncio.get_running_loop().create_task(
                self._snapshot_loop())
        return self.port

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_interval)
            try:
                await self.durability.snapshot_all_async(self.registry)
            except OSError:
                # A sick disk must not kill the loop; the next interval
                # retries and the WAL keeps the data recoverable.
                pass

    async def stop(self) -> None:
        """Drain every coalescer, sync the WALs, close the socket."""
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            try:
                await self._snapshot_task
            except asyncio.CancelledError:
                pass
            self._snapshot_task = None
        await self.backpressure.stop()
        self.registry.drain_all()
        if self.durability is not None:
            # Commit every staged group (resolving the drained futures)
            # before the final sync -- the pipeline owns the WAL files
            # while it runs.
            await self.durability.stop_pipeline()
            self.durability.sync_all(self.registry)
            self.durability.close_all(self.registry)
        for server in (self._server, self._direct_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = None
        self._direct_server = None

    # -- connection loop ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if self._connections >= self.max_connections:
            # Accept storm: answer cheaply and get off the loop.  A 503
            # with Retry-After beats letting the kernel queue grow and
            # every accepted request time out.
            if OBS.enabled:
                OBS.shed_requests.labels("connections").inc()
            retry = self.backpressure.retry_after()
            self._write_response(
                writer, 503,
                {"error": "connection limit reached", "retry_after": retry},
                keep_alive=False,
                headers={"Retry-After": str(max(1, math.ceil(retry)))})
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()
            return
        self._connections += 1
        if OBS.enabled:
            OBS.server_open_connections.inc()
        try:
            while True:
                try:
                    request_line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # Oversized request line: not salvageable, close.
                    break
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                started = time.perf_counter()
                try:
                    method, path, version = \
                        request_line.decode("latin-1").split()
                except ValueError:
                    break
                headers: Dict[str, str] = {}
                malformed: Optional[str] = None
                while True:
                    try:
                        line = await reader.readline()
                    except (ValueError, asyncio.LimitOverrunError):
                        malformed = "oversized header line"
                        line = b""
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                if malformed is not None:
                    self._write_response(
                        writer, 400, {"error": malformed}, keep_alive=False)
                    await writer.drain()
                    break
                try:
                    length = int(headers.get("content-length", "0") or "0")
                    if length < 0:
                        raise ValueError
                except ValueError:
                    self._write_response(
                        writer, 400,
                        {"error": "bad Content-Length header"},
                        keep_alive=False)
                    await writer.drain()
                    break
                if length > self.max_body:
                    # The oversized body is never read, so the stream
                    # cannot be resynced -- close after answering.
                    self._write_response(
                        writer, 413,
                        {"error": f"body too large ({length} > "
                                  f"{self.max_body} bytes)"},
                        keep_alive=False)
                    await writer.drain()
                    break
                raw = await reader.readexactly(length) if length else b""
                endpoint = self._endpoint_family(method, path)
                extra_headers: Optional[Dict[str, str]] = None
                try:
                    status, payload, content_type = \
                        await self._dispatch(method, path, raw, headers)
                except _ShedError as exc:
                    status = exc.status
                    payload = {"error": exc.message,
                               "retry_after": exc.retry_after}
                    content_type = "application/json"
                    extra_headers = {"Retry-After": str(
                        max(1, math.ceil(exc.retry_after)))}
                    if OBS.enabled:
                        OBS.shed_requests.labels(exc.reason).inc()
                except _HTTPError as exc:
                    status, payload = exc.status, {"error": exc.message}
                    content_type = "application/json"
                except (KeyError, LookupError) as exc:
                    status, payload = 404, {"error": str(exc)}
                    content_type = "application/json"
                except ValueError as exc:
                    status, payload = 400, {"error": str(exc)}
                    content_type = "application/json"
                except asyncio.CancelledError:
                    raise
                except OSError as exc:
                    # Durability layer failure (disk full, dying fsync):
                    # the request is not acked, the server stays up.
                    status = 503
                    payload = {"error": f"storage error: {exc}"}
                    content_type = "application/json"
                except Exception as exc:  # noqa: BLE001 -- the 500 boundary
                    status = 500
                    payload = {"error": f"{type(exc).__name__}: {exc}"}
                    content_type = "application/json"
                keep_alive = (version == "HTTP/1.1"
                              and headers.get("connection", "").lower()
                              != "close")
                self._write_response(writer, status, payload, content_type,
                                     keep_alive=keep_alive,
                                     headers=extra_headers)
                await writer.drain()
                if OBS.enabled:
                    OBS.server_requests.labels(endpoint, str(status)).inc()
                    OBS.server_request_seconds.labels(endpoint).observe(
                        time.perf_counter() - started)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self._connections -= 1
            if OBS.enabled:
                OBS.server_open_connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # Teardown-time cancellation (loop shutdown) must not
                # escape the finally -- the connection is gone either way.
                pass

    @staticmethod
    def _endpoint_family(method: str, path: str) -> str:
        parts = [p for p in path.split("?")[0].split("/") if p]
        if not parts:
            return "root"
        if parts[0] in ("healthz", "metrics", "stats"):
            return parts[0]
        if parts[0] == "sketches":
            if len(parts) == 3:
                return parts[2]
            return f"sketches:{method.lower()}"
        return "other"

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        payload: Any,
                        content_type: str = "application/json", *,
                        keep_alive: bool = True,
                        headers: Optional[Dict[str, str]] = None) -> None:
        if isinstance(payload, bytes):
            body = payload
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload).encode("utf-8")
        reason = _STATUS_TEXT.get(status, "Unknown")
        extra = ""
        if headers:
            extra = "".join(f"{name}: {value}\r\n"
                            for name, value in headers.items())
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Date: {_date_header()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{extra}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("latin-1") + body)

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, method: str, path: str, raw: bytes,
                        headers: Optional[Dict[str, str]] = None) \
            -> Tuple[int, Any, str]:
        headers = headers or {}
        path = path.split("?")[0]
        parts = [p for p in path.split("/") if p]
        if path == "/healthz" and method == "GET":
            payload = {"status": "ok",
                       "batching": self.batching,
                       "sketches": len(self.registry),
                       "durable": self.durability is not None,
                       "loop_lag": round(self.backpressure.lag, 6)}
            if self.shard is not None:
                payload["worker"] = self.shard.index
            return 200, payload, "application/json"
        if path == "/metrics" and method == "GET":
            from repro.obs.export import render_prometheus
            from repro.obs.runtime import process_snapshot
            process_snapshot()
            return 200, render_prometheus(REGISTRY), \
                "text/plain; version=0.0.4"
        if path == "/stats" and method == "GET":
            from repro.obs.runtime import latency_quantiles, process_snapshot
            return 200, {"latency": latency_quantiles(REGISTRY),
                         "sketches": self.registry.infos(),
                         "process": process_snapshot()}, \
                "application/json"
        if parts and parts[0] == "cluster" and self.shard is not None:
            return await self._cluster_route(method, parts)
        if parts and parts[0] == "sketches":
            if len(parts) == 1:
                if method != "GET":
                    raise _HTTPError(405, "use GET /sketches")
                return 200, {"sketches": self.registry.names()}, \
                    "application/json"
            name = parts[1]
            if self.shard is not None and len(parts) in (2, 3):
                owner = self.shard.owner(name)
                if owner != self.shard.index:
                    if OBS.enabled:
                        OBS.server_misdirected_requests.inc()
                    return 421, {
                        "error": f"tenant {name!r} is owned by worker "
                                 f"{owner}; redirect to its direct port",
                        "worker": owner,
                        "port": self.shard.ports[owner],
                        "workers": self.shard.count,
                    }, "application/json"
            if len(parts) == 2:
                return await self._sketch_resource(method, name, raw)
            if len(parts) == 3 and method == "POST":
                return await self._sketch_action(name, parts[2], raw,
                                                 headers)
        raise _HTTPError(404, f"no route for {method} {path}")

    async def _cluster_route(self, method: str,
                             parts) -> Tuple[int, Any, str]:
        if len(parts) == 1 and method == "GET":
            return 200, {
                "workers": self.shard.count,
                "worker": self.shard.index,
                "host": self.shard.host,
                "shared_port": self.shard.shared_port,
                "ports": list(self.shard.ports),
                "sketches": self.registry.names(),
            }, "application/json"
        if len(parts) == 2 and parts[1] == "metrics" and method == "GET":
            from repro.obs.runtime import process_snapshot
            from repro.server.sharding import aggregate_metrics
            process_snapshot()
            text = await aggregate_metrics(
                self.shard.host, self.shard.ports, local=self.shard.index,
                local_registry=REGISTRY)
            return 200, text, "text/plain; version=0.0.4"
        raise _HTTPError(404, f"no cluster route for {method}")

    def _json_body(self, raw: bytes) -> Dict:
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"bad JSON body: {exc}")
        except UnicodeDecodeError as exc:
            raise _HTTPError(400, f"body is not valid UTF-8: {exc}")
        if not isinstance(body, dict):
            raise _HTTPError(400, "body must be a JSON object")
        return body

    async def _sketch_resource(self, method: str, name: str,
                               raw: bytes) -> Tuple[int, Any, str]:
        if method == "PUT":
            body = self._json_body(raw)
            kind = body.pop("kind", "tcm")
            if name in self.registry:
                raise _HTTPError(409, f"sketch {name!r} already exists")
            tenant = self.registry.create(name, kind, **body)
            return 201, tenant.info(), "application/json"
        if method == "GET":
            return 200, self.registry.get(name).info(), "application/json"
        if method == "DELETE":
            self.registry.delete(name)
            return 200, {"deleted": name}, "application/json"
        raise _HTTPError(405, f"unsupported method {method} for a sketch")

    def _admit(self, cost: str) -> None:
        reason = self.backpressure.shed_reason(cost)
        if reason is not None:
            raise _ShedError(reason, self.backpressure.retry_after())

    @staticmethod
    async def _durable(tenant) -> None:
        """Await the tenant's group-commit barrier (no-op when plain)."""
        barrier = tenant.durable_barrier()
        if barrier is not None:
            await barrier

    async def _sketch_action(self, name: str, action: str, raw: bytes,
                             headers: Dict[str, str]) \
            -> Tuple[int, Any, str]:
        tenant = self.registry.get(name)
        # Admit before decoding: parsing a large JSON batch costs loop
        # time we cannot afford exactly when we are shedding.  Queries
        # are re-checked at the stricter expensive tier once the kind
        # is known.
        if action == "ingest":
            self._admit("ingest")
        elif action == "query":
            self._admit("cheap_query")
        content_type = headers.get("content-type", "")
        if content_type.partition(";")[0].strip().lower() == \
                wire.CONTENT_TYPE:
            return await self._sketch_action_wire(tenant, action, raw,
                                                  headers)
        body = self._json_body(raw)
        if action == "ingest":
            sources = _parse_labels(body, "sources")
            targets = _parse_labels(body, "targets")
            n = len(sources)
            if len(targets) != n:
                raise _HTTPError(
                    400, f"got {n} sources but {len(targets)} targets")
            weights = _parse_floats(body, "weights", n, 1.0)
            timestamps = None
            if tenant.kind == "window":
                watermark = tenant.sketch.watermark
                default_ts = watermark if np.isfinite(watermark) else 0.0
                timestamps = _parse_floats(body, "timestamps", n,
                                           default_ts)
            _check_columns(weights, timestamps)
            try:
                future = tenant.ingest.add(sources, targets, weights,
                                           timestamps)
            except BacklogExceeded:
                raise _ShedError("backlog", self.backpressure.retry_after())
            ingested = await future
            return 200, {"ingested": ingested,
                         "batched": tenant.ingest.batching}, \
                "application/json"
        if action == "remove":
            sources = _parse_labels(body, "sources")
            targets = _parse_labels(body, "targets")
            n = len(sources)
            if len(targets) != n:
                raise _HTTPError(
                    400, f"got {n} sources but {len(targets)} targets")
            weights = _parse_floats(body, "weights", n, 1.0)
            _check_columns(weights, kind="removal")
            removed = tenant.remove(sources, targets, weights)
            await self._durable(tenant)
            return 200, {"removed": int(removed)}, "application/json"
        if action == "query":
            kind = body.get("kind")
            if kind not in QUERY_KINDS:
                raise _HTTPError(
                    400, f"query 'kind' must be one of "
                         f"{sorted(QUERY_KINDS)}, got {kind!r}")
            if kind in EXPENSIVE_QUERY_KINDS:
                self._admit("expensive_query")
            shape = QUERY_KINDS[kind]
            if shape == "pairs":
                pairs = body.get("pairs")
                if (not isinstance(pairs, list)
                        or any(not isinstance(p, list) or len(p) != 2
                               for p in pairs)):
                    raise _HTTPError(
                        400, f"{kind} queries need 'pairs': [[src, dst]]")
                try:
                    payload = [(label_key(s), label_key(t))
                               for s, t in pairs]
                except (TypeError, UnicodeEncodeError) as exc:
                    raise _HTTPError(400, f"bad label in 'pairs': {exc}")
            elif shape == "nodes":
                nodes = body.get("nodes")
                if not isinstance(nodes, list):
                    raise _HTTPError(
                        400, f"{kind} queries need 'nodes': [node, ...]")
                try:
                    payload = [label_key(node) for node in nodes]
                except (TypeError, UnicodeEncodeError) as exc:
                    raise _HTTPError(400, f"bad label in 'nodes': {exc}")
            else:
                payload = []
            values = await tenant.queries.add(kind, payload)
            if kind == "reach":
                values = [bool(v) for v in values]
            return 200, {"kind": kind, "values": values}, "application/json"
        if action == "advance":
            timestamp = body.get("timestamp")
            if not isinstance(timestamp, (int, float)):
                raise _HTTPError(400, "advance needs a numeric 'timestamp'")
            result = tenant.advance(float(timestamp))
            await self._durable(tenant)
            return 200, result, "application/json"
        raise _HTTPError(404, f"unknown action {action!r} (expected "
                              f"ingest, remove, query or advance)")

    #: HTTP action -> the wire op a binary frame must carry for it.
    _WIRE_OPS = {"ingest": wire.OP_INGEST, "remove": wire.OP_REMOVE,
                 "query": wire.OP_QUERY, "advance": wire.OP_ADVANCE}

    async def _sketch_action_wire(self, tenant, action: str, raw: bytes,
                                  headers: Dict[str, str]) \
            -> Tuple[int, Any, str]:
        """Serve one binary columnar request (already admitted).

        The frame's id/weight columns are ``np.frombuffer`` views into
        the request body; ingest hands them straight to the coalescer's
        staging copy -- no JSON parse, no Python-object churn.
        """
        try:
            frame = wire.decode_frame(raw)
        except wire.WireError as exc:
            raise _HTTPError(400, str(exc))
        if OBS.enabled:
            OBS.server_wire_requests.labels(
                wire.OP_NAMES[frame.op]).inc()
            OBS.server_wire_bytes.inc(len(raw))
        expected = self._WIRE_OPS.get(action)
        if expected is None:
            raise _HTTPError(
                404, f"unknown action {action!r} (expected ingest, "
                     f"remove, query or advance)")
        if frame.op != expected:
            raise _HTTPError(
                400, f"frame op {wire.OP_NAMES[frame.op]!r} does not "
                     f"match action {action!r}")
        if frame.tenant and frame.tenant != tenant.name:
            raise _HTTPError(
                400, f"frame tenant {frame.tenant!r} does not match "
                     f"path tenant {tenant.name!r}")
        if action == "ingest":
            timestamps: Any = None
            if tenant.kind == "window":
                timestamps = frame.timestamps
                if timestamps is None:
                    watermark = tenant.sketch.watermark
                    timestamps = (watermark if np.isfinite(watermark)
                                  else 0.0)
            _check_columns(frame.weights, timestamps)
            try:
                future = tenant.ingest.add(frame.sources, frame.targets,
                                           frame.weights, timestamps)
            except BacklogExceeded:
                raise _ShedError("backlog", self.backpressure.retry_after())
            ingested = await future
            return 200, {"ingested": ingested,
                         "batched": tenant.ingest.batching}, \
                "application/json"
        if action == "query":
            kind = frame.kind
            if kind in EXPENSIVE_QUERY_KINDS:
                self._admit("expensive_query")
            if frame.targets is not None:
                payload = list(zip(frame.sources.tolist(),
                                   frame.targets.tolist()))
            elif frame.sources is not None:
                payload = frame.sources.tolist()
            else:
                payload = []
            values = await tenant.queries.add(kind, payload)
            if wire.CONTENT_TYPE in headers.get("accept", ""):
                return 200, wire.encode_values(
                    np.asarray(values, dtype=np.float64)), \
                    wire.CONTENT_TYPE
            if kind == "reach":
                values = [bool(v) for v in values]
            return 200, {"kind": kind, "values": values}, \
                "application/json"
        if action == "remove":
            _check_columns(frame.weights, kind="removal")
            removed = tenant.remove(frame.sources, frame.targets,
                                    frame.weights)
            await self._durable(tenant)
            return 200, {"removed": int(removed)}, "application/json"
        # advance
        result = tenant.advance(float(frame.timestamp))
        await self._durable(tenant)
        return 200, result, "application/json"
