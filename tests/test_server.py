"""Tests for the micro-batching sketch service (repro.server).

Three layers: the coalescers directly (flush triggers, future
resolution, error propagation), the HTTP front end over a real loopback
socket (routing, validation, read-your-writes), and the multi-tenant
concurrency contract -- interleaved batched ingest + queries on several
named sketches must be **bit-identical** to a serial replay of the same
elements, because staged-key batch ingest applies exactly the same
uint64 keys and float64 weights the scalar path would.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.tcm import TCM
from repro.hashing.labels import VECTORIZE_MIN_LABELS
from repro.server import (
    IngestCoalescer,
    QueryCoalescer,
    SketchRegistry,
    SketchServer,
)
from repro.server import wire
from repro.server.durability import DurabilityManager
from repro.server.loadgen import _request, run_loadgen


def run_async(coro):
    return asyncio.run(coro)


def cols(pairs, weights=None):
    src = np.asarray([p[0] for p in pairs], dtype=np.uint64)
    dst = np.asarray([p[1] for p in pairs], dtype=np.uint64)
    wts = (np.ones(len(pairs)) if weights is None
           else np.asarray(weights, dtype=np.float64))
    return src, dst, wts


class TestIngestCoalescer:
    def test_size_trigger_flushes_immediately(self):
        async def scenario():
            batches = []
            coalescer = IngestCoalescer(
                lambda s, t, w, ts: batches.append(len(s)),
                max_batch=4, max_delay=60.0)
            f1 = coalescer.add(*cols([(1, 2), (3, 4)]))
            assert not f1.done() and len(coalescer) == 2
            f2 = coalescer.add(*cols([(5, 6), (7, 8)]))
            # Hitting max_batch flushes synchronously: one apply call.
            assert batches == [4]
            assert await f1 == 2 and await f2 == 2
            assert len(coalescer) == 0

        run_async(scenario())

    def test_deadline_trigger(self):
        async def scenario():
            batches = []
            coalescer = IngestCoalescer(
                lambda s, t, w, ts: batches.append(len(s)),
                max_batch=1024, max_delay=0.005)
            future = coalescer.add(*cols([(1, 2)]))
            # Nothing staged reaches max_batch; the deadline must fire.
            assert await asyncio.wait_for(future, timeout=2.0) == 1
            assert batches == [1]

        run_async(scenario())

    def test_batch_error_fails_every_staged_future(self):
        async def scenario():
            def explode(s, t, w, ts):
                raise RuntimeError("bad batch")

            coalescer = IngestCoalescer(explode, max_batch=2,
                                        max_delay=60.0)
            f1 = coalescer.add(*cols([(1, 2)]))
            f2 = coalescer.add(*cols([(3, 4)]))
            with pytest.raises(RuntimeError, match="bad batch"):
                await f1
            with pytest.raises(RuntimeError, match="bad batch"):
                await f2

        run_async(scenario())

    def test_unbatched_mode_applies_scalar_immediately(self):
        async def scenario():
            batch_calls, scalar_calls = [], []
            coalescer = IngestCoalescer(
                lambda s, t, w, ts: batch_calls.append(len(s)),
                apply_scalar=lambda s, t, w, ts: scalar_calls.append(
                    len(s)),
                batching=False)
            future = coalescer.add(*cols([(1, 2), (3, 4)]))
            assert future.done() and await future == 2
            assert scalar_calls == [2] and batch_calls == []

        run_async(scenario())

    def test_staging_grows_past_max_batch(self):
        async def scenario():
            batches = []
            coalescer = IngestCoalescer(
                lambda s, t, w, ts: batches.append(len(s)),
                max_batch=4, max_delay=60.0)
            pairs = [(i, i + 1) for i in range(50)]
            future = coalescer.add(*cols(pairs))
            assert await future == 50
            assert batches == [50]

        run_async(scenario())

    def test_flush_into_tcm_matches_direct_ingest(self):
        async def scenario():
            tcm = TCM(d=2, width=32, seed=5)
            coalescer = IngestCoalescer(
                lambda s, t, w, ts: tcm.ingest_keys(s, t, w),
                max_batch=8, max_delay=60.0)
            coalescer.add(*cols([(1, 2), (3, 4)], weights=[2.0, 5.0]))
            coalescer.flush()
            reference = TCM(d=2, width=32, seed=5)
            reference.update(1, 2, 2.0)
            reference.update(3, 4, 5.0)
            for a, b in zip(tcm.sketches, reference.sketches):
                np.testing.assert_array_equal(a.matrix, b.matrix)

        run_async(scenario())


class TestQueryCoalescer:
    def test_groups_by_kind_one_runner_call_each(self):
        async def scenario():
            calls = []

            def runner(kind, payload):
                calls.append((kind, len(payload)))
                if kind == "total":
                    return 42.0
                return np.arange(len(payload), dtype=np.float64)

            coalescer = QueryCoalescer(runner, max_batch=1024,
                                       max_delay=60.0)
            f_edge_a = coalescer.add("edge", [(1, 2), (3, 4)])
            f_edge_b = coalescer.add("edge", [(5, 6)])
            f_flow = coalescer.add("flow", [7, 8, 9])
            f_total = coalescer.add("total", [])
            coalescer.flush()
            assert sorted(calls) == [("edge", 3), ("flow", 3),
                                     ("total", 0)]
            assert await f_edge_a == [0.0, 1.0]
            assert await f_edge_b == [2.0]
            assert await f_flow == [0.0, 1.0, 2.0]
            assert await f_total == [42.0]

        run_async(scenario())

    def test_before_flush_runs_first(self):
        async def scenario():
            order = []
            coalescer = QueryCoalescer(
                lambda kind, payload: order.append("query") or [],
                before_flush=lambda: order.append("ingest-flush"),
                max_batch=1024, max_delay=60.0)
            coalescer.add("edge", [(1, 2)])
            coalescer.flush()
            assert order == ["ingest-flush", "query"]

        run_async(scenario())

    def test_unknown_kind_rejected(self):
        async def scenario():
            coalescer = QueryCoalescer(lambda kind, payload: [])
            with pytest.raises(ValueError, match="unknown query kind"):
                coalescer.add("shortest", [(1, 2)])

        run_async(scenario())

    def test_runner_error_fails_that_familys_futures(self):
        async def scenario():
            def runner(kind, payload):
                if kind == "edge":
                    raise RuntimeError("edge broke")
                return np.zeros(len(payload))

            coalescer = QueryCoalescer(runner, max_batch=1024,
                                       max_delay=60.0)
            f_edge = coalescer.add("edge", [(1, 2)])
            f_flow = coalescer.add("flow", [3])
            coalescer.flush()
            with pytest.raises(RuntimeError, match="edge broke"):
                await f_edge
            assert await f_flow == [0.0]

        run_async(scenario())


class TestRegistry:
    def test_create_get_delete(self):
        registry = SketchRegistry()
        registry.create("alpha", "tcm", d=2, width=32, seed=1)
        assert "alpha" in registry and registry.names() == ["alpha"]
        with pytest.raises(ValueError, match="already exists"):
            registry.create("alpha", "tcm")
        registry.delete("alpha")
        assert len(registry) == 0
        with pytest.raises(KeyError):
            registry.get("alpha")

    def test_rejects_keep_labels_and_unknown_keys(self):
        registry = SketchRegistry()
        with pytest.raises(ValueError, match="keep_labels"):
            registry.create("x", "tcm", keep_labels=True)
        with pytest.raises(ValueError, match="unknown sketch config"):
            registry.create("x", "tcm", frobnicate=3)
        with pytest.raises(ValueError, match="horizon"):
            registry.create("x", "window", d=2, width=32)

    def test_window_tenant_rejects_remove_tcm_rejects_advance(self):
        async def scenario():
            registry = SketchRegistry()
            plain = registry.create("plain", "tcm", d=2, width=32, seed=1)
            window = registry.create("ring", "window", horizon=100.0,
                                     d=2, width=32, seed=1)
            with pytest.raises(ValueError, match="advance"):
                plain.advance(5.0)
            with pytest.raises(ValueError, match="rotation"):
                window.remove([1], [2], np.ones(1))

        run_async(scenario())


class _Client:
    """Minimal keep-alive JSON client over the loadgen request helper."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def call(self, method, path, body=None):
        raw = b"" if body is None else json.dumps(body).encode()
        status, payload = await _request(self.reader, self.writer,
                                         method, path, raw)
        return status, (json.loads(payload) if payload else None)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _with_server(scenario, **server_kwargs):
    server_kwargs.setdefault("max_delay", 0.002)
    server = SketchServer(port=0, **server_kwargs)
    port = await server.start()
    client = await _Client.open(port)
    try:
        return await scenario(client, server, port)
    finally:
        await client.close()
        await server.stop()


class TestServerHTTP:
    def test_healthz_and_unknown_routes(self):
        async def scenario(client, server, port):
            status, body = await client.call("GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, body = await client.call("GET", "/nope")
            assert status == 404
            status, body = await client.call("POST", "/sketches/x/zap")
            assert status == 404

        run_async(_with_server(scenario))

    def test_sketch_lifecycle(self):
        async def scenario(client, server, port):
            status, body = await client.call(
                "PUT", "/sketches/alpha",
                {"kind": "tcm", "d": 2, "width": 32, "seed": 1})
            assert status == 201 and body["name"] == "alpha"
            status, _ = await client.call(
                "PUT", "/sketches/alpha", {"kind": "tcm"})
            assert status == 409
            status, body = await client.call("GET", "/sketches")
            assert status == 200 and body["sketches"] == ["alpha"]
            status, body = await client.call("GET", "/sketches/alpha")
            assert status == 200 and body["kind"] == "tcm"
            status, body = await client.call("GET", "/sketches/ghost")
            assert status == 404
            status, body = await client.call("DELETE", "/sketches/alpha")
            assert status == 200
            status, body = await client.call("GET", "/sketches")
            assert body["sketches"] == []

        run_async(_with_server(scenario))

    def test_bad_bodies_get_400(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 1})
            status, body = await client.call(
                "POST", "/sketches/a/ingest", {"sources": "oops"})
            assert status == 400 and "sources" in body["error"]
            status, body = await client.call(
                "POST", "/sketches/a/ingest",
                {"sources": [1], "targets": [2, 3]})
            assert status == 400
            status, body = await client.call(
                "POST", "/sketches/a/ingest",
                {"sources": [1], "targets": [2], "weights": [1, 2]})
            assert status == 400
            status, body = await client.call(
                "POST", "/sketches/a/query", {"kind": "bogus"})
            assert status == 400
            status, body = await client.call(
                "POST", "/sketches/a/query", {"kind": "edge"})
            assert status == 400
            status, body = await client.call(
                "PUT", "/sketches/bad", {"keep_labels": True})
            assert status == 400 and "keep_labels" in body["error"]

        run_async(_with_server(scenario))

    def test_ingest_then_query_reads_own_writes(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 3, "width": 64, "seed": 2})
            status, body = await client.call(
                "POST", "/sketches/a/ingest",
                {"sources": ["u", "v", "u"], "targets": ["v", "w", "v"],
                 "weights": [1.0, 2.0, 3.0]})
            assert status == 200 and body["ingested"] == 3
            assert body["batched"] is True
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "edge", "pairs": [["u", "v"], ["v", "w"],
                                           ["x", "y"]]})
            assert status == 200
            reference = TCM(d=3, width=64, seed=2)
            reference.ingest_columns(["u", "v", "u"], ["v", "w", "v"],
                                     [1.0, 2.0, 3.0])
            expected = reference.edge_weights(
                [("u", "v"), ("v", "w"), ("x", "y")])
            assert body["values"] == expected.tolist()
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "outflow", "nodes": ["u", "v"]})
            assert body["values"] == reference.out_flows(
                ["u", "v"]).tolist()
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "reach", "pairs": [["u", "w"], ["w", "u"]]})
            assert body["values"] == [True, False]
            status, body = await client.call(
                "POST", "/sketches/a/query", {"kind": "total"})
            assert body["values"] == [6.0]

        run_async(_with_server(scenario))

    def test_remove_after_staged_ingest(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 3})
            await client.call("POST", "/sketches/a/ingest",
                              {"sources": [1], "targets": [2],
                               "weights": [5.0]})
            status, body = await client.call(
                "POST", "/sketches/a/remove",
                {"sources": [1], "targets": [2], "weights": [2.0]})
            assert status == 200 and body["removed"] == 1
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "edge", "pairs": [[1, 2]]})
            assert body["values"] == [3.0]

        run_async(_with_server(scenario))

    def test_window_tenant_ingest_advance_expiry(self):
        async def scenario(client, server, port):
            await client.call(
                "PUT", "/sketches/w",
                {"kind": "window", "horizon": 100.0, "buckets": 4,
                 "d": 2, "width": 32, "seed": 4})
            status, body = await client.call(
                "POST", "/sketches/w/ingest",
                {"sources": ["a"], "targets": ["b"], "weights": [7.0],
                 "timestamps": [10.0]})
            assert status == 200 and body["ingested"] == 1
            status, body = await client.call(
                "POST", "/sketches/w/query",
                {"kind": "edge", "pairs": [["a", "b"]]})
            assert body["values"] == [7.0]
            status, body = await client.call(
                "POST", "/sketches/w/advance", {"timestamp": 500.0})
            assert status == 200 and body["watermark"] == 500.0
            status, body = await client.call(
                "POST", "/sketches/w/query",
                {"kind": "edge", "pairs": [["a", "b"]]})
            assert body["values"] == [0.0]
            status, body = await client.call(
                "POST", "/sketches/w/remove",
                {"sources": ["a"], "targets": ["b"]})
            assert status == 400
            status, body = await client.call(
                "POST", "/sketches/w/advance", {"timestamp": "later"})
            assert status == 400

        run_async(_with_server(scenario))

    def test_metrics_and_stats_endpoints(self):
        from repro.obs import instruments

        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 1})
            await client.call("POST", "/sketches/a/ingest",
                              {"sources": [1], "targets": [2]})
            raw = b""
            status, payload = await _request(
                client.reader, client.writer, "GET", "/metrics", raw)
            assert status == 200
            text = payload.decode()
            assert "server_requests_total" in text
            assert "server_batch_flushes_total" in text
            status, body = await client.call("GET", "/stats")
            assert status == 200
            assert any(key.startswith("server_request_seconds")
                       for key in body["latency"])
            assert body["sketches"][0]["name"] == "a"

        instruments.enable()
        try:
            run_async(_with_server(scenario))
        finally:
            instruments.disable()

    def test_process_faults_and_rss_are_scraped_non_decreasing(self):
        def sample(text, name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[1])
            raise AssertionError(f"{name} missing from /metrics")

        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 1})
            faults = []
            for i in range(3):
                status, body = await client.call("GET", "/stats")
                assert status == 200
                assert body["process"]["rss_bytes"] > 0
                faults.append(body["process"]["minor_page_faults"])
                status, payload = await _request(
                    client.reader, client.writer, "GET", "/metrics", b"")
                assert status == 200
                text = payload.decode()
                assert sample(text, "process_rss_bytes") > 0
                faults.append(sample(text,
                                     "process_minor_page_faults_total"))
                await client.call("POST", "/sketches/a/ingest",
                                  {"sources": list(range(5000)),
                                   "targets": list(range(5000))})
            assert faults[0] > 0
            assert faults == sorted(faults)

        run_async(_with_server(scenario))

    def test_unbatched_server_answers_identically(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 9})
            status, body = await client.call(
                "POST", "/sketches/a/ingest",
                {"sources": [1, 2], "targets": [3, 4],
                 "weights": [1.0, 2.0]})
            assert status == 200 and body["batched"] is False
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "edge", "pairs": [[1, 3], [2, 4]]})
            assert body["values"] == [1.0, 2.0]

        run_async(_with_server(scenario, batching=False))


class TestProtocolHardening:
    """Malformed or abusive requests get 4xx, never a 500 or a crash."""

    @staticmethod
    async def _raw(port, blob):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(blob)
            await writer.drain()
            status_line = await reader.readline()
            body = await reader.read(4096)
            return int(status_line.split()[1]), body
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def test_oversized_body_gets_413(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 1})
            big = {"sources": list(range(500)),
                   "targets": list(range(500))}
            status, body = await client.call(
                "POST", "/sketches/a/ingest", big)
            assert status == 413 and "too large" in body["error"]
            # The connection is closed (the body was never read), but
            # the server survives: a fresh connection still works.
            fresh = await _Client.open(port)
            try:
                status, body = await fresh.call("GET", "/healthz")
                assert status == 200
            finally:
                await fresh.close()

        run_async(_with_server(scenario, max_body=1024))

    def test_bad_content_length_gets_400(self):
        async def scenario(client, server, port):
            status, _ = await self._raw(
                port,
                b"POST /sketches/a/ingest HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: banana\r\n\r\n")
            assert status == 400
            status, _ = await self._raw(
                port,
                b"POST /sketches/a/ingest HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: -5\r\n\r\n")
            assert status == 400

        run_async(_with_server(scenario))

    def test_invalid_utf8_body_gets_400_not_500(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 1})
            payload = b'\xff\xfe\x80{"no'
            status, body = await self._raw(
                port,
                b"POST /sketches/a/ingest HTTP/1.1\r\n"
                b"Host: x\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%b" % (len(payload), payload))
            assert status == 400

        run_async(_with_server(scenario))

    def test_truncated_json_gets_400(self):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 1})
            payload = b'{"sources": [1, 2'
            status, body = await self._raw(
                port,
                b"POST /sketches/a/ingest HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: %d\r\n\r\n%b"
                % (len(payload), payload))
            assert status == 400

        run_async(_with_server(scenario))

    def test_connection_cap_sheds_503(self):
        async def scenario(client, server, port):
            # The fixture client is connection #1; the cap is 1.
            status, body = await client.call("GET", "/healthz")
            assert status == 200
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            try:
                status_line = await reader.readline()
                assert b"503" in status_line
                raw = await reader.read(4096)
                assert b"Retry-After" in raw
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            status, body = await client.call("GET", "/healthz")
            assert status == 200

        run_async(_with_server(scenario, max_connections=1))


class TestMultiTenantConcurrency:
    """Interleaved batched traffic == serial replay, per tenant, exactly."""

    def test_interleaved_ingest_bit_identical_to_serial_replay(self):
        rng = np.random.default_rng(11)
        tenants = {
            "red": [(int(s), int(t), float(w)) for s, t, w in
                    zip(rng.integers(0, 500, 300),
                        rng.integers(0, 500, 300),
                        rng.integers(1, 5, 300))],
            "blue": [(int(s), int(t), float(w)) for s, t, w in
                     zip(rng.integers(0, 500, 300),
                         rng.integers(0, 500, 300),
                         rng.integers(1, 5, 300))],
        }
        config = {"d": 3, "width": 64, "seed": 13}
        probes = [[int(a), int(b)] for a, b in
                  zip(rng.integers(0, 500, 64), rng.integers(0, 500, 64))]

        async def scenario(client, server, port):
            for name in tenants:
                await client.call("PUT", f"/sketches/{name}",
                                  dict(config, kind="tcm"))

            async def drive(name, elements):
                # Its own connection, so requests genuinely interleave.
                worker = await _Client.open(port)
                try:
                    mid_queries = 0
                    for lo in range(0, len(elements), 25):
                        chunk = elements[lo:lo + 25]
                        status, body = await worker.call(
                            "POST", f"/sketches/{name}/ingest",
                            {"sources": [e[0] for e in chunk],
                             "targets": [e[1] for e in chunk],
                             "weights": [e[2] for e in chunk]})
                        assert status == 200
                        assert body["ingested"] == len(chunk)
                        status, body = await worker.call(
                            "POST", f"/sketches/{name}/query",
                            {"kind": "edge", "pairs": probes[:8]})
                        assert status == 200 and len(body["values"]) == 8
                        mid_queries += 1
                    return mid_queries
                finally:
                    await worker.close()

            done = await asyncio.gather(
                *(drive(name, elements)
                  for name, elements in tenants.items()))
            assert all(count > 0 for count in done)
            answers = {}
            for name in tenants:
                status, body = await client.call(
                    "POST", f"/sketches/{name}/query",
                    {"kind": "edge", "pairs": probes})
                assert status == 200
                answers[name] = body["values"]
            return answers

        answers = run_async(_with_server(scenario))
        for name, elements in tenants.items():
            reference = TCM(**config)
            for s, t, w in elements:
                reference.update(s, t, w)
            expected = reference.edge_weights(
                [(a, b) for a, b in probes])
            # Bit-identical: same keys, same float64 sums, no tolerance.
            assert answers[name] == expected.tolist(), name

    def test_epoch_cache_invalidation_across_batches(self):
        # A coalesced query warms the engine's epoch caches; a later
        # micro-batch must invalidate them so the next coalesced query
        # sees the new weights, not the cached ones.
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 21})
            await client.call("POST", "/sketches/a/ingest",
                              {"sources": [1], "targets": [2]})
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "reach", "pairs": [[1, 3]]})
            assert body["values"] == [False]
            await client.call("POST", "/sketches/a/ingest",
                              {"sources": [2], "targets": [3]})
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "reach", "pairs": [[1, 3]]})
            assert body["values"] == [True]

        run_async(_with_server(scenario))

    def test_batched_and_unbatched_servers_agree(self):
        # The coalesced path must be an optimization, not a semantic
        # change: equal traffic against a batching and a non-batching
        # server ends in identical sketches.
        traffic = [([1, 2, 3], [4, 5, 6], [1.0, 2.0, 3.0]),
                   ([1, 7], [4, 8], [5.0, 1.0])]
        probes = [[1, 4], [2, 5], [3, 6], [7, 8]]

        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/a",
                              {"d": 2, "width": 32, "seed": 31})
            for sources, targets, weights in traffic:
                await client.call("POST", "/sketches/a/ingest",
                                  {"sources": sources, "targets": targets,
                                   "weights": weights})
            status, body = await client.call(
                "POST", "/sketches/a/query",
                {"kind": "edge", "pairs": probes})
            return body["values"]

        batched = run_async(_with_server(scenario))
        unbatched = run_async(_with_server(scenario, batching=False))
        assert batched == unbatched


def _matrices(sketch):
    """Every cell matrix of a TCM or a RotatingWindowTCM's sub-sketches."""
    owners = sketch._ring if hasattr(sketch, "_ring") else [sketch]
    return [np.array(s.matrix) for owner in owners for s in owner.sketches]


class TestLargeLabelColumns:
    """JSON columns past the vectorized-hashing threshold.

    Served state must equal a per-label in-process oracle bit for bit,
    and a bad label anywhere in a large column must be a 400 that leaves
    the tenant untouched.
    """

    N = 2 * VECTORIZE_MIN_LABELS + 3
    CONFIG = {"d": 3, "width": 64, "seed": 17}
    WINDOW = {"horizon": 100.0, "buckets": 4}

    def _column(self, rng):
        hosts = [f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"
                 for i in rng.integers(0, 1 << 24, 300).tolist()]
        hosts += ["", "nöde-☃", "𝄞" * 40]
        return [hosts[i] for i in rng.integers(0, len(hosts), self.N)]

    def test_ingest_and_remove_match_per_label_oracle(self):
        from repro.streams.rotating import RotatingWindowTCM
        rng = np.random.default_rng(23)
        sources, targets = self._column(rng), self._column(rng)
        weights = rng.integers(1, 8, self.N).astype(float).tolist()
        timestamps = np.sort(rng.uniform(0.0, 60.0, self.N)).tolist()
        gone = slice(0, VECTORIZE_MIN_LABELS + 1)

        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/t",
                              dict(self.CONFIG, kind="tcm"))
            await client.call("PUT", "/sketches/w",
                              dict(self.CONFIG, kind="window",
                                   **self.WINDOW))
            status, body = await client.call(
                "POST", "/sketches/t/ingest",
                {"sources": sources, "targets": targets,
                 "weights": weights})
            assert status == 200 and body["ingested"] == self.N
            status, body = await client.call(
                "POST", "/sketches/t/remove",
                {"sources": sources[gone], "targets": targets[gone],
                 "weights": weights[gone]})
            assert status == 200
            assert body["removed"] == VECTORIZE_MIN_LABELS + 1
            status, body = await client.call(
                "POST", "/sketches/w/ingest",
                {"sources": sources, "targets": targets,
                 "weights": weights, "timestamps": timestamps})
            assert status == 200 and body["ingested"] == self.N
            server.registry.get("t").drain()
            server.registry.get("w").drain()
            return (_matrices(server.registry.get("t").sketch),
                    _matrices(server.registry.get("w").sketch))

        served_tcm, served_window = run_async(_with_server(scenario))
        tcm = TCM(**self.CONFIG)
        window = RotatingWindowTCM(**self.WINDOW, **self.CONFIG)
        for s, t, w, ts in zip(sources, targets, weights, timestamps):
            tcm.update(s, t, w)
            window.observe(s, t, w, ts)
        for s, t, w in zip(sources[gone], targets[gone], weights[gone]):
            tcm.remove(s, t, w)
        for got, want in zip(served_tcm, _matrices(tcm)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(served_window, _matrices(window)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("bad", [True, 1.5, "\ud800"])
    @pytest.mark.parametrize("field", ["sources", "targets"])
    def test_bad_label_in_large_column_is_400_and_applies_nothing(
            self, bad, field):
        rng = np.random.default_rng(29)
        good = {"sources": self._column(rng), "targets": self._column(rng)}

        async def scenario(client, server, port):
            for name, kind in (("t", "tcm"), ("w", "window")):
                config = dict(self.CONFIG, kind=kind)
                if kind == "window":
                    config.update(self.WINDOW)
                await client.call("PUT", f"/sketches/{name}", config)
                status, _ = await client.call(
                    "POST", f"/sketches/{name}/ingest", good)
                assert status == 200
                server.registry.get(name).drain()
                before = _matrices(server.registry.get(name).sketch)
                body = dict(good)
                body[field] = list(good[field])
                body[field][self.N // 2] = bad
                actions = ["ingest", "remove"] if kind == "tcm" \
                    else ["ingest"]
                for action in actions:
                    status, reply = await client.call(
                        "POST", f"/sketches/{name}/{action}", body)
                    assert status == 400, (action, reply)
                    assert f"'{field}'" in reply["error"]
                server.registry.get(name).drain()
                after = _matrices(server.registry.get(name).sketch)
                for got, want in zip(after, before):
                    np.testing.assert_array_equal(got, want)
            status, reply = await client.call(
                "POST", "/sketches/t/query",
                {"kind": "edge", "pairs": [["a", bad]]})
            assert status == 400 and "'pairs'" in reply["error"]

        run_async(_with_server(scenario))

    def test_one_huge_label_hashes_without_a_huge_allocation(self):
        import tracemalloc
        huge = "h" * (1 << 20)
        sources = [f"s{i % 50}" for i in range(VECTORIZE_MIN_LABELS)]
        targets = [f"t{i % 70}" for i in range(VECTORIZE_MIN_LABELS)]
        sources[7] = huge

        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/t",
                              dict(self.CONFIG, kind="tcm"))
            tracemalloc.start()
            try:
                status, body = await client.call(
                    "POST", "/sketches/t/ingest",
                    {"sources": sources, "targets": targets})
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert status == 200
            server.registry.get("t").drain()
            return peak, _matrices(server.registry.get("t").sketch)

        peak, served = run_async(_with_server(scenario))
        # A padded (labels x longest label) byte matrix would be 512 MiB.
        assert peak < 64 << 20, peak
        tcm = TCM(**self.CONFIG)
        for s, t in zip(sources, targets):
            tcm.update(s, t)
        for got, want in zip(served, _matrices(tcm)):
            np.testing.assert_array_equal(got, want)


class TestPerRequestColumnValidation:
    """A bad weight or timestamp column fails only its own request.

    It is rejected with a 400 before staging, so it can neither fail
    the micro-batch it would have joined nor reach the WAL.
    """

    CONFIG = {"d": 3, "width": 32, "seed": 5}
    GOOD = ([1, 2, 3, 1], [4, 5, 6, 4], [1.0, 2.5, 4.0, 0.5])

    @staticmethod
    async def _send(conn, codec, action, tenant, sources, targets,
                    weights, timestamps=None):
        if codec == "json":
            body = {"sources": sources, "targets": targets,
                    "weights": weights}
            if timestamps is not None:
                body["timestamps"] = timestamps
            raw, content_type = json.dumps(body).encode(), \
                "application/json"
        else:
            ids = [np.asarray(c, dtype=np.uint64) for c in (sources,
                                                             targets)]
            wts = np.asarray(weights, dtype=np.float64)
            raw = (wire.encode_ingest(tenant, *ids, wts, timestamps)
                   if action == "ingest"
                   else wire.encode_remove(tenant, *ids, wts))
            content_type = wire.CONTENT_TYPE
        status, payload = await _request(
            *conn, "POST", f"/sketches/{tenant}/{action}", raw,
            content_type=content_type)
        return status, json.loads(payload)

    @classmethod
    def _oracle(cls, *batches):
        tcm = TCM(**cls.CONFIG)
        for sign, (sources, targets, weights) in batches:
            keys = [np.asarray(c, dtype=np.uint64) for c in (sources,
                                                             targets)]
            if sign > 0:
                tcm.ingest_keys(*keys, np.asarray(weights))
            else:
                tcm.remove_many(*keys, np.asarray(weights))
        return _matrices(tcm)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_bad_weights_fail_alone_in_a_coalesced_batch(self, codec, bad):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/t",
                              dict(self.CONFIG, kind="tcm"))
            conns = [await asyncio.open_connection("127.0.0.1", port)
                     for _ in range(2)]
            try:
                (good_status, good), (bad_status, reply) = \
                    await asyncio.gather(
                        self._send(conns[0], codec, "ingest", "t",
                                   *self.GOOD),
                        self._send(conns[1], codec, "ingest", "t",
                                   [7, 8], [9, 9], [1.0, bad]))
            finally:
                for _, writer in conns:
                    writer.close()
            assert bad_status == 400 and "'weights'" in reply["error"]
            assert good_status == 200 and good["ingested"] == 4
            tenant = server.registry.get("t")
            tenant.drain()
            assert tenant.ingest.flushes == 1
            return _matrices(tenant.sketch)

        # A 200 ms deadline: both requests land inside one batch window.
        served = run_async(_with_server(scenario, max_delay=0.2))
        for got, want in zip(served, self._oracle((1, self.GOOD))):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_non_finite_timestamp_is_400(self, codec):
        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/w",
                              dict(self.CONFIG, kind="window",
                                   horizon=100.0, buckets=4))
            conn = (client.reader, client.writer)
            for ts in (float("nan"), float("inf")):
                status, reply = await self._send(
                    conn, codec, "ingest", "w", [1, 2], [3, 4], [1.0, 1.0],
                    [5.0, ts])
                assert status == 400 and "'timestamps'" in reply["error"]
            status, _ = await self._send(conn, codec, "ingest", "w",
                                         [1, 2], [3, 4], [1.0, 1.0],
                                         [5.0, 6.0])
            assert status == 200
            tenant = server.registry.get("w")
            tenant.drain()
            return tenant.sketch.watermark

        assert run_async(_with_server(scenario)) == 6.0

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_durable_bad_requests_never_reach_the_wal(self, codec,
                                                      tmp_path):
        removed = ([1, 3], [4, 6], [0.5, 1.0])

        async def scenario(client, server, port):
            await client.call("PUT", "/sketches/t",
                              dict(self.CONFIG, kind="tcm"))
            conn = (client.reader, client.writer)
            status, _ = await self._send(conn, codec, "ingest", "t",
                                         *self.GOOD)
            assert status == 200
            for action, weights in (("ingest", [float("nan"), 1.0]),
                                    ("remove", [-1.0, 1.0]),
                                    ("remove", [float("inf"), 1.0])):
                status, reply = await self._send(conn, codec, action, "t",
                                                 [1, 2], [4, 5], weights)
                assert status == 400 and "'weights'" in reply["error"]
            status, _ = await self._send(conn, codec, "remove", "t",
                                         *removed)
            assert status == 200

        run_async(_with_server(scenario, data_dir=str(tmp_path),
                               fsync="always"))
        registry = SketchRegistry()
        report = DurabilityManager(str(tmp_path), fsync="off").recover(
            registry)
        assert report["replay_errors"] == 0
        assert report["records"] == 2
        recovered = _matrices(registry.get("t").sketch)
        for got, want in zip(recovered,
                             self._oracle((1, self.GOOD), (-1, removed))):
            np.testing.assert_array_equal(got, want)


class TestLoadgen:
    def test_loadgen_against_inprocess_server(self):
        async def scenario():
            server = SketchServer(port=0, max_delay=0.002)
            port = await server.start()
            try:
                summary = await run_loadgen(
                    "127.0.0.1", port, connections=4, requests=40,
                    elements=32, query_ratio=0.25, cleanup=True)
            finally:
                await server.stop()
            return summary

        summary = run_async(scenario())
        assert summary["errors"] == 0
        assert summary["ingested_elements"] > 0
        assert summary["latency_ms"]["p50"] <= summary["latency_ms"]["p99"]
        assert summary["req_per_s"] > 0
