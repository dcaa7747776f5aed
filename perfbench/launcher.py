"""Traced server launcher: ``tcm serve`` with spans around each layer.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/launcher.py --spans OUT.pickle -- serve --port 0

Before handing ``argv`` to :func:`repro.cli.main` (the same entry point
``python -m repro`` runs), this wraps the public entry points of each
layer in a span recorder.  A name imported into another module is
patched where it is looked up (``repro.server.http.label_keys``,
``repro.core.tcm._hash_bulk``, ``repro.core.kernels.dedup_keys`` as the
``_kernels`` attribute TCM reads), so the program runs unmodified.

A span is ``(id, parent, request, thread, name, wall0, wall1, cpu0, cpu1,
count, extra)``: wall times are ``perf_counter_ns`` (the same monotonic
clock the benchmark process reads), CPU times are ``thread_time_ns`` of
the calling thread, ``count`` is the batch size the call handled.  Spans
stay in memory; ``SIGUSR1`` writes them to ``--spans`` atomically, which
the benchmark requests at the end of its traced window -- before a crash
test's ``SIGKILL`` would lose them.
An entry point that no longer exists is skipped and listed under
``missing`` rather than failing the run.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import pickle
import signal
import sys
import threading
import time
import types

SPANS: list = []
MISSING: list = []
_CURRENT = contextvars.ContextVar("perfbench_span", default=0)
_REQUEST = contextvars.ContextVar("perfbench_request", default=0)
_SPAN_IDS = itertools.count(1)
_REQUEST_IDS = itertools.count(1)
_wall = time.perf_counter_ns
_cpu = time.thread_time_ns


def _one(args, result):
    return 1


def traced(name, fn, count=_one, extra=None):
    """Wrap a synchronous callable in a span recorder."""
    append = SPANS.append
    get_ident = threading.get_ident

    def wrapper(*args, **kwargs):
        sid = next(_SPAN_IDS)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        result = None
        ok = False
        w0 = _wall()
        c0 = _cpu()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            c1 = _cpu()
            w1 = _wall()
            _CURRENT.reset(token)
            append((sid, parent, _REQUEST.get(), get_ident(), name, w0, w1,
                    c0, c1, count(args, result) if ok else 0,
                    extra(args, result) if ok and extra else None))
    wrapper.__wrapped__ = fn
    return wrapper


def patch(owner, attr, make):
    original = getattr(owner, attr, None)
    if original is None:
        MISSING.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    setattr(owner, attr, make(original))


def _len0(args, result):
    return len(args[0])


def _len1(args, result):
    return len(args[1])


def _len2(args, result):
    return len(args[2])


def _len_result(args, result):
    return len(result)


def _result(args, result):
    return int(result)


def _json_count(args, result):
    """Items a JSON body carried: edges, pairs or nodes."""
    if isinstance(result, dict):
        for key in ("sources", "pairs", "nodes"):
            value = result.get(key)
            if isinstance(value, list):
                return len(value)
    return 1


def install() -> None:
    from repro.core import kernels, tcm
    from repro.hashing import labels
    from repro.server import coalescer, durability, http, wire
    from repro.streams import rotating

    # -- repro.server.http: the request id, json.loads, label hashing ----
    def request_scope(dispatch):
        async def wrapper(self, *args, **kwargs):
            rid = next(_REQUEST_IDS)
            token = _REQUEST.set(rid)
            w0 = _wall()
            try:
                return await dispatch(self, *args, **kwargs)
            finally:
                _REQUEST.reset(token)
                # Async: wall time only, never part of the CPU ledger.
                SPANS.append((0, 0, rid, 0, "http.request", w0, _wall(),
                              0, 0, 1, None))
        return wrapper
    patch(http.SketchServer, "_dispatch", request_scope)

    shim = types.ModuleType("json")
    shim.__dict__.update(json.__dict__)
    shim.loads = traced("http.json_decode", json.loads, _json_count)
    patch(http, "json", lambda original: shim)

    def cache_counters(args, result):
        info = labels.label_cache_info()
        return (info["hits"], info["misses"])
    patch(http, "label_keys", lambda f: traced(
        "labels.label_keys", f, _len_result, cache_counters))
    patch(http, "label_key", lambda f: traced(
        "labels.label_keys", f, _one, cache_counters))

    # -- repro.server.wire ------------------------------------------------
    patch(wire, "decode_frame", lambda f: traced(
        "wire.decode_frame", f, lambda a, r: r.count,
        lambda a, r: len(a[0])))

    # -- repro.server.coalescer -------------------------------------------
    patch(coalescer.IngestCoalescer, "add", lambda f: traced(
        "coalescer.ingest_add", f, _len1))
    patch(coalescer.IngestCoalescer, "flush", lambda f: traced(
        "coalescer.ingest_flush", f, _result))
    patch(coalescer.QueryCoalescer, "add", lambda f: traced(
        "coalescer.query_add", f, _len2))
    patch(coalescer.QueryCoalescer, "flush", lambda f: traced(
        "coalescer.query_flush", f, _result))

    # -- repro.server.durability ------------------------------------------
    for name in ("append_ingest", "append_remove"):
        patch(durability.WalWriter, name, lambda f: traced(
            "wal.append", f, _len1))
    patch(durability.WalWriter, "append_advance", lambda f: traced(
        "wal.append", f))
    # The group commit runs on the pipeline's executor thread.
    patch(durability.WalWriter, "_commit_group", lambda f: traced(
        "wal.commit", f, _len1, lambda a, r: r["bytes"]))

    # -- repro.core.tcm, repro.core.query_engine (via TCM) -----------------
    for name in ("ingest_keys", "ingest_columns"):
        patch(tcm.TCM, name, lambda f: traced("tcm.ingest", f, _result))
    patch(tcm.TCM, "remove_many", lambda f: traced(
        "tcm.remove", f, _result))
    patch(tcm.TCM, "edge_weights", lambda f: traced(
        "query.edge", f, _len_result))
    for name in ("out_flows", "in_flows", "flows"):
        patch(tcm.TCM, name, lambda f: traced("query.flow", f, _len_result))
    patch(tcm.TCM, "reachable_many", lambda f: traced(
        "query.reach", f, _len_result))

    # -- repro.hashing.family, repro.core.kernels ---------------------------
    patch(tcm, "_hash_bulk", lambda f: traced(
        "hash.bulk", f, lambda a, r: r.shape[1]))
    patch(kernels, "dedup_keys", lambda f: traced(
        "kernels.dedup", f, _len0, lambda a, r: len(r[0])))
    backend = type(kernels.get_backend())
    for name in ("scatter_add", "scatter_sub"):
        patch(backend, name, lambda f: traced("kernels.scatter", f, _len2))

    # -- repro.streams.rotating --------------------------------------------
    window = rotating.RotatingWindowTCM
    patch(window, "observe_columns", lambda f: traced(
        "window.observe", f, _result))
    patch(window, "advance_to", lambda f: traced("window.advance", f))
    merged = window.__dict__.get("merged")
    if isinstance(merged, property):
        rebuild = traced("window.merge", merged.fget)

        def merged_view(self):
            # Only the lazy rebuild is a span; the cached view is free.
            if getattr(self, "_merged_stale", True):
                return rebuild(self)
            return merged.fget(self)
        window.merged = property(merged_view)
    else:
        MISSING.append("RotatingWindowTCM.merged")


def dump(path: str) -> None:
    payload = {"spans": list(SPANS), "missing": MISSING}
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, path)


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--spans" or argv[2] != "--":
        print("usage: launcher.py --spans OUT -- serve [tcm serve flags]",
              file=sys.stderr)
        return 2
    path = argv[1]
    install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: dump(path))
    from repro.cli import main as cli_main
    return cli_main(argv[3:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
