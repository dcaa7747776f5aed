"""The service benchmark: three workloads against ``tcm serve``.

Run from the repository root::

    python3 perfbench/run.py --workload bulk-binary --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` boots the stock server (``python -m repro serve``) and
reports the end-to-end metrics; ``--trace 1`` runs the same workload
twice, untraced and then through ``perfbench/launcher.py`` (spans around
every layer), and reports the per-layer ledger plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  A mismatch against the in-process oracle, or a traced
ledger that attributes more CPU than the server used, makes the run
incorrect (exit code 1).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import ledger  # noqa: E402
from common import (CLIENT_CPU, REFERENCE_SPEED, ROOT, SRC,  # noqa: E402
                    BenchError, Conn, ServerProcess, environment, host_speed,
                    median, percentile, scrape, start_server, tail,
                    wait_recovered)
from workloads import CONNECTIONS, WORKLOADS, run_probe  # noqa: E402

#: Server spawns per untraced run; setup_s is their median.
SETUPS = 5

END_TO_END_UNITS = {"setup_s": "s", "ingest_eps": "1/s",
                    "ingest_p50_ms": "ms", "ingest_p95_ms": "ms",
                    "query_p50_ms": "ms",
                    "rss_mb": "MB"}


@dataclass
class PassResult:
    """Everything one pass (one server, one load) measured."""
    setup_s: List[float]
    setup_speed: List[float]    # host speed read just before each spawn
    stats: object
    probe_records: list
    mismatches: List[str]
    rss_mb: float
    recover_s: Optional[float] = None
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    @property
    def all_records(self) -> list:
        return self.stats.records + self.probe_records

    def write_records(self) -> list:
        return [r for r in self.stats.measured()
                if r.kind in ("ingest", "remove")]

    def query_records(self, from_probe: bool) -> list:
        if from_probe:
            return self.probe_records
        return [r for r in self.stats.measured() if r.kind == "query"]

    def setup_seconds(self, scaled: bool = True) -> float:
        """Median spawn-to-tenant time, at reference host speed unless
        ``scaled`` is false."""
        return median([s * speed / REFERENCE_SPEED if scaled else s
                       for s, speed in zip(self.setup_s, self.setup_speed)])

    def ingest_eps(self, scaled: bool = True) -> float:
        """Acked elements per second: the median over slices of the run.

        A closed loop's slices are its segments, each at reference host
        speed unless ``scaled`` is false; the open loop's are one-second
        slices.  A median, not the whole-window mean, so a stall of a few
        hundred milliseconds (a neighbour on the shared host) moves the
        figure by at most one slice's rank.
        """
        stats = self.stats
        if stats.segments:
            rates = []
            for start, end, speed in stats.segments:
                acked = sum(r.elements for r in stats.records
                            if r.kind == "ingest" and r.status == 200
                            and start <= r.start < end)
                rates.append(acked / (end - start)
                             * (REFERENCE_SPEED / speed if scaled else 1.0))
            return median(rates)
        slices = int(stats.t1 - stats.t0) or 1
        acked = [0] * slices
        for r in stats.measured():
            if r.kind == "ingest" and r.status == 200:
                k = int(r.done - stats.t0)
                if k < slices:
                    acked[k] += r.elements
        return median(acked)


def _latencies_ms(records, stats=None) -> List[float]:
    """Latencies in ms; with ``stats``, at reference host speed."""
    if stats is None:
        return [(r.done - r.start) * 1e3 for r in records]
    return [(r.done - r.start) * 1e3 * stats.scale(r.start)
            for r in records]


def _tail(values: List[float], q: float, strict: bool) -> float:
    return tail(values, q) if strict else percentile(values, q)


async def one_pass(workload, seconds: float, workdir: str, *,
                   traced: bool, setups: int) -> PassResult:
    """Set up, load, verify (and crash and recover) one server."""
    spans_path = os.path.join(workdir, "spans.pickle") if traced else None
    setup_times: List[float] = []
    setup_speed: List[float] = []
    server: Optional[ServerProcess] = None
    data_dir = None
    for k in range(setups):
        if server is not None:
            server.stop()
        if workload.durable:
            data_dir = os.path.join(workdir, f"data-{traced:d}-{k}")
        setup_speed.append(host_speed())
        server, setup_s = await start_server(
            workdir, "bench", workload.config(), data_dir=data_dir,
            spans=spans_path)
        setup_times.append(setup_s)
    conns: List[Conn] = []
    try:
        conns = [await Conn.open(server.port)
                 for _ in range(CONNECTIONS)]
        m0 = await scrape(server.port) if traced else None
        cpu0, client0 = server.cpu_seconds(), time.process_time()
        t0 = time.perf_counter()
        stats = await workload.drive(conns, seconds)
        cpu1, client1 = server.cpu_seconds(), time.process_time()
        rss = server.peak_rss_mb()
        oracle = workload.oracle()
        probe_records, mismatches = await _probe(conns, workload, oracle)
        result = PassResult(setup_times, setup_speed, stats, probe_records,
                            mismatches, rss)
        t1 = time.perf_counter()
        cpu2 = server.cpu_seconds()
        m1 = await scrape(server.port)
        clamped = m1.get("window_late_clamped_total")
        if clamped:
            result.mismatches.append(
                f"{clamped:g} window elements arrived behind the watermark")
        if traced:
            spans = ledger.Spans(server.dump_spans(), int(t0 * 1e9),
                                 int(t1 * 1e9))
            print(f"ledger: server CPU {cpu2 - cpu0:.3f} s in the traced "
                  f"window, {spans.attributed_s:.3f} s attributed to spans:")
            print("\n".join(spans.table(cpu2 - cpu0)))
            ledger.check_ledger(spans, cpu2 - cpu0)
            if spans.missing:
                print(f"trace: entry points not found (layer reads 0): "
                      f"{', '.join(spans.missing)}")
            acked = sum(r.elements for r in stats.records
                        if r.kind == "ingest" and r.status == 200)
            written = acked + sum(r.elements for r in stats.records
                                  if r.kind == "remove" and r.status == 200)
            late = stats.lateness
            layer_args = dict(
                server_cpu_window_s=cpu2 - cpu0, server_cpu_load_s=cpu1 - cpu0,
                acked_elements=acked, written_elements=written,
                client_cpu_s=client1 - client0 - stats.reading_cpu_s,
                client_requests=len(stats.records),
                late_p99_ms=percentile(late, 99) * 1e3 if late else 0.0)
        if workload.durable:
            for conn in conns:
                await conn.close()
            conns = []
            killed = time.perf_counter()
            server.kill()
            server = ServerProcess(workdir, data_dir=data_dir)
            await wait_recovered(server, "bench")
            result.recover_s = time.perf_counter() - killed
            conns = [await Conn.open(server.port)
                     for _ in range(CONNECTIONS)]
            _, after = await _probe(conns, workload, oracle)
            result.mismatches += [f"after recovery: {m}" for m in after]
            recovery = await scrape(server.port)
        else:
            recovery = None
        if traced:
            result.layers = ledger.per_layer(
                spans, m0, m1, recovery=recovery,
                recover_s=result.recover_s or 0.0, **layer_args)
        return result
    finally:
        for conn in conns:
            await conn.close()
        if server is not None:
            server.stop()


async def _probe(conns, workload, oracle):
    return await run_probe(conns[0], workload.probe, oracle, workload.binary)


def _reads_ms(result: PassResult, workload, stats=None) -> List[float]:
    # bulk-binary sends no reads under load; its reads are the probe's.
    return _latencies_ms(result.query_records(
        from_probe=workload.name == "bulk-binary"), stats)


def end_to_end(result: PassResult, workload, strict: bool,
               scaled: bool = True) -> Dict[str, Tuple[float, str]]:
    """The gated figures; CPU-bound ones at reference host speed."""
    stats = result.stats if scaled else None
    writes = _latencies_ms(result.write_records(), stats)
    reads = _reads_ms(result, workload, stats)
    values = {"setup_s": result.setup_seconds(scaled),
              "ingest_eps": result.ingest_eps(scaled),
              "ingest_p50_ms": median(writes),
              # A write p99 from the 1600-3000 writes of a 20 s open loop
              # moved by 40-80% between runs on the shared host; the p95
              # holds. The p99 is still printed, ungated.
              "ingest_p95_ms": _tail(writes, 95, strict),
              "query_p50_ms": median(reads),
              "rss_mb": result.rss_mb}
    return {name: (value, END_TO_END_UNITS[name])
            for name, value in values.items()}


def _overview(result: PassResult) -> Dict[str, Tuple[float, str]]:
    """The figures the tracing overhead is judged on."""
    return {"ingest_eps": (result.ingest_eps(), "1/s"),
            "ingest_p50_ms": (median(_latencies_ms(result.write_records(),
                                                   result.stats)), "ms")}


def _print_metrics(title: str, metrics: Dict[str, Tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


async def run(args) -> Tuple[bool, int, int, Dict[str, Tuple[float, str]]]:
    cls = WORKLOADS[args.workload]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    started = time.perf_counter()
    workload = cls(args.seed, args.seconds, args.scale)
    print(f"generate: {time.perf_counter() - started:.3f} s "
          f"(inputs built from the seed before any clock starts)")
    strict = args.scale >= 1.0
    workdir = os.path.join(ROOT, ".perfbench_tmp", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if not args.trace:
            result = await one_pass(workload, args.seconds, workdir,
                                    traced=False, setups=args.setups)
            metrics = end_to_end(result, workload, strict)
            passes = [result]
            print("setup: " + " ".join(f"{s:.3f}" for s in result.setup_s)
                  + " s as timed (spawn to tenant created)")
            speeds = result.setup_speed + [
                speed for _, _, speed in result.stats.segments]
            print(f"host speed: median {median(speeds):.0f} reference "
                  f"units/s (min {min(speeds):.0f}, max {max(speeds):.0f}, "
                  f"{len(speeds)} readings); scaled figures read as at "
                  f"{REFERENCE_SPEED:.0f}")
            _print_metrics("as timed, before scaling:", {
                name: value for name, value in end_to_end(
                    result, workload, strict, scaled=False).items()
                if name != "rss_mb"})
        else:
            # The untraced reference runs half as long: it only has to
            # price the tracing (throughput and median latency).
            plain = await one_pass(workload, args.seconds / 2, workdir,
                                   traced=False, setups=1)
            workload = cls(args.seed, args.seconds, args.scale)
            result = await one_pass(workload, args.seconds, workdir,
                                    traced=True, setups=1)
            passes = [plain, result]
            base, mine = _overview(plain), _overview(result)
            _print_metrics("untraced reference pass (half length):", base)
            _print_metrics("traced pass:", mine)
            metrics = dict(result.layers)
            metrics["trace.eps_overhead_pct"] = (
                (base["ingest_eps"][0] / mine["ingest_eps"][0] - 1) * 100,
                "%")
            metrics["trace.p50_overhead_pct"] = (
                (mine["ingest_p50_ms"][0] / base["ingest_p50_ms"][0] - 1)
                * 100, "%")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    attempted = sum(len(p.all_records) for p in passes)
    failed = sum(1 for p in passes for r in p.all_records if r.status != 200)
    mismatches = [m for p in passes for m in p.mismatches]
    for m in mismatches[:10]:
        print(f"MISMATCH: {m}")
    print(f"oracle: {'match' if not mismatches else 'MISMATCH'} "
          f"({sum(len(p.probe_records) for p in passes)} probe reads"
          f"{', checked again after recovery' if workload.durable else ''})")
    # Printed, not gated: zero on a healthy run, or too unsteady between
    # runs on a shared host (see perfbench/README.md).
    extra = {"failed_ratio": (failed / attempted, "ratio")}
    writes = _latencies_ms(result.write_records(), result.stats)
    if len(writes) >= 1000:
        extra["ingest_p99_ms"] = (tail(writes, 99), "ms")
    reads = _reads_ms(result, workload, result.stats)
    if len(reads) >= 200:
        extra["query_p95_ms"] = (tail(reads, 95), "ms")
    if result.recover_s is not None:
        extra["recover_s"] = (result.recover_s, "s")
    _print_metrics("per-layer ledger (traced pass):" if args.trace
                   else "end to end:", {**metrics, **extra})
    return not mismatches, attempted, failed, metrics


def _self_test() -> int:
    """Every workload at tiny scale, untraced and traced, in seconds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1.0,
                                      trace=trace, scale=0.05, setups=2)
            correct, attempted, failed, metrics = asyncio.run(run(args))
            wanted = spec["per_layer" if trace else "end_to_end"]
            names = {m["name"]: m["unit"] for m in wanted}
            missing = sorted(set(names) - set(metrics))
            unknown = sorted(set(metrics) - set(names))
            units = sorted(n for n in names if n in metrics
                           and metrics[n][1] != names[n])
            good = (correct and not failed and not missing and not unknown
                    and not units)
            print(f"self-test {workload} trace={trace}: "
                  f"{'ok' if good else 'FAIL'} ({attempted} requests, "
                  f"missing {missing}, not in BENCHMARK.json {unknown}, "
                  f"unit mismatch {units})")
            ok = ok and good
    print(f"self-test: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("bulk-binary",
                                               "flows-json-window",
                                               "durable-mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny scale and check "
                             "that every metric name and unit is printed")
    # Full-size requests and five spawns; only --self-test shrinks them.
    parser.set_defaults(scale=1.0, setups=SETUPS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.sched_setaffinity(0, {CLIENT_CPU})
    # A SIGTERM unwinds like an error, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_test:
        return _self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        correct, attempted, failed, metrics = asyncio.run(run(args))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit)
                                  in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
