"""Shared plumbing: the keep-alive HTTP client, the server process, /proc.

Everything here runs in the benchmark's own process.  The server under
test is always a subprocess (``python -m repro serve`` untraced, or
``perfbench/launcher.py`` traced), so the client's CPU and the server's
CPU are separate processes and can be read separately from ``/proc``.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(BENCH_DIR, "launcher.py")

_CPUS = sorted(os.sched_getaffinity(0))
#: The client runs on the first CPU and the server on the last, so the
#: scheduler never stacks the two on one CPU while another idles (with
#: one CPU they share it).
CLIENT_CPU, SERVER_CPU = _CPUS[0], _CPUS[-1]

_LISTEN_RE = re.compile(rb"listening on http://([\d.]+):(\d+)")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """A run that cannot produce a valid result (setup or protocol)."""


def http_request(method: str, path: str, body: bytes = b"",
                 content_type: str = "application/json",
                 accept: Optional[str] = None) -> bytes:
    """Pre-build one HTTP/1.1 keep-alive request (head plus body)."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n")
    if accept:
        head += f"Accept: {accept}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


class Conn:
    """One persistent keep-alive connection; one request in flight."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int, host: str = "127.0.0.1") -> "Conn":
        reader, writer = await asyncio.open_connection(
            host, port, limit=1 << 20)
        return cls(reader, writer)

    async def send(self, *parts: bytes) -> Tuple[int, bytes]:
        """Write one pre-built request; return (status, response body)."""
        writer = self.writer
        for part in parts:
            writer.write(part)
        head = await self.reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        start = head.find(b"Content-Length:")
        if start < 0:
            start = head.lower().find(b"content-length:")
        end = head.find(b"\r\n", start)
        length = int(head[start + 15:end])
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def call_json(port: int, method: str, path: str,
                    payload=None) -> Tuple[int, object]:
    """One-off JSON request on a fresh connection (admin calls)."""
    conn = await Conn.open(port)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        status, raw = await conn.send(http_request(method, path, body))
    finally:
        await conn.close()
    try:
        return status, json.loads(raw) if raw else None
    except ValueError:
        return status, raw.decode("utf-8", "replace")


async def get_text(port: int, path: str) -> str:
    conn = await Conn.open(port)
    try:
        status, raw = await conn.send(http_request("GET", path))
    finally:
        await conn.close()
    if status != 200:
        raise BenchError(f"GET {path} answered {status}")
    return raw.decode("utf-8")


# -- the server process ------------------------------------------------------

class ServerProcess:
    """A ``tcm serve`` subprocess, ready once it prints its port.

    ``spans`` selects the traced launcher: the same CLI, started through
    ``perfbench/launcher.py``, which wraps layer entry points first and
    writes its spans to that file on ``SIGUSR1``.
    """

    def __init__(self, workdir: str, data_dir: Optional[str] = None,
                 spans: Optional[str] = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        # Let the server cache compiled bytecode under src/ (ignored by
        # git): every spawn after the first then starts the way a
        # deployed server does, without recompiling the package.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        argv = ["serve", "--port", "0"]
        if data_dir is not None:
            argv += ["--data-dir", data_dir]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, LAUNCHER, "--spans", spans, "--", *argv]
        self.spans = spans
        self.log_path = os.path.join(
            workdir, f"server-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log)
        os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until the server prints its listening line."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTEN_RE.search(line)
            if match:
                self.port = int(match.group(2))
                return self.port
        raise BenchError(f"server never became ready (exit code "
                         f"{self.proc.poll()}): {self.stderr_tail()}")

    def stderr_tail(self) -> str:
        self._log.flush()
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from /proc."""
        with open(f"/proc/{self.pid}/stat", "rb") as fh:
            stat = fh.read()
        fields = stat[stat.rindex(b")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """VmHWM (peak resident set) of the server process, in MiB."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def dump_spans(self, timeout: float = 60.0) -> str:
        """Ask the traced launcher to write its spans; wait for the file."""
        if os.path.exists(self.spans):
            os.unlink(self.spans)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not os.path.exists(self.spans):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("traced server wrote no spans: "
                                 + self.stderr_tail())
            time.sleep(0.01)
        return self.spans

    def stop(self, timeout: float = 60.0) -> None:
        """SIGTERM and wait; SIGKILL if it will not go."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        self._close()

    def kill(self) -> None:
        """SIGKILL (the crash in a recovery test) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()
        self._close()

    def _close(self) -> None:
        if self.proc.stdout is not None and not self.proc.stdout.closed:
            self.proc.stdout.close()
        self._log.close()


async def start_server(workdir: str, tenant: str, config: Dict,
                       data_dir: Optional[str] = None,
                       spans: Optional[str] = None) -> Tuple[ServerProcess,
                                                              float]:
    """Spawn, wait for readiness, create the tenant: (server, setup_s)."""
    server = ServerProcess(workdir, data_dir=data_dir, spans=spans)
    try:
        port = await asyncio.get_running_loop().run_in_executor(
            None, server.wait_ready)
        status, info = await call_json(port, "PUT", f"/sketches/{tenant}",
                                       config)
        if status != 201:
            raise BenchError(f"tenant create answered {status}: {info}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - server.started


async def wait_recovered(server: ServerProcess, tenant: str) -> float:
    """Ready plus the recovered tenant visible: seconds since spawn."""
    port = await asyncio.get_running_loop().run_in_executor(
        None, server.wait_ready)
    status, info = await call_json(port, "GET", f"/sketches/{tenant}")
    if status != 200:
        raise BenchError(f"recovered tenant lookup answered {status}: "
                         f"{info}")
    return time.perf_counter() - server.started


# -- /metrics ---------------------------------------------------------------

_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$")
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


class Metrics:
    """Parsed Prometheus text: ``get(name, **labels)`` sums matches."""

    def __init__(self, text: str):
        self.samples: List[Tuple[str, Dict[str, str], float]] = []
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            if match is None:
                continue
            labels = dict(_LABEL_RE.findall(match.group(2) or ""))
            self.samples.append((match.group(1), labels,
                                 float(match.group(3))))

    def get(self, name: str, **labels: str) -> float:
        total = 0.0
        for sample, have, value in self.samples:
            if sample == name and all(have.get(k) == v
                                      for k, v in labels.items()):
                total += value
        return total


async def scrape(port: int) -> Metrics:
    return Metrics(await get_text(port, "/metrics"))


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail(values: Sequence[float], q: float) -> float:
    """The q-th percentile as the median over consecutive chunks.

    ``values`` are in completion order.  Each chunk is just large enough
    for ten samples to lie beyond its percentile, and the figure is the
    median of the chunks' percentiles, so one stall of the shared host
    moves one chunk instead of the whole run's tail.  Refused when even
    one chunk cannot be filled.
    """
    needed = int(round(10 * 100 / (100 - q)))
    chunks = len(values) // needed
    if chunks == 0:
        raise BenchError(f"p{q:g} needs >= {needed} samples (ten beyond "
                         f"it), got {len(values)}")
    size = len(values) / chunks
    return median([percentile(values[int(i * size):int((i + 1) * size)], q)
                   for i in range(chunks)])


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# -- host speed ---------------------------------------------------------------

#: Reference units per second the CPU-bound figures are scaled to: about
#: what ``host_speed`` reads on the two-vCPU VM the bounds were tuned on
#: (Intel Xeon, Python 3.11, numpy 2.4) when its host is busy.
REFERENCE_SPEED = 10000.0

#: Scatter target of the reference unit: 2 MiB, the size of the d=4,
#: w=256 sketch the workloads ingest into.
_UNIT_CELLS = np.zeros(1 << 18)
_UNIT_INDEX = np.random.default_rng(0).integers(0, 1 << 18, 4096)


def _reference_unit() -> None:
    """A fixed slice of work shaped like the server's that calls no
    program code: interpreter steps, then a random scatter into
    sketch-sized memory.  Interpreter steps alone followed the numpy-heavy
    bulk-binary less closely (quartile spread 0.103-0.109 of its scaled
    ingest_eps against 0.058-0.065 with the scatter, read in the same
    runs).
    """
    acc = 0
    table = {}
    for i in range(256):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 127] = i
    _UNIT_CELLS[_UNIT_INDEX] += 1.0
    np.bincount(_UNIT_INDEX & 0xFFFF, minlength=1 << 16)


def host_speed(seconds: float = 0.2) -> float:
    """Reference units per second on the server's CPU right now.

    The CPU a shared host gives a process moves by up to a factor of two
    within minutes; a CPU-bound figure measured next to this reading and
    scaled by it moves far less.  Take it with the server idle.
    """
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {SERVER_CPU})
    try:
        done = 0
        start = time.perf_counter()
        end = start + seconds
        while True:
            for _ in range(16):
                _reference_unit()
            done += 16
            now = time.perf_counter()
            if now >= end:
                return done / (now - start)
    finally:
        os.sched_setaffinity(0, mine)


# -- environment -------------------------------------------------------------

def environment() -> Dict[str, object]:
    """The stamp recorded with every result."""
    import platform

    import numpy

    from repro.core import kernels
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "kernel_backend": kernels.active_backend(),
            "git_commit": commit or "none (not a git checkout)",
            "source_sha256": source_digest()}


def source_digest() -> str:
    """sha256 over ``src/`` -- identifies the code when git is absent."""
    import hashlib
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]
