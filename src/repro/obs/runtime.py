"""Runtime telemetry: RSS + GC sampling and latency quantile readouts.

The soak gate (ROADMAP item 5, ``benchmarks/bench_soak.py``) needs three
runtime signals next to the accuracy gauges:

- **RSS over time** -- a summary whose memory is genuinely bounded shows
  a flat resident-set trend once warmed up; a leak (an unbounded buffer,
  a cache that never clears) shows as a positive slope.
  :class:`RuntimeSampler` reads ``VmRSS`` from ``/proc/self/status``
  (falling back to ``resource.getrusage`` off Linux; ``psutil`` is
  deliberately not a dependency) and fits a least-squares slope over the
  sampled series.
- **GC pressure** -- collection counts per generation, differenced into
  the ``process_gc_collections_total`` counter.  A hot loop that churns
  temporaries shows up here before it shows up in latency.
- **Page faults** -- ``ru_minflt`` from ``getrusage``, exported as the
  ``process_minor_page_faults_total`` counter.  A hot path that maps
  and zero-fills fresh pages per batch (large per-call temporaries)
  shows up here as a fault rate in the tens of thousands per second.
- **Latency quantiles** -- p50/p99 readouts computed from the log-bucket
  :class:`~repro.obs.metrics.Histogram` families already populated by the
  instrumented query/ingest paths; :func:`latency_quantiles` is the
  one-call summary the benchmark gate and ``tcm obs`` print.
"""

from __future__ import annotations

import gc
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.instruments import OBS, REGISTRY
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "RuntimeSampler",
    "RuntimeSample",
    "latency_quantiles",
    "minor_faults",
    "process_snapshot",
    "rss_bytes",
    "rss_slope",
]

_VMRSS_RE = re.compile(rb"^VmRSS:\s+(\d+)\s+kB", re.MULTILINE)


def rss_bytes() -> int:
    """Resident set size of this process, in bytes.

    Prefers ``/proc/self/status`` (exact, Linux); falls back to
    ``resource.getrusage`` (``ru_maxrss`` -- a high-water mark, still
    monotone enough for slope fitting) elsewhere.  Returns 0 when neither
    source is available.
    """
    try:
        with open("/proc/self/status", "rb") as f:
            match = _VMRSS_RE.search(f.read())
        if match:
            return int(match.group(1)) * 1024
    except OSError:
        pass
    try:
        import resource
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # Linux reports kilobytes, macOS bytes.
        scale = 1 if usage.ru_maxrss > (1 << 32) else 1024
        return int(usage.ru_maxrss) * scale
    except Exception:
        return 0


def minor_faults() -> int:
    """Minor page faults this process has taken (``ru_minflt``); 0 where
    ``resource`` is unavailable."""
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    except (ImportError, OSError):
        return 0


def process_snapshot() -> Dict[str, int]:
    """Read RSS and minor faults now and export them.

    Called when ``/metrics`` or ``/stats`` is scraped -- never on a hot
    path -- so the process gauges are current even without a running
    :class:`RuntimeSampler`.
    """
    point = {"rss_bytes": rss_bytes(), "minor_page_faults": minor_faults()}
    OBS.process_rss_bytes.set(point["rss_bytes"])
    _export_faults(point["minor_page_faults"])
    return point


_FAULTS_LOCK = threading.Lock()


def _export_faults(total: int) -> None:
    # The counter mirrors the process total, whatever reset it last.  A
    # scrape and the sampler thread may export at once.
    with _FAULTS_LOCK:
        counter = OBS.process_minor_page_faults
        if total > counter.value:
            counter.inc(total - counter.value)


def rss_slope(times: List[float], rss: List[int]) -> float:
    """Least-squares slope of an RSS series, in bytes per second.

    The soak gate asserts this stays under a small ceiling once the run
    is past warm-up ("flat-RSS slope").  Returns 0 for fewer than two
    samples or a degenerate time axis.
    """
    n = len(times)
    if n < 2 or len(rss) != n:
        return 0.0
    mean_t = sum(times) / n
    mean_r = sum(rss) / n
    var_t = sum((t - mean_t) ** 2 for t in times)
    if var_t == 0:
        return 0.0
    cov = sum((t - mean_t) * (r - mean_r) for t, r in zip(times, rss))
    return cov / var_t


def latency_quantiles(registry: MetricsRegistry = REGISTRY,
                      quantiles: tuple = (0.5, 0.99)) -> Dict[str, Dict[str, float]]:
    """p50/p99 (or any quantile set) for every populated histogram.

    Keys are ``family`` or ``family{label=value,...}`` for labeled
    children; values map ``"p50"``-style names to the log-bucket upper
    bound holding that rank (see :meth:`Histogram.quantile` for the
    estimator's bucket-resolution error bound).
    """
    out: Dict[str, Dict[str, float]] = {}
    for family in registry.collect():
        for metric in family.children():
            if not isinstance(metric, Histogram) or metric.count == 0:
                continue
            key = family.name
            if metric.labelvalues:
                labels = ",".join(
                    f"{k}={v}" for k, v in
                    zip(family.labelnames, metric.labelvalues))
                key = f"{family.name}{{{labels}}}"
            out[key] = {f"p{int(q * 100)}": metric.quantile(q)
                        for q in quantiles}
            out[key]["count"] = float(metric.count)
            out[key]["mean"] = metric.mean
    return out


@dataclass
class RuntimeSample:
    """One point of the runtime series."""

    elapsed: float          #: seconds since the sampler started
    rss_bytes: int
    gc_collections: tuple   #: cumulative per-generation collection counts
    label_cache_bytes: int
    minor_faults: int       #: cumulative minor page faults of the process

    def to_dict(self) -> Dict[str, Any]:
        return {"elapsed": self.elapsed, "rss_bytes": self.rss_bytes,
                "gc_collections": list(self.gc_collections),
                "label_cache_bytes": self.label_cache_bytes,
                "minor_faults": self.minor_faults}


class RuntimeSampler:
    """Periodic RSS/GC sampler with slope fitting and gauge export.

    Drive it manually (``sampler.sample()`` once per soak chunk -- the
    deterministic mode the benchmark uses) or as a daemon thread
    (``start(interval)`` / ``stop()``) behind a long-running server.
    Either way every sample updates the ``process_rss_bytes`` /
    ``process_gc_collections_total`` / ``process_minor_page_faults_total``
    / ``label_cache_bytes`` instruments when observability is enabled.
    """

    def __init__(self, max_samples: int = 4096):
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.max_samples = max_samples
        self.samples: List[RuntimeSample] = []
        self._started = time.perf_counter()
        self._gc_base = self._gc_counts()
        self._last_gc = self._gc_base
        self._thread = None
        self._stop_flag = None

    @staticmethod
    def _gc_counts() -> tuple:
        return tuple(s["collections"] for s in gc.get_stats())

    def sample(self) -> RuntimeSample:
        """Take one sample, export gauges, and return it."""
        from repro.hashing.labels import label_cache_bytes
        now = time.perf_counter()
        gc_now = self._gc_counts()
        cache_bytes = label_cache_bytes()
        point = RuntimeSample(
            elapsed=now - self._started,
            rss_bytes=rss_bytes(),
            gc_collections=tuple(c - b for c, b
                                 in zip(gc_now, self._gc_base)),
            label_cache_bytes=cache_bytes,
            minor_faults=minor_faults())
        self.samples.append(point)
        if len(self.samples) > self.max_samples:
            # Decimate (keep every other sample) instead of sliding, so
            # the series still spans the whole run for slope fitting.
            self.samples = self.samples[::2]
        if OBS.enabled:
            OBS.process_rss_bytes.set(point.rss_bytes)
            OBS.label_cache_bytes.set(cache_bytes)
            _export_faults(point.minor_faults)
            for gen, (current, last) in enumerate(zip(gc_now, self._last_gc)):
                if current > last:
                    OBS.process_gc_collections.labels(str(gen)).inc(
                        current - last)
        self._last_gc = gc_now
        return point

    # -- background mode ----------------------------------------------------

    def start(self, interval: float = 1.0) -> None:
        """Start a daemon sampling thread; idempotent."""
        if self._thread is not None and self._thread.is_alive():
            return
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self._stop_flag = threading.Event()

        def _run(stop=self._stop_flag):
            while not stop.wait(interval):
                self.sample()

        self._thread = threading.Thread(
            target=_run, name="repro-runtime-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread and take one final sample; idempotent."""
        thread, self._thread = self._thread, None
        if self._stop_flag is not None:
            self._stop_flag.set()
            self._stop_flag = None
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        if thread is not None:
            self.sample()

    # -- readout ------------------------------------------------------------

    def rss_series(self) -> tuple:
        return ([s.elapsed for s in self.samples],
                [s.rss_bytes for s in self.samples])

    def rss_slope_bytes_per_sec(self, skip: int = 0) -> float:
        """Fitted RSS slope, optionally skipping warm-up samples."""
        times, rss = self.rss_series()
        return rss_slope(times[skip:], rss[skip:])

    def summary(self, warmup_skip: int = 0) -> Dict[str, Any]:
        """JSON-able roll-up for benchmark records and ``tcm obs``."""
        times, rss = self.rss_series()
        gc_delta = self.samples[-1].gc_collections if self.samples else ()
        return {
            "samples": len(self.samples),
            "elapsed_seconds": times[-1] if times else 0.0,
            "rss_start_bytes": rss[0] if rss else 0,
            "rss_end_bytes": rss[-1] if rss else 0,
            "rss_peak_bytes": max(rss) if rss else 0,
            "rss_slope_bytes_per_sec":
                rss_slope(times[warmup_skip:], rss[warmup_skip:]),
            "gc_collections": list(gc_delta),
            "label_cache_bytes":
                self.samples[-1].label_cache_bytes if self.samples else 0,
        }
