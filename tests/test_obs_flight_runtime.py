"""Tests for the flight recorder (repro.obs.flight), runtime sampling
(repro.obs.runtime), reporter lifecycle and Prometheus label escaping."""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.tcm import TCM
from repro.obs.accuracy import DriftEvent
from repro.obs.export import (
    PeriodicReporter,
    _escape_label_value,
    render_prometheus,
)
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import (
    RuntimeSampler,
    latency_quantiles,
    rss_bytes,
    rss_slope,
)
from repro.obs.tracing import Tracer


@pytest.fixture(autouse=True)
def clean_obs_state():
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


class TestFlightRecorder:
    def test_ring_buffer_evicts_oldest(self):
        flight = FlightRecorder(capacity=3)
        for i in range(5):
            flight.mark(f"note-{i}")
        notes = [e.payload["note"] for e in flight.events()]
        assert notes == ["note-2", "note-3", "note-4"]
        assert flight.recorded == 5
        assert len(flight) == 3

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_saturation_warnings_dedup_across_ticks(self):
        flight = FlightRecorder()
        tcm = TCM(d=2, width=4, seed=0)
        for i in range(200):
            tcm.update(i, i + 1, 1.0)
        # 200 structured edges land the 2x(4x4) sketch at load exactly
        # 0.5 and collision rate ~0.36; the default thresholds compare
        # strictly, so pass explicit lower ones.
        first = flight.check_saturation(tcm, summary="s",
                                        load_threshold=0.4,
                                        collision_threshold=0.3)
        again = flight.check_saturation(tcm, summary="s",
                                        load_threshold=0.4,
                                        collision_threshold=0.3)
        assert first            # a 4-wide sketch is saturated
        assert again            # warnings still returned ...
        saturation_events = flight.events("saturation")
        # ... but each warning shape is buffered only once.
        assert len(saturation_events) == len(first)

    def test_span_capture_is_incremental(self):
        obs.enable()            # spans are a no-op while obs is disabled
        tracer = Tracer()
        flight = FlightRecorder()
        with tracer.span("first"):
            pass
        assert flight.capture_spans(tracer) == 1
        assert flight.capture_spans(tracer) == 0
        with tracer.span("second"):
            pass
        assert flight.capture_spans(tracer) == 1
        names = [e.payload["name"] for e in flight.events("span")]
        assert names == ["first", "second"]

    def test_record_drift_and_dump_roundtrip(self):
        flight = FlightRecorder()
        event = DriftEvent("error", "up", 7, 1.5, 0.3, 0.25)
        flight.record_drift(event, summary="soak")
        flight.mark("phase", detail="post-shift")
        doc = json.loads(flight.dump_json())
        assert doc["counts"] == {"drift": 1, "mark": 1}
        drift = [e for e in doc["events"] if e["kind"] == "drift"][0]
        assert drift["signal"] == "error"
        assert drift["direction"] == "up"
        assert drift["summary"] == "soak"

    def test_clear_resets_dedup_and_cursor(self):
        flight = FlightRecorder()
        tcm = TCM(d=2, width=4, seed=0)
        for i in range(200):
            tcm.update(i, i + 1, 1.0)
        flight.check_saturation(tcm, load_threshold=0.4,
                                collision_threshold=0.3)
        flight.clear()
        assert len(flight) == 0
        assert flight.recorded == 0
        flight.check_saturation(tcm, load_threshold=0.4,
                                collision_threshold=0.3)
        assert flight.events("saturation")    # dedup state was dropped

    def test_counts_events_metric_when_enabled(self):
        obs.enable()
        flight = FlightRecorder()
        flight.mark("x")
        rendered = render_prometheus()
        assert 'flight_events_total{kind="mark"} 1' in rendered


class TestRuntimeSampler:
    def test_sample_reads_positive_rss(self):
        assert rss_bytes() > 0
        sampler = RuntimeSampler()
        point = sampler.sample()
        assert point.rss_bytes > 0
        assert point.elapsed >= 0.0
        assert len(point.gc_collections) == 3
        assert point.minor_faults > 0
        assert sampler.sample().minor_faults >= point.minor_faults
        assert point.to_dict()["minor_faults"] == point.minor_faults

    def test_slope_fit_on_synthetic_series(self):
        assert rss_slope([0.0, 1.0, 2.0], [100, 200, 300]) == \
            pytest.approx(100.0)
        assert rss_slope([0.0, 1.0], [100, 100]) == pytest.approx(0.0)
        assert rss_slope([1.0], [100]) == 0.0
        assert rss_slope([2.0, 2.0], [1, 5]) == 0.0   # degenerate time axis

    def test_summary_and_warmup_skip(self):
        sampler = RuntimeSampler()
        for _ in range(6):
            sampler.sample()
        summary = sampler.summary(warmup_skip=2)
        assert summary["samples"] == 6
        assert summary["rss_peak_bytes"] >= summary["rss_end_bytes"] > 0
        assert isinstance(summary["rss_slope_bytes_per_sec"], float)

    def test_decimation_keeps_whole_run_span(self):
        sampler = RuntimeSampler(max_samples=4)
        for _ in range(9):
            sampler.sample()
        assert len(sampler.samples) <= 5
        times, _ = sampler.rss_series()
        assert times[0] < times[-1]

    def test_background_thread_lifecycle(self):
        sampler = RuntimeSampler()
        sampler.start(interval=0.01)
        thread = sampler._thread
        assert thread.is_alive()
        sampler.start(interval=0.01)              # idempotent: same thread
        assert sampler._thread is thread
        time.sleep(0.05)
        sampler.stop()
        assert not thread.is_alive()
        assert sampler.samples                    # final sample flushed
        sampler.stop()                            # idempotent

    def test_exports_gauges_when_enabled(self):
        obs.enable()
        sampler = RuntimeSampler()
        sampler.sample()
        rendered = render_prometheus()
        assert "process_rss_bytes" in rendered


class TestLatencyQuantiles:
    def test_histogram_quantiles_reported_per_labelset(self):
        registry = MetricsRegistry()
        h = registry.histogram("op_seconds", "", labelnames=("kind",),
                               buckets=(0.001, 0.01, 0.1, 1.0))
        for _ in range(99):
            h.labels("fast").observe(0.005)
        h.labels("fast").observe(0.5)
        out = latency_quantiles(registry)
        row = out["op_seconds{kind=fast}"]
        assert row["p50"] == pytest.approx(0.01)
        assert row["p99"] == pytest.approx(0.01)
        assert row["count"] == 100.0

    def test_quantile_matches_numpy_up_to_bucket_resolution(self):
        """Histogram.quantile returns the log-bucket upper bound holding
        the rank -- i.e. the smallest bucket bound >= numpy's exact
        percentile of the same data."""
        registry = MetricsRegistry()
        buckets = tuple(10.0 ** e for e in range(-6, 2))
        h = registry.histogram("q_seconds", "", buckets=buckets)
        rng = np.random.default_rng(3)
        data = rng.lognormal(mean=-6.0, sigma=2.0, size=5000)
        for x in data:
            h.observe(float(x))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(data, q))
            estimate = h.quantile(q)
            covering = min(b for b in buckets if b >= min(exact, buckets[-1]))
            assert estimate == pytest.approx(covering)

    def test_empty_histograms_skipped(self):
        registry = MetricsRegistry()
        registry.histogram("never_observed_seconds", "")
        assert latency_quantiles(registry) == {}


class TestPeriodicReporterLifecycle:
    def test_start_stop_idempotent_no_thread_leak(self):
        lines = []
        reporter = PeriodicReporter(every=10, interval=0.01,
                                    emit=lines.append)
        before = threading.active_count()
        reporter.start()
        thread = reporter._thread
        reporter.start()                          # no second thread
        assert reporter._thread is thread
        assert threading.active_count() == before + 1
        summary = reporter.stop()
        assert not thread.is_alive()
        assert threading.active_count() == before
        assert summary is not None and "elements" in summary
        assert reporter.stop() is None            # repeat stop is a no-op

    def test_stop_flushes_final_report_line(self):
        lines = []
        reporter = PeriodicReporter(every=1000, interval=None,
                                    emit=lines.append)
        reporter.interval = 60.0                  # heartbeat never fires

        class Edge:
            source, target = "a", "b"

        reporter.start()
        reporter.observe(Edge())
        reporter.stop()
        assert any("done: 1 elements" in line for line in lines)

    def test_restart_after_stop(self):
        reporter = PeriodicReporter(every=10, interval=0.01, emit=lambda s: None)
        reporter.start()
        reporter.stop()
        reporter.start()
        assert reporter.running
        reporter.stop()
        assert not reporter.running

    def test_start_requires_positive_interval(self):
        reporter = PeriodicReporter(every=10, interval=None)
        with pytest.raises(ValueError, match="positive interval"):
            reporter.start()


class TestPrometheusLabelEscaping:
    def test_escape_order_backslash_first(self):
        assert _escape_label_value('a\\n"b"\nc') == 'a\\\\n\\"b\\"\\nc'

    def test_hostile_label_values_render_one_line_each(self):
        """Quotes, newlines and backslashes in label values must not
        break the exposition format (one sample per line, parseable)."""
        registry = MetricsRegistry()
        gauge = registry.gauge("hostile_gauge", "h", labelnames=("name",))
        hostile = 'ev"il\nlabel\\value'
        gauge.labels(hostile).set(1.0)
        rendered = render_prometheus(registry)
        sample_lines = [l for l in rendered.splitlines()
                        if l.startswith("hostile_gauge{")]
        assert len(sample_lines) == 1
        line = sample_lines[0]
        assert '\\n' in line and '\\"' in line and "\\\\" in line
        # Reversing the escapes recovers the original value exactly.
        value = line[len('hostile_gauge{name="'):line.rindex('"')]
        unescaped = (value.replace("\\\\", "\x00")
                     .replace('\\"', '"').replace("\\n", "\n")
                     .replace("\x00", "\\"))
        assert unescaped == hostile
