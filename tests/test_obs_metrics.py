"""Tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro import obs
from repro.core.tcm import TCM
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    log_buckets,
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test starts disabled with zeroed default-registry values."""
    obs.disable()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.REGISTRY.reset()


class TestLogBuckets:
    def test_log_scale(self):
        assert log_buckets(1e-2, 1.0, per_decade=1) == (0.01, 0.1, 1.0)

    def test_half_decades(self):
        buckets = log_buckets(1e-2, 1.0, per_decade=2)
        assert len(buckets) == 5
        assert buckets[0] == pytest.approx(0.01)
        assert buckets[1] == pytest.approx(0.0316227766)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 0.1)
        with pytest.raises(ValueError):
            log_buckets(1e-3, 1.0, per_decade=0)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", "help text")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels(self):
        c = MetricsRegistry().counter("x_total", labelnames=("kind",))
        c.labels("a").inc(2)
        c.labels("b").inc(3)
        assert c.labels("a").value == 2
        assert c.value == 5  # family value sums children
        # same label combination returns the same child
        assert c.labels("a") is c.labels("a")

    def test_labeled_family_rejects_direct_inc(self):
        c = MetricsRegistry().counter("x_total", labelnames=("kind",))
        with pytest.raises(ValueError):
            c.inc()

    def test_wrong_label_arity(self):
        c = MetricsRegistry().counter("x_total", labelnames=("a", "b"))
        with pytest.raises(ValueError):
            c.labels("only-one")

    def test_unlabeled_rejects_labels_call(self):
        c = MetricsRegistry().counter("x_total")
        with pytest.raises(ValueError):
            c.labels("a")


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_labels(self):
        g = MetricsRegistry().gauge("g", labelnames=("shard",))
        g.labels(0).set(1.5)
        assert g.labels("0").value == 1.5  # label values stringify


class TestHistogram:
    def test_bucketing(self):
        h = MetricsRegistry().histogram("h", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(5.555)
        assert h.bucket_counts == [1, 2, 3, 4]  # cumulative, +Inf last

    def test_boundary_lands_in_its_bucket(self):
        # le semantics: an observation equal to a bound belongs to it.
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 1, 1]

    def test_mean_and_quantile(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 0.5, 50.0, 50.0):
            h.observe(v)
        assert h.mean == pytest.approx(25.25)
        assert h.quantile(0.25) == 1.0
        assert h.quantile(1.0) == 100.0

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.1))

    def test_labels(self):
        h = MetricsRegistry().histogram("h", labelnames=("kind",),
                                        buckets=(1.0,))
        h.labels("a").observe(0.5)
        h.labels("b").observe(2.0)
        assert h.count == 2
        assert h.labels("a").count == 1


class TestRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total", "help")
        b = registry.counter("x_total")
        assert a is b

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_label_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labelnames=("b",))

    def test_reset_preserves_handles(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total")
        c.inc(5)
        registry.reset()
        assert c.value == 0
        assert registry.get("x_total") is c  # handle still registered
        c.inc()
        assert c.value == 1

    def test_reset_clears_labeled_children(self):
        registry = MetricsRegistry()
        c = registry.counter("x_total", labelnames=("k",))
        c.labels("a").inc(3)
        registry.reset()
        assert c.value == 0

    def test_collect_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total")
        registry.gauge("a")
        assert [m.name for m in registry.collect()] == ["a", "b_total"]


class TestRenderPrometheus:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests").inc(3)
        registry.gauge("temp", "temperature").set(21.5)
        text = obs.render_prometheus(registry)
        assert "# TYPE req_total counter" in text
        assert "req_total 3" in text
        assert "temp 21.5" in text

    def test_labels_and_histogram_exposition(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", "latency", labelnames=("kind",),
                               buckets=(0.1, 1.0))
        h.labels("edge").observe(0.05)
        text = obs.render_prometheus(registry)
        assert 'lat_bucket{kind="edge",le="0.1"} 1' in text
        assert 'lat_bucket{kind="edge",le="+Inf"} 1' in text
        assert 'lat_count{kind="edge"} 1' in text


class TestNoOpFastPath:
    def test_disabled_instrumentation_records_nothing(self):
        tcm = TCM(d=2, width=16, seed=1)
        tcm.update("a", "b", 2.0)
        tcm.edge_weight("a", "b")
        assert obs.OBS.tcm_updates.value == 0
        assert obs.OBS.query_seconds.count == 0

    def test_enabled_instrumentation_records(self):
        tcm = TCM(d=2, width=16, seed=1)
        obs.enable()
        tcm.update("a", "b", 2.0)
        tcm.update("b", "c", 3.0)
        tcm.edge_weight("a", "b")
        assert obs.OBS.tcm_updates.value == 2
        assert obs.OBS.tcm_update_weight.value == 5.0
        assert obs.OBS.query_seconds.labels("edge_weight").count == 1

    def test_ingest_counters(self, small_directed):
        obs.enable()
        tcm = TCM(d=2, width=16, seed=1)
        tcm.ingest(small_directed)
        assert obs.OBS.tcm_ingest_elements.value == len(small_directed)
        assert obs.OBS.tcm_ingest_seconds.count == 1

    @pytest.mark.parametrize("entry", ["ingest", "ingest_chunk",
                                       "ingest_columns", "ingest_keys",
                                       "ingest_conservative"])
    def test_every_column_entry_point_counts_elements(
            self, small_directed, entry):
        from repro.hashing.labels import label_keys
        edges = list(small_directed)
        tcm = TCM(d=2, width=16, seed=1)
        obs.enable()
        if entry in ("ingest", "ingest_conservative"):
            getattr(tcm, entry)(edges, chunk_size=2)
        elif entry == "ingest_chunk":
            tcm.ingest_chunk(edges)
        else:
            sources = [e.source for e in edges]
            targets = [e.target for e in edges]
            if entry == "ingest_keys":
                sources, targets = label_keys(sources), label_keys(targets)
            getattr(tcm, entry)(sources, targets)
        assert obs.OBS.tcm_ingest_elements.value == len(edges)

    def test_snapshot_roundtrip(self):
        import json
        obs.enable()
        tcm = TCM(d=2, width=16, seed=1)
        tcm.update("a", "b")
        doc = json.loads(obs.json_snapshot(tcms={"t": tcm}))
        assert doc["enabled"] is True
        assert doc["metrics"]["tcm_updates_total"]["samples"][0]["value"] == 1
        assert doc["health"]["t"]["d"] == 2
