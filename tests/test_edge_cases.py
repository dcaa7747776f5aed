"""Boundary and edge-case tests across modules."""

import numpy as np
import pytest

from repro.core.aggregation import Aggregation
from repro.core.graph_sketch import GraphSketch
from repro.core.tcm import TCM
from repro.hashing.family import HashFamily
from repro.streams.io import read_stream
from repro.streams.model import GraphStream, StreamEdge


class TestDegenerateWidths:
    def test_width_one_tcm_still_correct_totals(self):
        tcm = TCM(d=2, width=1, seed=1)
        tcm.update("a", "b", 2.0)
        tcm.update("c", "d", 3.0)
        # Everything collides into the single cell.
        assert tcm.edge_weight("a", "b") == 5.0
        assert tcm.total_weight_estimate() == 5.0

    def test_width_one_reachability_saturates(self):
        tcm = TCM(d=2, width=1, seed=1)
        tcm.update("a", "b", 1.0)
        assert tcm.reachable("anything", "else")

    def test_width_one_never_underestimates(self):
        tcm = TCM(d=1, width=1, seed=1)
        tcm.update("a", "b", 2.0)
        assert tcm.edge_weight("a", "b") >= 2.0

    def test_two_by_two_undirected(self):
        tcm = TCM(d=1, width=2, seed=1, directed=False)
        tcm.update("a", "b", 1.0)
        tcm.update("b", "a", 1.0)
        assert tcm.edge_weight("a", "b") == 2.0
        assert tcm.sketches[0].matrix.sum() == 2.0


class TestDtype:
    def test_float32_matrix(self):
        sketch = GraphSketch(HashFamily.uniform(1, 8, seed=1)[0],
                             dtype=np.float32)
        sketch.update("a", "b", 1.5)
        assert sketch.matrix.dtype == np.float32
        assert sketch.edge_estimate("a", "b") == 1.5

    def test_int64_count_matrix(self):
        sketch = GraphSketch(HashFamily.uniform(1, 8, seed=1)[0],
                             aggregation=Aggregation.COUNT, dtype=np.int64)
        sketch.update("a", "b", 99.0)
        assert sketch.edge_estimate("a", "b") == 1


class TestUnusualLabels:
    def test_unicode_labels(self):
        tcm = TCM(d=2, width=32, seed=1)
        tcm.update("nöde-α", "ノード", 2.0)
        assert tcm.edge_weight("nöde-α", "ノード") == 2.0

    def test_empty_string_label(self):
        tcm = TCM(d=2, width=32, seed=1)
        tcm.update("", "b", 1.0)
        assert tcm.edge_weight("", "b") == 1.0

    def test_huge_int_labels(self):
        tcm = TCM(d=2, width=32, seed=1)
        tcm.update(2 ** 63, 2 ** 64 - 1, 1.0)
        assert tcm.edge_weight(2 ** 63, 2 ** 64 - 1) == 1.0

    def test_bytes_labels(self):
        tcm = TCM(d=2, width=32, seed=1)
        tcm.update(b"\x00\x01", b"\xff", 3.0)
        assert tcm.edge_weight(b"\x00\x01", b"\xff") == 3.0

    def test_mixed_types_do_not_alias(self):
        """The int 97 and the string '97' are different labels (unless
        FNV happens to collide, which it does not for these)."""
        tcm = TCM(d=3, width=512, seed=1)
        tcm.update(97, "target", 1.0)
        assert tcm.edge_weight("97", "target") == 0.0


class TestEmptySummaries:
    def test_queries_on_empty_tcm(self):
        tcm = TCM(d=2, width=16, seed=1)
        assert tcm.edge_weight("a", "b") == 0.0
        assert tcm.out_flow("a") == 0.0
        assert tcm.total_weight_estimate() == 0.0
        assert not tcm.reachable("a", "b")
        assert tcm.reachable("a", "a")  # self-reachability is free

    def test_subgraph_on_empty_tcm(self):
        tcm = TCM(d=2, width=16, seed=1)
        assert tcm.subgraph_weight([("a", "b")]) == 0.0

    def test_serialize_empty(self, tmp_path):
        from repro.core.serialization import load_tcm, save_tcm
        tcm = TCM(d=2, width=16, seed=1)
        save_tcm(tcm, tmp_path / "empty.npz")
        loaded = load_tcm(tmp_path / "empty.npz")
        assert loaded.total_weight_estimate() == 0.0

    def test_monitor_on_empty_stream(self):
        from repro.core.heavy_hitters import HeavyEdgeMonitor
        monitor = HeavyEdgeMonitor(TCM(d=1, width=8, seed=1), k=3)
        monitor.consume([])
        assert monitor.top() == []


class TestStreamEdgeCases:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_stream(tmp_path / "ghost.txt")

    def test_stream_of_self_loops(self):
        stream = GraphStream(directed=True)
        stream.add("a", "a", 2.0)
        tcm = TCM.from_stream(stream, d=2, width=16, seed=1)
        assert tcm.edge_weight("a", "a") == 2.0
        assert tcm.reachable("a", "a")

    def test_single_element_stream(self):
        stream = GraphStream(edges=[StreamEdge("x", "y", 7.0)])
        assert stream.top_edges(5) == [(("x", "y"), 7.0)]
        assert stream.top_nodes(5, "in") == [("y", 7.0)]

    def test_all_equal_weights_topk_deterministic(self):
        stream = GraphStream(directed=True)
        for i in range(5):
            stream.add(f"s{i}", f"t{i}", 1.0)
        first = stream.top_edges(3)
        second = stream.top_edges(3)
        assert first == second  # repr tie-break is stable


class TestReprFormats:
    def test_tcm_repr(self):
        text = repr(TCM(d=2, width=8, seed=1, directed=False))
        assert "d=2" in text and "8x8" in text and "undirected" in text

    def test_sketch_repr(self):
        sketch = GraphSketch(HashFamily.uniform(1, 8, seed=1)[0])
        assert "graphical" in repr(sketch)

    def test_stream_edge_is_hashable(self):
        assert len({StreamEdge("a", "b"), StreamEdge("a", "b")}) == 1


class TestFromStreamKwargs:
    def test_explicit_directed_override(self):
        edges = [StreamEdge("a", "b", 1.0)]
        tcm = TCM.from_stream(edges, d=1, width=8, directed=False)
        assert not tcm.directed

    def test_aggregation_passthrough(self, small_directed):
        tcm = TCM.from_stream(small_directed, d=1, width=64,
                              aggregation=Aggregation.MAX)
        assert tcm.edge_weight("a", "b") == 3.0  # max element weight


class TestDriverParameterVariants:
    def test_fig7_custom_ratios(self):
        from repro.experiments.exp1_edge import fig7_edge_vs_ratio
        rows = fig7_edge_vs_ratio("gtgraph", "tiny", ratios=(1 / 30,), d=2)
        assert len(rows) == 1
        assert rows[0][0] == "1/30"

    def test_fig8_single_bucket(self):
        from repro.experiments.exp1_edge import fig8_weight_distribution
        rows = fig8_weight_distribution("dblp", "tiny", buckets=1)
        assert len(rows) == 1

    def test_gsketch_custom_partitions(self):
        from repro.experiments.exp1_edge import gsketch_comparison
        rows = gsketch_comparison("gtgraph", "tiny", d_values=(2,),
                                  partitions=4)
        assert len(rows) == 4

    def test_fig15_rejects_empty_query_pool(self, monkeypatch):
        from repro.experiments import datasets
        from repro.experiments.exp4_graph import fig15_subgraph_vs_d

        # A stream with no adjacency yields no sampled query graphs.
        monkeypatch.setattr(datasets, "by_name",
                            lambda name, scale="small": GraphStream())
        with pytest.raises(ValueError, match="query graphs"):
            fig15_subgraph_vs_d("gtgraph", "tiny")


class TestNonFiniteInputs:
    """NaN and infinite weights fail like negative ones, on every bulk
    entry point, before any cell changes."""

    BAD = [float("nan"), float("inf"), -1.0]

    @pytest.mark.parametrize("bad", BAD)
    def test_ingest_keys_and_remove_many_reject(self, bad):
        tcm = TCM(d=2, width=16, seed=1)
        keys = np.array([1, 2], dtype=np.uint64)
        tcm.ingest_keys(keys, keys, np.array([3.0, 4.0]))
        before = [s.matrix.copy() for s in tcm.sketches]
        with pytest.raises(ValueError, match="finite and non-negative"):
            tcm.ingest_keys(keys, keys, np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite and non-negative"):
            tcm.remove_many([1, 2], [1, 2], np.array([bad, 1.0]))
        for got, want in zip(tcm.sketches, before):
            np.testing.assert_array_equal(got.matrix, want)
        assert np.isfinite(tcm.total_weight_estimate())

    @pytest.mark.parametrize("bad", BAD)
    def test_scalar_update_rejects(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TCM(d=2, width=16, seed=1).update("a", "b", bad)

    def test_window_rejects_bad_weights_and_timestamps(self):
        from repro.streams.rotating import RotatingWindowTCM
        window = RotatingWindowTCM(8.0, buckets=4, d=2, width=16, seed=1)
        with pytest.raises(ValueError, match="finite and non-negative"):
            window.observe_columns([1, 2], [3, 4], [1.0, float("nan")],
                                   [0.0, 1.0])
        with pytest.raises(ValueError, match="timestamps must be finite"):
            window.observe_columns([1, 2], [3, 4], [1.0, 1.0],
                                   [0.0, float("nan")])
        assert window.observe_columns([1], [3], [2.0], [1.0]) == 1
        assert window.watermark == 1.0
