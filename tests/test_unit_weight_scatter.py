"""Unit-weight scatters (``values=None``) equal explicit unit weights.

COUNT tenants and every ``weights=None`` call (``ingest_keys``,
``ingest_columns``, ``remove_many``) reach the scatter kernels with
``values=None``.  The kernels add a one of the matrix's own dtype, so
the state must match an explicit all-ones weight column bit for bit,
in every cell dtype.
"""

import numpy as np
import pytest

from repro.core.aggregation import Aggregation
from repro.core.graph_sketch import GraphSketch
from repro.core.kernels import NumpyKernels
from repro.core.tcm import TCM
from repro.hashing.family import PairwiseHash

DTYPES = [np.float64, np.float32, np.int64]


def _batch(n=3000, seed=0, space=40):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, space, size=n).astype(np.uint64),
            rng.integers(0, space, size=n).astype(np.uint64))


@pytest.mark.parametrize("dtype", DTYPES)
class TestKernelUnitWeights:
    def _case(self, dtype):
        rng = np.random.default_rng(1)
        matrix = rng.integers(0, 1000, size=(8, 8)).astype(dtype)
        rows = rng.integers(0, 8, size=2000)
        cols = rng.integers(0, 8, size=2000)
        return matrix, rows, cols, np.ones(2000, dtype=dtype)

    @pytest.mark.parametrize("kernel", ["scatter_add", "scatter_sub"])
    def test_2d(self, dtype, kernel):
        matrix, rows, cols, ones = self._case(dtype)
        expected = matrix.copy()
        getattr(NumpyKernels(), kernel)(expected, rows, cols, ones)
        getattr(NumpyKernels(), kernel)(matrix, rows, cols, None)
        assert matrix.dtype == dtype
        np.testing.assert_array_equal(matrix, expected)

    def test_1d(self, dtype):
        matrix, rows, _, ones = self._case(dtype)
        table, expected = matrix[0].copy(), matrix[0].copy()
        NumpyKernels().scatter_add_1d(expected, rows, ones)
        NumpyKernels().scatter_add_1d(table, rows, None)
        np.testing.assert_array_equal(table, expected)

    def test_count_sketch_matches_unit_sum(self, dtype):
        h = PairwiseHash(a=987654321, b=12345, width=32)
        s, t = _batch()
        count = GraphSketch(h, aggregation=Aggregation.COUNT, dtype=dtype)
        unit_sum = GraphSketch(h, aggregation=Aggregation.SUM, dtype=dtype)
        weights = np.full(len(s), 7, dtype=dtype)
        count.update_many(s, t, weights)
        unit_sum.update_many(s, t, np.ones(len(s), dtype=dtype))
        np.testing.assert_array_equal(count.matrix, unit_sum.matrix)
        count.remove_many(s[:1000], t[:1000], weights[:1000])
        unit_sum.remove_many(s[:1000], t[:1000],
                             np.ones(1000, dtype=dtype))
        np.testing.assert_array_equal(count.matrix, unit_sum.matrix)


def _matrices(tcm):
    return [s.matrix for s in tcm.sketches]


def _assert_same(a, b):
    for x, y in zip(_matrices(a), _matrices(b)):
        np.testing.assert_array_equal(x, y)


@pytest.mark.parametrize("directed", [True, False])
def test_tcm_count_ingest_matches_explicit_unit_sum(directed):
    s, t = _batch(seed=2)
    count = TCM(d=3, width=16, seed=4, directed=directed,
                aggregation=Aggregation.COUNT)
    unit_sum = TCM(d=3, width=16, seed=4, directed=directed)
    count.ingest_keys(s, t)
    unit_sum.ingest_keys(s, t, np.ones(len(s)))
    _assert_same(count, unit_sum)
    count.remove_many(s[:500], t[:500])
    unit_sum.remove_many(s[:500], t[:500], np.ones(500))
    _assert_same(count, unit_sum)


def test_tcm_sum_without_weights_matches_explicit_ones():
    s, t = _batch(seed=3)
    implicit = TCM(d=4, width=32, seed=5)
    explicit = TCM(d=4, width=32, seed=5)
    implicit.ingest_keys(s, t)
    explicit.ingest_keys(s, t, np.ones(len(s)))
    _assert_same(implicit, explicit)
    labels_s = [f"n{k}" for k in s[:800]]
    labels_t = [f"n{k}" for k in t[:800]]
    implicit.ingest_columns(labels_s, labels_t)
    explicit.ingest_columns(labels_s, labels_t, np.ones(800))
    _assert_same(implicit, explicit)
    implicit.remove_many(s[:700], t[:700])
    explicit.remove_many(s[:700], t[:700], np.ones(700))
    _assert_same(implicit, explicit)

