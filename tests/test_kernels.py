"""The kernel layer's contract: registry semantics plus bit-identity.

``repro.core.kernels`` promises that every backend produces *bit
identical* sketch state to the per-element scalar loop, for arbitrary
float weights.  This suite checks that promise three ways:

- primitive-level: each scatter kernel against ``ufunc.at`` references
  and (hypothesis) against the per-element scalar loop, over float64,
  float32 and int64 cells, duplicate-heavy indices, cells near 2**53,
  signed-zero ties and empty batches;
- model-level (hypothesis): chunked ``TCM.ingest_columns`` /
  ``remove_many`` against the scalar ``update`` / ``remove`` loop across
  aggregations, orientations and backends;
- twin-level: the plain-Python numba bodies (which jit verbatim) against
  the numpy kernels and against ``PairwiseHash.hash_int``, so the fused
  path is exercised even on machines without numba.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.aggregation import Aggregation
from repro.core.kernels import (
    NumpyKernels,
    _hash_coefficients,
    _kb_fused_scatter,
    _kb_hash_key,
    _kb_scatter_add,
    _kb_scatter_extreme,
    _kb_scatter_floor,
    _kb_scatter_sub,
    available_backends,
    dedup_keys,
)
from repro.core.tcm import TCM
from repro.hashing.family import HashFamily
from repro.hashing.labels import label_keys

HAS_NUMBA = "numba" in available_backends()


@pytest.fixture(autouse=True)
def _restore_default_backend():
    """Tests mutate the process-wide default; always put it back."""
    yield
    kernels.reset()


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_available_always_offers_auto_and_numpy(self):
        names = available_backends()
        assert "auto" in names
        assert "numpy" in names

    def test_set_backend_numpy(self):
        assert kernels.set_backend("numpy") == "numpy"
        assert kernels.active_backend() == "numpy"
        assert isinstance(kernels.get_backend(), NumpyKernels)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.resolve_backend("fortran")

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        kernels.reset()
        assert kernels.active_backend() == "numpy"

    def test_env_var_bogus_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cuda")
        kernels.reset()
        with pytest.raises(ValueError, match="unknown kernel backend"):
            kernels.get_backend()

    def test_explicit_name_does_not_change_default(self):
        kernels.set_backend("numpy")
        kernels.get_backend("auto")
        assert kernels.active_backend() == "numpy"

    def test_use_backend_restores_previous(self):
        kernels.set_backend("numpy")
        with kernels.use_backend("auto") as backend:
            assert backend is kernels.get_backend()
        assert kernels.active_backend() == "numpy"

    @pytest.mark.skipif(HAS_NUMBA, reason="numba is installed here")
    def test_numba_request_fails_loudly_when_absent(self):
        with pytest.raises(ValueError, match="numba is not importable"):
            kernels.resolve_backend("numba")

    @pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
    def test_numba_selectable_when_present(self):
        assert kernels.set_backend("numba") == "numba"
        assert kernels.get_backend().fused

    def test_auto_resolves_to_concrete_backend(self):
        name = kernels.set_backend("auto")
        assert name in ("numpy", "numba")


class TestDedupKeys:
    def test_small_batch_skips_dedup(self):
        keys = np.arange(10, dtype=np.uint64)
        unique, inverse = dedup_keys(keys)
        assert unique is keys
        assert inverse is None

    def test_repetitive_batch_dedups_losslessly(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 50, size=5000).astype(np.uint64)
        unique, inverse = dedup_keys(keys)
        assert inverse is not None
        assert unique.shape[0] <= 50
        np.testing.assert_array_equal(unique[inverse], keys)

    def test_mostly_distinct_batch_skips_dedup(self):
        keys = np.arange(5000, dtype=np.uint64)
        unique, inverse = dedup_keys(keys)
        assert inverse is None


# -- primitive kernels vs ufunc.at references --------------------------------


def random_batch(rng, n, shape, unit=False):
    rows = rng.integers(0, shape[0], size=n).astype(np.int64)
    cols = rng.integers(0, shape[1], size=n).astype(np.int64)
    if unit:
        values = np.ones(n, dtype=np.float64)
    else:
        values = np.exp(rng.normal(size=n)).astype(np.float64)
    return rows, cols, values


@pytest.mark.parametrize("shape,n", [
    ((4, 8), 500),        # batch much larger than the table
    ((64, 256), 100),     # table much larger than the batch
])
class TestScatterAddSub:
    def test_add_matches_add_at(self, shape, n):
        rng = np.random.default_rng(1)
        rows, cols, values = random_batch(rng, n, shape)
        expected = rng.normal(size=shape)
        actual = expected.copy()
        np.add.at(expected, (rows, cols), values)
        NumpyKernels().scatter_add(actual, rows, cols, values)
        np.testing.assert_array_equal(actual, expected)

    def test_sub_matches_subtract_at(self, shape, n):
        rng = np.random.default_rng(2)
        rows, cols, values = random_batch(rng, n, shape)
        expected = np.abs(rng.normal(size=shape)) * 100
        actual = expected.copy()
        np.subtract.at(expected, (rows, cols), values)
        NumpyKernels().scatter_sub(actual, rows, cols, values)
        np.testing.assert_array_equal(actual, expected)

    def test_unit_weights_match_scalar_loop(self, shape, n):
        rng = np.random.default_rng(3)
        rows, cols, values = random_batch(rng, n, shape, unit=True)
        expected = np.zeros(shape)
        actual = expected.copy()
        np.add.at(expected, (rows, cols), values)
        NumpyKernels().scatter_add(actual, rows, cols, None)
        np.testing.assert_array_equal(actual, expected)


class TestScatterExtremeAndFloor:
    @pytest.mark.parametrize("minimum", [True, False])
    def test_extreme_matches_scalar_loop(self, minimum):
        rng = np.random.default_rng(5)
        shape = (8, 16)
        rows, cols, values = random_batch(rng, 400, shape)
        exp_mat = np.zeros(shape)
        exp_touch = np.zeros(shape, dtype=bool)
        for r, c, v in zip(rows, cols, values):
            if not exp_touch[r, c]:
                exp_mat[r, c] = v
                exp_touch[r, c] = True
            elif minimum:
                exp_mat[r, c] = min(exp_mat[r, c], v)
            else:
                exp_mat[r, c] = max(exp_mat[r, c], v)
        mat = np.zeros(shape)
        touch = np.zeros(shape, dtype=bool)
        NumpyKernels().scatter_extreme(mat, touch, rows, cols, values,
                                       minimum)
        np.testing.assert_array_equal(mat, exp_mat)
        np.testing.assert_array_equal(touch, exp_touch)

    def test_floor_matches_maximum_at(self):
        rng = np.random.default_rng(6)
        shape = (8, 16)
        rows, cols, floors = random_batch(rng, 400, shape)
        expected = np.abs(rng.normal(size=shape))
        actual = expected.copy()
        np.maximum.at(expected, (rows, cols), floors)
        NumpyKernels().scatter_floor(actual, rows, cols, floors)
        np.testing.assert_array_equal(actual, expected)


class TestScatterAdd1D:
    def test_matches_add_at(self):
        rng = np.random.default_rng(7)
        table = rng.normal(size=64)
        expected = table.copy()
        idx = rng.integers(0, 64, size=500).astype(np.int64)
        values = np.exp(rng.normal(size=500))
        np.add.at(expected, idx, values)
        NumpyKernels().scatter_add_1d(table, idx, values)
        np.testing.assert_array_equal(table, expected)

    def test_unit_weights(self):
        table = np.zeros(16)
        idx = np.array([3, 3, 3, 0, 15], dtype=np.int64)
        NumpyKernels().scatter_add_1d(table, idx, None)
        assert table[3] == 3.0 and table[0] == 1.0 and table[15] == 1.0


class TestSegmentCellSums:
    def test_groups_and_sums(self):
        rows = np.array([0, 1, 0, 1], dtype=np.int64)
        cols = np.array([2, 0, 2, 0], dtype=np.int64)
        values = np.array([1.5, 2.0, 0.5, 3.0])
        cells, sums = NumpyKernels().segment_cell_sums(rows, cols, 4, values)
        np.testing.assert_array_equal(cells, [2, 4])
        np.testing.assert_array_equal(sums, [2.0, 5.0])


class TestEmptyBatches:
    def test_all_primitives_noop_on_empty(self):
        backend = NumpyKernels()
        matrix = np.ones((4, 4))
        touched = np.zeros((4, 4), dtype=bool)
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        backend.scatter_add(matrix, empty_i, empty_i, empty_f)
        backend.scatter_sub(matrix, empty_i, empty_i, None)
        backend.scatter_extreme(matrix, touched, empty_i, empty_i, empty_f,
                                True)
        backend.scatter_floor(matrix, empty_i, empty_i, empty_f)
        backend.scatter_add_1d(matrix[0], empty_i, empty_f)
        np.testing.assert_array_equal(matrix, np.ones((4, 4)))
        assert not touched.any()


# -- hypothesis: each primitive == the per-element scalar loop ---------------

#: Cell and weight values that make the fold order or a tie visible:
#: signed zeros, magnitudes far apart, and cells around 2**52..2**53,
#: where adding 1.0 starts to round.
SPECIAL_VALUES = [0.0, -0.0, 1e-3, 1.0, 1e10, 2.0 ** 52 - 1.5,
                  2.0 ** 53 - 2, 2.0 ** 53 - 1, 2.0 ** 53]

KERNEL_DTYPES = [np.float64, np.float32, np.int64]

kernel_settings = settings(max_examples=60, deadline=None)


def values_of(dtype):
    if dtype is np.int64:
        return st.one_of(st.sampled_from([0, 1, 2 ** 53 - 1]),
                         st.integers(-2 ** 53, 2 ** 53))
    return st.one_of(st.sampled_from(SPECIAL_VALUES),
                     st.floats(-1e12, 1e12, allow_nan=False))


@st.composite
def scatter_cases(draw):
    """(matrix, rows, cols, values): a tiny table, so the index columns
    are duplicate-heavy, and possibly an empty batch."""
    dtype = draw(st.sampled_from(KERNEL_DTYPES))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    n = draw(st.integers(0, 40))
    cells = draw(st.lists(values_of(dtype), min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1]))
    matrix = np.array(cells, dtype=dtype).reshape(shape)
    rows = np.array(draw(st.lists(st.integers(0, shape[0] - 1),
                                  min_size=n, max_size=n)), dtype=np.int64)
    cols = np.array(draw(st.lists(st.integers(0, shape[1] - 1),
                                  min_size=n, max_size=n)), dtype=np.int64)
    values = np.array(draw(st.lists(values_of(dtype), min_size=n,
                                    max_size=n)), dtype=dtype)
    return matrix, rows, cols, values


def assert_bits_equal(actual, expected):
    """Equal values *and* equal sign bits (catches -0.0 vs 0.0)."""
    np.testing.assert_array_equal(actual, expected)
    np.testing.assert_array_equal(np.signbit(actual), np.signbit(expected))


class TestScatterMatchesScalarLoop:
    """Every numpy kernel, element for element, against the loop the
    scalar ``update``/``remove``/``raise_cell_to`` paths run."""

    @kernel_settings
    @given(scatter_cases(), st.booleans(), st.booleans())
    def test_scatter_add_and_sub(self, case, unit, insert):
        matrix, rows, cols, values = case
        expected = matrix.copy()
        for i, (r, c) in enumerate(zip(rows, cols)):
            step = 1 if unit else values[i]
            if insert:
                expected[r, c] += step
            else:
                expected[r, c] -= step
        kernel = (NumpyKernels().scatter_add if insert
                  else NumpyKernels().scatter_sub)
        kernel(matrix, rows, cols, None if unit else values)
        assert_bits_equal(matrix, expected)

    @kernel_settings
    @given(scatter_cases(), st.data(), st.booleans())
    def test_scatter_extreme(self, case, data, minimum):
        matrix, rows, cols, values = case
        touched = np.array(data.draw(st.lists(
            st.booleans(), min_size=matrix.size, max_size=matrix.size)),
            dtype=bool).reshape(matrix.shape)
        exp_mat, exp_touch = matrix.copy(), touched.copy()
        for r, c, v in zip(rows, cols, values):
            if not exp_touch[r, c]:
                exp_mat[r, c] = v
                exp_touch[r, c] = True
            elif (v < exp_mat[r, c]) if minimum else (v > exp_mat[r, c]):
                exp_mat[r, c] = v
        NumpyKernels().scatter_extreme(matrix, touched, rows, cols, values,
                                       minimum)
        assert_bits_equal(matrix, exp_mat)
        np.testing.assert_array_equal(touched, exp_touch)

    @kernel_settings
    @given(scatter_cases())
    def test_scatter_floor(self, case):
        matrix, rows, cols, floors = case
        expected = matrix.copy()
        for r, c, f in zip(rows, cols, floors):
            if expected[r, c] < f:
                expected[r, c] = f
        NumpyKernels().scatter_floor(matrix, rows, cols, floors)
        assert_bits_equal(matrix, expected)

    @kernel_settings
    @given(scatter_cases(), st.booleans())
    def test_scatter_add_1d(self, case, unit):
        matrix, rows, cols, values = case
        table = matrix.reshape(-1)
        idx = rows * matrix.shape[1] + cols
        expected = table.copy()
        for i, j in enumerate(idx):
            expected[j] += 1 if unit else values[i]
        NumpyKernels().scatter_add_1d(table, idx, None if unit else values)
        assert_bits_equal(table, expected)

    def test_unit_counts_near_2_53_fold_in_order(self):
        # Past 2**53 a float64 cell absorbs +1 by round-to-even, so the
        # increments must be replayed one by one, exactly like += 1.0.
        for start in (2.0 ** 52 - 1.5, 2.0 ** 53 - 1):
            matrix = np.full((2, 2), start)
            expected = matrix.copy()
            for _ in range(8):
                expected[0, 0] += 1.0
            zeros = np.zeros(8, dtype=np.int64)
            NumpyKernels().scatter_add(matrix, zeros, zeros, None)
            assert_bits_equal(matrix, expected)

    @pytest.mark.parametrize("minimum", [True, False])
    def test_signed_zero_ties_keep_the_earliest(self, minimum):
        backend = NumpyKernels()
        matrix = np.array([[0.0, 0.0, 0.0]])
        touched = np.array([[True, False, False]])
        rows = np.zeros(5, dtype=np.int64)
        cols = np.array([0, 1, 1, 2, 2])
        values = np.array([-0.0, 0.0, -0.0, -0.0, 0.0])
        backend.scatter_extreme(matrix, touched, rows, cols, values,
                                minimum)
        # The held 0.0 survives a -0.0 tie; fresh cells keep their
        # first zero.
        assert np.signbit(matrix[0]).tolist() == [False, False, True]

    def test_non_contiguous_target_rejected(self):
        matrix = np.zeros((4, 4))[:, ::2]
        rows = cols = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError, match="C-contiguous"):
            NumpyKernels().scatter_add(matrix, rows, cols, None)


# -- hypothesis: kernel path == scalar path over whole models ----------------

labels = st.integers(min_value=0, max_value=25).map(lambda i: f"n{i}")
float_weights = st.floats(min_value=0.0, max_value=50.0,
                          allow_nan=False, allow_infinity=False)
elements = st.lists(st.tuples(labels, labels, float_weights),
                    min_size=1, max_size=80)

common = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


def assert_same_state(a: TCM, b: TCM) -> None:
    for sa, sb in zip(a.sketches, b.sketches):
        np.testing.assert_array_equal(sa.matrix, sb.matrix)
        ta, tb = getattr(sa, "_touched", None), getattr(sb, "_touched", None)
        if ta is not None or tb is not None:
            np.testing.assert_array_equal(ta, tb)


def columns(triples):
    sources = [x for x, _, _ in triples]
    targets = [y for _, y, _ in triples]
    weights = np.array([w for _, _, w in triples], dtype=np.float64)
    return sources, targets, weights


class TestKernelPathMatchesScalarPath:
    @common
    @given(elements,
           st.sampled_from(list(Aggregation)),
           st.booleans(), st.booleans())
    def test_ingest_columns(self, triples, aggregation, directed, sparse):
        if sparse and aggregation not in (Aggregation.SUM,
                                          Aggregation.COUNT):
            return
        config = dict(d=3, width=16, seed=7, directed=directed,
                      aggregation=aggregation, sparse=sparse)
        scalar = TCM(**config)
        for x, y, w in triples:
            scalar.update(x, y, w)
        vectorized = TCM(**config)
        sources, targets, weights = columns(triples)
        vectorized.ingest_columns(sources, targets, weights)
        assert_same_state(scalar, vectorized)

    @common
    @given(elements, st.booleans(), st.booleans())
    def test_remove_many(self, triples, directed, sparse):
        config = dict(d=3, width=16, seed=7, directed=directed,
                      aggregation=Aggregation.SUM, sparse=sparse)
        sources, targets, weights = columns(triples)
        if sparse:
            # The sparse backend applies one grouped total per cell (its
            # documented, pre-kernel semantics), which only matches the
            # scalar loop bitwise when addition is exact under
            # regrouping -- so pin its weights to integers.  The dense
            # path keeps the arbitrary-float check.
            weights = np.floor(weights)
        scalar = TCM(**config)
        vectorized = TCM(**config)
        for tcm in (scalar, vectorized):
            tcm.ingest_columns(sources, targets, weights * 2.0)
        for x, y, w in zip(sources, targets, weights):
            scalar.remove(x, y, float(w))
        vectorized.remove_many(sources, targets, weights)
        assert_same_state(scalar, vectorized)

    @common
    @given(elements, st.booleans())
    def test_conservative_chunk_one_is_scalar_loop(self, triples, directed):
        # The batched conservative path bottoms out in scatter_floor;
        # with chunk_size=1 it must reproduce the per-edge algorithm
        # exactly, and with larger chunks stay one-sided below it
        # (tests/test_ingest_engine.py covers the larger-chunk bound).
        config = dict(d=3, width=16, seed=7, directed=directed)
        scalar = TCM(**config)
        for x, y, w in triples:
            scalar.update_conservative(x, y, w)
        batched = TCM(**config)
        batched.ingest_conservative(
            (type("E", (), {"source": x, "target": y, "weight": w,
                            "timestamp": 0.0})() for x, y, w in triples),
            chunk_size=1)
        assert_same_state(scalar, batched)

    @common
    @given(elements, st.booleans())
    def test_keep_labels_legacy_path_unchanged(self, triples, directed):
        config = dict(d=2, width=16, seed=3, directed=directed,
                      keep_labels=True)
        scalar = TCM(**config)
        for x, y, w in triples:
            scalar.update(x, y, w)
        vectorized = TCM(**config)
        sources, targets, weights = columns(triples)
        vectorized.ingest_columns(sources, targets, weights)
        assert_same_state(scalar, vectorized)


# -- numba twins: the plain-Python bodies vs the numpy kernels ---------------


class TestNumbaTwinBodies:
    """The ``_kb_*`` bodies run unjitted here; jitted they are the numba
    backend, so parity with numpy kernels proves cross-backend identity
    even on machines without numba."""

    def test_hash_key_matches_pairwise_hash(self):
        family = HashFamily.uniform(4, 37, seed=11)
        rng = np.random.default_rng(8)
        keys = rng.integers(0, 2 ** 63, size=200, dtype=np.uint64)
        for h in family:
            a_hi, a_lo, b, width = _hash_coefficients(h)
            for key in keys:
                assert int(_kb_hash_key(a_hi, a_lo, b, width,
                                        np.uint64(key))) == h.hash_int(
                                            int(key))

    def test_scatter_add_sub_match_numpy(self):
        rng = np.random.default_rng(9)
        shape = (8, 16)
        rows, cols, values = random_batch(rng, 300, shape)
        ref = rng.normal(size=shape)
        twin = ref.copy()
        NumpyKernels().scatter_add(ref, rows, cols, values)
        flat = rows * shape[1] + cols
        _kb_scatter_add(twin.reshape(-1), flat, values)
        np.testing.assert_array_equal(twin, ref)
        NumpyKernels().scatter_sub(ref, rows, cols, values)
        _kb_scatter_sub(twin.reshape(-1), flat, values)
        np.testing.assert_array_equal(twin, ref)

    @pytest.mark.parametrize("minimum", [True, False])
    def test_scatter_extreme_matches_numpy(self, minimum):
        rng = np.random.default_rng(10)
        shape = (6, 10)
        rows, cols, values = random_batch(rng, 200, shape)
        ref_mat, ref_touch = np.zeros(shape), np.zeros(shape, dtype=bool)
        twin_mat, twin_touch = ref_mat.copy(), ref_touch.copy()
        NumpyKernels().scatter_extreme(ref_mat, ref_touch, rows, cols,
                                       values, minimum)
        _kb_scatter_extreme(twin_mat.reshape(-1), twin_touch.reshape(-1),
                            rows * shape[1] + cols, values, minimum)
        np.testing.assert_array_equal(twin_mat, ref_mat)
        np.testing.assert_array_equal(twin_touch, ref_touch)

    def test_scatter_floor_matches_numpy(self):
        rng = np.random.default_rng(11)
        shape = (6, 10)
        rows, cols, floors = random_batch(rng, 200, shape)
        ref = np.abs(rng.normal(size=shape))
        twin = ref.copy()
        NumpyKernels().scatter_floor(ref, rows, cols, floors)
        _kb_scatter_floor(twin.reshape(-1), rows * shape[1] + cols, floors)
        np.testing.assert_array_equal(twin, ref)

    @pytest.mark.parametrize("op,aggregation", [
        (0, Aggregation.SUM), (1, Aggregation.SUM),
        (2, Aggregation.MIN), (3, Aggregation.MAX),
    ])
    def test_fused_scatter_matches_hash_then_scatter(self, op, aggregation):
        family = HashFamily.uniform(2, 12, seed=21)
        row_hash, col_hash = family[0], family[1]
        rng = np.random.default_rng(12)
        n = 150
        skeys = label_keys([f"s{i}" for i in rng.integers(0, 20, size=n)])
        tkeys = label_keys([f"t{i}" for i in rng.integers(0, 20, size=n)])
        values = np.exp(rng.normal(size=n))
        shape = (row_hash.width, col_hash.width)
        ref_mat = np.zeros(shape)
        ref_touch = np.zeros(shape, dtype=bool)
        rows = row_hash.hash_many(skeys)
        cols = col_hash.hash_many(tkeys)
        backend = NumpyKernels()
        if op == 0:
            backend.scatter_add(ref_mat, rows, cols, values)
        elif op == 1:
            backend.scatter_sub(ref_mat, rows, cols, values)
        else:
            backend.scatter_extreme(ref_mat, ref_touch, rows, cols, values,
                                    op == 2)
        twin_mat = np.zeros(shape)
        twin_touch = np.zeros(shape, dtype=bool)
        ra_hi, ra_lo, rb, rw = _hash_coefficients(row_hash)
        ca_hi, ca_lo, cb, cw = _hash_coefficients(col_hash)
        _kb_fused_scatter(twin_mat.reshape(-1), twin_touch.reshape(-1),
                          np.uint64(shape[1]), ra_hi, ra_lo, rb, rw,
                          ca_hi, ca_lo, cb, cw, skeys, tkeys, values,
                          op)
        np.testing.assert_array_equal(twin_mat, ref_mat)
        np.testing.assert_array_equal(twin_touch, ref_touch)


# -- numba present: the jitted backend against numpy, end to end -------------


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestNumbaBackendEquivalence:
    @pytest.mark.parametrize("aggregation", list(Aggregation))
    def test_ingest_bit_identical_across_backends(self, aggregation):
        rng = np.random.default_rng(13)
        n = 2000
        sources = [f"n{i}" for i in rng.integers(0, 60, size=n)]
        targets = [f"n{i}" for i in rng.integers(0, 60, size=n)]
        weights = np.exp(rng.normal(size=n))
        config = dict(d=3, width=32, seed=5, aggregation=aggregation)
        with kernels.use_backend("numpy"):
            ref = TCM(**config)
            ref.ingest_columns(sources, targets, weights)
        with kernels.use_backend("numba"):
            jitted = TCM(**config)
            jitted.ingest_columns(sources, targets, weights)
        assert_same_state(ref, jitted)

    def test_removal_bit_identical_across_backends(self):
        rng = np.random.default_rng(14)
        n = 1500
        sources = [f"n{i}" for i in rng.integers(0, 40, size=n)]
        targets = [f"n{i}" for i in rng.integers(0, 40, size=n)]
        weights = np.exp(rng.normal(size=n))
        built = {}
        for name in ("numpy", "numba"):
            with kernels.use_backend(name):
                tcm = TCM(d=2, width=32, seed=9)
                tcm.ingest_columns(sources, targets, weights * 2.0)
                tcm.remove_many(sources, targets, weights)
                built[name] = tcm
        assert_same_state(built["numpy"], built["numba"])
