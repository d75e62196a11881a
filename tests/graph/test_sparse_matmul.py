"""Gradcheck and cache coverage for the fused sparse matmul path."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from tests.gradcheck import check_gradients
from repro.graph import sparse
from repro.nn import Tensor, functional as F

RNG = np.random.default_rng(7)


def _random_csr(rows, cols, density=0.3, seed=0):
    return sp.random(rows, cols, density=density, format="csr", random_state=seed)


class TestSpmmGradcheck:
    def test_square_matches_dense_reference(self):
        matrix = _random_csr(9, 9, seed=1)
        x = RNG.normal(size=(9, 5))
        out = F.spmm(matrix, Tensor(x))
        np.testing.assert_allclose(out.data, matrix.toarray() @ x, atol=1e-12)
        check_gradients(lambda t: F.spmm(matrix, t), [x])

    def test_non_square_adjacency(self):
        matrix = _random_csr(6, 10, seed=2)
        x = RNG.normal(size=(10, 3))
        out = F.spmm(matrix, Tensor(x))
        assert out.shape == (6, 3)
        check_gradients(lambda t: F.spmm(matrix, t), [x])

    def test_empty_rows(self):
        # Rows 0 and 3 have no entries: their outputs (and the gradient
        # contributions flowing back through them) must be exactly zero.
        matrix = sp.csr_matrix(
            (np.array([1.0, 2.0]), (np.array([1, 2]), np.array([0, 3]))), shape=(4, 4)
        )
        x = RNG.normal(size=(4, 2))
        out = F.spmm(matrix, Tensor(x))
        np.testing.assert_allclose(out.data[[0, 3]], 0.0)
        check_gradients(lambda t: F.spmm(matrix, t), [x])

    def test_all_zero_matrix(self):
        matrix = sp.csr_matrix((3, 3))
        check_gradients(lambda t: F.spmm(matrix, t), [RNG.normal(size=(3, 2))])

    def test_cache_disabled_gradient_identical(self):
        matrix = _random_csr(8, 8, seed=3)
        x = RNG.normal(size=(8, 4))

        def grad_of(fn):
            t = Tensor(x, requires_grad=True)
            fn(t).sum().backward()
            return t.grad

        cached = grad_of(lambda t: F.spmm(matrix, t))
        with sparse.cache_disabled():
            uncached = grad_of(lambda t: F.spmm(matrix, t))
        np.testing.assert_allclose(cached, uncached, atol=1e-14)


class TestSpmmLinearGradcheck:
    def test_matches_unfused_composition(self):
        matrix = _random_csr(7, 7, seed=4)
        x = RNG.normal(size=(7, 4))
        w = RNG.normal(size=(4, 3))
        fused = F.spmm_linear(matrix, Tensor(x), Tensor(w))
        np.testing.assert_allclose(fused.data, matrix.toarray() @ x @ w, atol=1e-12)

    def test_gradients_both_operands(self):
        matrix = _random_csr(6, 6, seed=5)
        check_gradients(
            lambda x, w: F.spmm_linear(matrix, x, w),
            [RNG.normal(size=(6, 3)), RNG.normal(size=(3, 2))],
        )

    def test_non_square_and_empty_rows(self):
        matrix = sp.csr_matrix(
            (np.array([1.5, -0.5]), (np.array([0, 2]), np.array([1, 4]))), shape=(4, 5)
        )
        check_gradients(
            lambda x, w: F.spmm_linear(matrix, x, w),
            [RNG.normal(size=(5, 3)), RNG.normal(size=(3, 2))],
        )

    def test_rejects_dense_matrix(self):
        with pytest.raises(TypeError):
            F.spmm_linear(np.eye(3), Tensor(np.eye(3)), Tensor(np.eye(3)))


class TestDualDtypeGradcheck:
    """The fused kernels under both working precisions.

    The sparse operand carries the working dtype (as a policy-built graph
    would), so the blocked ``csr_matvecs`` path engages rather than the
    mixed-dtype fallback; tolerances come from ``DTYPE_TOLERANCES``.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spmm(self, dtype):
        matrix = _random_csr(8, 8, seed=11).astype(dtype)
        check_gradients(lambda t: F.spmm(matrix, t), [RNG.normal(size=(8, 3))], dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_spmm_linear(self, dtype):
        matrix = _random_csr(7, 7, seed=12).astype(dtype)
        check_gradients(
            lambda x, w: F.spmm_linear(matrix, x, w),
            [RNG.normal(size=(7, 3)), RNG.normal(size=(3, 2))],
            dtype=dtype,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_ops(self, dtype):
        ids = np.array([0, 0, 1, 2, 2, 2], dtype=np.int64)
        values = RNG.normal(size=(6, 3))
        for op in (F.segment_sum, F.segment_mean, F.segment_max):
            check_gradients(lambda t, op=op: op(t, ids, 3), [values], dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_segment_ops_unsorted_ids(self, dtype):
        # Unsorted ids take the incidence path; segment 3 is empty.
        ids = np.array([2, 0, 4, 2, 1, 0, 4, 2], dtype=np.int64)
        values = RNG.normal(size=(8, 3))
        for op in (F.segment_sum, F.segment_mean):
            check_gradients(lambda t, op=op: op(t, ids, 5), [values], dtype=dtype)
        # Max: no empty segment (-inf has no finite difference), and
        # well-separated values keep each segment's argmax stable.
        ids = np.array([2, 0, 1, 2, 1, 0, 2], dtype=np.int64)
        values = RNG.permutation(np.linspace(-1.0, 1.0, 21)).reshape(7, 3)
        check_gradients(lambda t: F.segment_max(t, ids, 3), [values], dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_dtype_follows_operands(self, dtype):
        from repro.nn.dtype import dtype_policy

        matrix = _random_csr(5, 5, seed=13).astype(dtype)
        with dtype_policy(np.dtype(dtype).name):  # shield from ambient REPRO_DTYPE
            out = F.spmm(matrix, Tensor(RNG.normal(size=(5, 2)).astype(dtype)))
        assert out.data.dtype == np.dtype(dtype)


class TestDerivedMatrixCache:
    def test_memoized_returns_same_object(self):
        matrix = _random_csr(5, 5, seed=6)
        first = sparse.memoized_on_matrix(matrix, "k", lambda: matrix.T.tocsr())
        second = sparse.memoized_on_matrix(matrix, "k", lambda: matrix.T.tocsr())
        assert first is second

    def test_cache_disabled_rebuilds(self):
        matrix = _random_csr(5, 5, seed=7)
        with sparse.cache_disabled():
            first = sparse.memoized_on_matrix(matrix, "k2", lambda: matrix.T.tocsr())
            second = sparse.memoized_on_matrix(matrix, "k2", lambda: matrix.T.tocsr())
        assert first is not second

    def test_cached_transpose_correct(self):
        matrix = _random_csr(6, 9, seed=8)
        transposed = sparse.cached_transpose(matrix)
        assert sp.issparse(transposed) and transposed.format == "csr"
        np.testing.assert_allclose(transposed.toarray(), matrix.toarray().T)

    def test_entries_evicted_when_matrix_collected(self):
        sparse.clear_cache()
        matrix = _random_csr(5, 5, seed=9)
        sparse.cached_transpose(matrix)
        assert sparse.cache_info()["entries"] >= 1
        del matrix
        gc.collect()
        assert sparse.cache_info()["entries"] == 0

    def test_structure_operand_memoized_per_adjacency(self):
        from repro.gnn.conv import structure_operand

        adjacency = sp.csr_matrix(
            (np.ones(4), (np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]))), shape=(4, 4)
        )
        first = structure_operand("gcn", adjacency)
        second = structure_operand("gcn", adjacency)
        assert first is second
        # Different conv types keep distinct operands for the same adjacency.
        row_norm = structure_operand("sage", adjacency)
        assert row_norm is not first
