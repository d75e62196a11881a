"""Incidence-product scatters are bit-identical to numpy's unbuffered ones.

The segment reductions over unsorted ids, GAT's softmax shift and the
``Tensor.__getitem__`` backward of integer-array gathers run through a 0/1
incidence matrix (:func:`repro.graph.sparse.cached_incidence`) instead of
``np.add.at``/``np.maximum.at``.  Those scatters are kept here as the
reference, and every comparison is on the bytes.
"""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn.conv import GATConv, _self_loop_edges
from repro.graph import load_node_dataset, sparse
from repro.nn import Tensor, functional as F
from repro.nn.dtype import dtype_policy

DTYPES = [np.float32, np.float64]
TRAILING = [(8,), (4, 8)]  # 2-D and 3-D values


def _add_at(ids, values, n):
    out = np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, ids, values)
    return out


def _max_at(ids, values, n):
    out = np.full((n,) + values.shape[1:], -np.inf, dtype=values.dtype)
    np.maximum.at(out, ids, values)
    return out


def _mean_at(ids, values, n):
    counts = np.bincount(ids, minlength=n)
    inv = 1.0 / np.maximum(counts, 1).astype(values.dtype)
    return _add_at(ids, values, n) * inv.reshape((n,) + (1,) * (values.ndim - 1))


def _gather_grad(ids, grad, shape, dtype):
    """``x.grad`` after ``x[ids].backward(grad)``."""
    with dtype_policy(np.dtype(dtype).name):
        x = Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        x[ids].backward(grad)
    return x.grad


def _assert_bits_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _values(count, trailing, dtype, seed=0):
    return np.random.default_rng(seed).normal(size=(count,) + trailing).astype(dtype)


@pytest.fixture(scope="module", params=["cora-like", "citeseer-like"])
def gat_edges(request):
    graph = load_node_dataset(request.param, seed=0)
    src, dst = _self_loop_edges(graph.adjacency)
    return graph, src, dst


class TestGATEdges:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("trailing", TRAILING)
    def test_segment_reductions_over_destinations(self, gat_edges, trailing, dtype):
        graph, _, dst = gat_edges
        n = graph.num_nodes
        values = _values(len(dst), trailing, dtype)
        with dtype_policy(np.dtype(dtype).name):
            summed = F.segment_sum(Tensor(values), dst, n).data
            mean = F.segment_mean(Tensor(values), dst, n).data
            top = F.segment_max(Tensor(values), dst, n).data
        _assert_bits_equal(summed, _add_at(dst, values, n))
        _assert_bits_equal(mean, _mean_at(dst, values, n))
        _assert_bits_equal(top, _max_at(dst, values, n))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("trailing", TRAILING)
    def test_gather_backward(self, gat_edges, trailing, dtype):
        graph, src, dst = gat_edges
        n = graph.num_nodes
        for ids in (src, dst):
            grad = _values(len(ids), trailing, dtype, seed=1)
            _assert_bits_equal(
                _gather_grad(ids, grad, (n,) + trailing, dtype), _add_at(ids, grad, n)
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("concat", [True, False])
    def test_gat_forward_matches_scatter_reference(self, gat_edges, concat, dtype):
        graph, src, dst = gat_edges
        n, heads, width = graph.num_nodes, 4, 8
        with dtype_policy(np.dtype(dtype).name):
            x = Tensor(graph.features)
            conv = GATConv(x.shape[1], width, heads=heads, concat=concat,
                           rng=np.random.default_rng(2))
            out = conv(graph.adjacency, x).data
            # The layer's forward, spelled out with the numpy scatters.
            h = (x.data @ conv.weight.data).reshape(n, heads, width)
            alpha_src = (h * conv.attn_src.data).sum(axis=-1)
            alpha_dst = (h * conv.attn_dst.data).sum(axis=-1)
            raw = alpha_src[src] + alpha_dst[dst]
            scores = np.where(raw > 0.0, raw, conv.negative_slope * raw)
            score_max = np.zeros((n, heads))
            np.maximum.at(score_max, dst, scores)
            exp_scores = np.exp(scores - Tensor(score_max[dst]).data)
            denom = _add_at(dst, exp_scores, n)
            coefficients = exp_scores / (denom[dst] + 1e-16)
            reference = _add_at(dst, h[src] * coefficients.reshape(len(src), heads, 1), n)
            if concat:
                reference = reference.reshape(n, heads * width)
            else:
                reference = reference.mean(axis=1)
            reference = reference + conv.bias.data
        _assert_bits_equal(out, reference)


class TestEdgeCases:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_empty_segments(self, dtype):
        ids = np.array([5, 0, 5, 3, 0, 5])  # segments 1, 2, 4 and 6 empty
        values = _values(len(ids), (3,), dtype)
        for op, reference in (
            (F.segment_sum, _add_at),
            (F.segment_mean, _mean_at),
            (F.segment_max, _max_at),
        ):
            with dtype_policy(np.dtype(dtype).name):
                out = op(Tensor(values), ids, 7).data
            _assert_bits_equal(out, reference(ids, values, 7))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_zero_length_ids(self, dtype):
        ids = np.array([], dtype=np.int64)
        values = np.zeros((0, 3), dtype=dtype)
        for op, reference in ((F.segment_sum, _add_at), (F.segment_max, _max_at)):
            with dtype_policy(np.dtype(dtype).name):
                out = op(Tensor(values), ids, 4).data
            _assert_bits_equal(out, reference(ids, values, 4))
        _assert_bits_equal(_gather_grad(ids, values, (4, 3), dtype), np.zeros((4, 3), dtype))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "ids",
        [
            np.array([-1, 2, 0, 0]),  # negative and repeated
            np.array([-1, 3, 1]),  # -1 and 3 name the same row
            np.array([[0, 1], [1, -4]]),  # a 2-D index array
            np.array([2, 0, 3], dtype=np.uint32),  # unsigned, distinct
            np.array([3, 3, 1], dtype=np.uint64),  # unsigned, repeated
        ],
    )
    def test_gather_indices(self, ids, dtype):
        shape = (4, 3)
        grad = _values(ids.size, (3,), dtype).reshape(ids.shape + (3,))
        expected = np.zeros(shape, dtype=dtype)
        np.add.at(expected, ids, grad)
        _assert_bits_equal(_gather_grad(ids, grad, shape, dtype), expected)

    def test_distinct_gather_assigns(self):
        # Assignment keeps the sign of a zero that an addition would drop.
        grad = np.array([[-0.0], [1.0]])
        result = _gather_grad(np.array([1, 0]), grad, (2, 1), np.float64)
        assert np.signbit(result[1, 0])


class TestMemo:
    def test_read_only_ids_are_memoized(self):
        ids = np.array([2, 0, 2, 1])
        ids.flags.writeable = False
        first = sparse.cached_incidence(ids, 3, np.float64)
        assert sparse.cached_incidence(ids, 3, np.float64) is first
        assert sparse.cached_incidence(ids, 3, np.float32) is not first
        assert sparse.cached_incidence(ids, 3, np.float32).matrix.dtype == np.float32
        assert not first.distinct
        np.testing.assert_array_equal(first.order, [1, 3, 0, 2])
        np.testing.assert_array_equal(first.matrix.indices, [1, 3, 0, 2])
        np.testing.assert_array_equal(first.matrix.indptr, [0, 1, 2, 4])

    def test_memo_lets_the_ids_go(self):
        ids = np.array([1, 1, 0])
        ids.flags.writeable = False
        sparse.cached_incidence(ids, 2, np.float64).matrix
        alive = weakref.ref(ids)
        del ids
        gc.collect()
        assert alive() is None

    def test_zero_length_ids(self):
        incidence = sparse.cached_incidence(np.array([], dtype=np.int64), 4, np.float64)
        assert incidence.matrix.shape == (4, 0)
        assert incidence.distinct

    def test_writeable_ids_are_rebuilt(self):
        ids = np.array([1, 1, 0])
        values = np.arange(6.0).reshape(3, 2)
        first = F.segment_sum(Tensor(values), ids, 2).data
        ids[:] = [0, 1, 0]  # changed in place: the next call must see it
        second = F.segment_sum(Tensor(values), ids, 2).data
        np.testing.assert_array_equal(first, _add_at(np.array([1, 1, 0]), values, 2))
        np.testing.assert_array_equal(second, _add_at(ids, values, 2))

    def test_gat_edges_are_read_only_int64(self):
        adjacency = sp.random(6, 6, density=0.4, random_state=0, format="csr")
        for ids in _self_loop_edges(adjacency):
            assert ids.dtype == np.int64
            assert not ids.flags.writeable
