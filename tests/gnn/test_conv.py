"""Tests for the four graph convolution layers."""

import numpy as np
import pytest

from repro.gnn import GATConv, GCNConv, GINConv, SAGEConv, structure_operand
from repro.graph.sparse import adjacency_from_edges, normalized_adjacency
from repro.nn import Tensor

from tests.gradcheck import check_gradients

N = 8
ADJ = adjacency_from_edges(
    np.array([(i, (i + 1) % N) for i in range(N)] + [(0, 4)]), N
)
X = np.random.default_rng(0).normal(size=(N, 5))


class TestGCNConv:
    def test_shape(self):
        conv = GCNConv(5, 3, rng=np.random.default_rng(0))
        out = conv(normalized_adjacency(ADJ), Tensor(X))
        assert out.shape == (N, 3)

    def test_matches_manual_computation(self):
        conv = GCNConv(5, 3, bias=False, rng=np.random.default_rng(0))
        norm = normalized_adjacency(ADJ)
        out = conv(norm, Tensor(X))
        np.testing.assert_allclose(out.data, norm @ (X @ conv.weight.data), atol=1e-12)

    def test_gradients_reach_weights(self):
        conv = GCNConv(5, 3, rng=np.random.default_rng(0))
        conv(normalized_adjacency(ADJ), Tensor(X)).sum().backward()
        assert conv.weight.grad is not None and conv.bias.grad is not None


class TestSAGEConv:
    def test_shape(self):
        conv = SAGEConv(5, 4, rng=np.random.default_rng(0))
        out = conv(normalized_adjacency(ADJ, self_loops=False, mode="row"), Tensor(X))
        assert out.shape == (N, 4)

    def test_self_and_neighbor_terms(self):
        conv = SAGEConv(5, 4, bias=False, rng=np.random.default_rng(0))
        row_norm = normalized_adjacency(ADJ, self_loops=False, mode="row")
        out = conv(row_norm, Tensor(X))
        expected = X @ conv.weight_self.data + (row_norm @ X) @ conv.weight_neigh.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestGATConv:
    def test_concat_shape(self):
        conv = GATConv(5, 4, heads=3, concat=True, rng=np.random.default_rng(0))
        assert conv(ADJ, Tensor(X)).shape == (N, 12)

    def test_average_shape(self):
        conv = GATConv(5, 4, heads=3, concat=False, rng=np.random.default_rng(0))
        assert conv(ADJ, Tensor(X)).shape == (N, 4)

    def test_attention_is_convex_combination(self):
        # With identity weight transform approximation: outputs lie within the
        # convex hull of transformed inputs, so constant features stay constant.
        conv = GATConv(5, 5, heads=1, concat=True, rng=np.random.default_rng(0))
        constant = np.ones((N, 5))
        out = conv(ADJ, Tensor(constant))
        expected_row = constant[0] @ conv.weight.data.reshape(5, 5) + conv.bias.data
        np.testing.assert_allclose(out.data, np.tile(expected_row, (N, 1)), atol=1e-9)

    def test_gradients_flow(self):
        conv = GATConv(5, 3, heads=2, rng=np.random.default_rng(0))
        conv(ADJ, Tensor(X)).sum().backward()
        assert conv.attn_src.grad is not None
        assert conv.attn_dst.grad is not None
        assert conv.weight.grad is not None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("concat", [True, False])
    def test_gradient_values(self, concat, dtype):
        conv = GATConv(5, 3, heads=2, concat=concat, rng=np.random.default_rng(0))

        def forward(x, weight, attn_src, attn_dst, bias):
            conv.weight, conv.attn_src, conv.attn_dst = weight, attn_src, attn_dst
            conv.bias = bias
            return conv(ADJ, x)

        rng = np.random.default_rng(1)
        check_gradients(
            forward,
            [
                X,
                conv.weight.data,
                conv.attn_src.data,
                conv.attn_dst.data,
                rng.normal(size=conv.bias.shape),
            ],
            dtype=dtype,
        )

    def test_empty_graph(self):
        import scipy.sparse as sp

        conv = GATConv(5, 3, heads=2, rng=np.random.default_rng(0))
        x = Tensor(np.zeros((0, 5)), requires_grad=True)
        out = conv(sp.csr_matrix((0, 0)), x)
        assert out.shape == (0, 6)
        out.sum().backward()
        assert x.grad.shape == (0, 5)

    def test_invalid_heads(self):
        with pytest.raises(ValueError):
            GATConv(5, 3, heads=0)


class TestGINConv:
    def test_shape(self):
        conv = GINConv(5, 6, rng=np.random.default_rng(0))
        assert conv(ADJ, Tensor(X)).shape == (N, 6)

    def test_eps_is_trainable(self):
        conv = GINConv(5, 6, train_eps=True, rng=np.random.default_rng(0))
        conv(ADJ, Tensor(X)).sum().backward()
        assert conv.eps.grad is not None

    def test_no_eps_variant(self):
        conv = GINConv(5, 6, train_eps=False, rng=np.random.default_rng(0))
        assert conv.eps is None
        assert conv(ADJ, Tensor(X)).shape == (N, 6)

    def test_sum_aggregation_distinguishes_degree(self):
        # With constant features, GIN input combine = (1+eps)*x + deg*x, so
        # nodes of different degree get different pre-MLP inputs.
        conv = GINConv(1, 4, rng=np.random.default_rng(0))
        constant = np.ones((N, 1))
        out = conv(ADJ, Tensor(constant)).data
        degrees = np.asarray(ADJ.sum(axis=1)).ravel()
        assert not np.allclose(out[degrees == 2][0], out[degrees == 3][0])


class TestStructureOperand:
    def test_gcn_normalised(self):
        operand = structure_operand("gcn", ADJ)
        assert operand.diagonal().min() > 0  # self loops present

    def test_sage_row_stochastic(self):
        operand = structure_operand("sage", ADJ)
        np.testing.assert_allclose(np.asarray(operand.sum(axis=1)).ravel(), 1.0)

    def test_gat_and_gin_raw(self):
        assert (structure_operand("gat", ADJ) != ADJ).nnz == 0
        assert (structure_operand("gin", ADJ) != ADJ).nnz == 0

    def test_unknown(self):
        with pytest.raises(ValueError):
            structure_operand("mlp", ADJ)
