"""Tests for sparse adjacency utilities."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import sparse as su


def ring(n=6):
    edges = np.array([(i, (i + 1) % n) for i in range(n)])
    return su.adjacency_from_edges(edges, n)


class TestBasics:
    def test_to_csr_removes_explicit_zeros(self):
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        m.data = np.array([0.0])  # make the stored entry an explicit zero
        assert su.to_csr(m).nnz == 0

    def test_remove_self_loops(self):
        m = sp.eye(4, format="csr") + ring(4)
        cleaned = su.remove_self_loops(m)
        assert cleaned.diagonal().sum() == 0

    def test_add_self_loops_idempotent_diagonal(self):
        out = su.add_self_loops(su.add_self_loops(ring()))
        np.testing.assert_allclose(out.diagonal(), 1.0)

    def test_symmetrize(self):
        m = sp.csr_matrix(np.array([[0, 1.0], [0, 0]]))
        out = su.symmetrize(m)
        np.testing.assert_allclose(out.toarray(), [[0, 1], [1, 0]])


class TestNormalization:
    def test_symmetric_rows_of_regular_graph(self):
        # In a ring + self loops, every node has degree 3 -> rows sum to 1.
        norm = su.normalized_adjacency(ring(), self_loops=True)
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), 1.0)

    def test_row_mode_rows_sum_to_one(self):
        norm = su.normalized_adjacency(ring(), self_loops=False, mode="row")
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), 1.0)

    def test_isolated_node_row_is_zero(self):
        adj = sp.csr_matrix((3, 3))
        norm = su.normalized_adjacency(adj, self_loops=False, mode="row")
        assert norm.nnz == 0

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            su.normalized_adjacency(ring(), mode="bogus")

    def test_symmetric_matrix_is_symmetric(self):
        norm = su.normalized_adjacency(ring(), self_loops=True).toarray()
        np.testing.assert_allclose(norm, norm.T)


class TestEdgeArrays:
    def test_undirected_each_edge_once(self):
        edges = su.edge_array(ring(6))
        assert len(edges) == 6
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_directed_doubles(self):
        assert len(su.edge_array(ring(6), directed=True)) == 12

    def test_roundtrip(self):
        adj = ring(8)
        rebuilt = su.adjacency_from_edges(su.edge_array(adj), 8)
        np.testing.assert_allclose(adj.toarray(), rebuilt.toarray())

    def test_adjacency_from_edges_symmetric(self):
        adj = su.adjacency_from_edges(np.array([[0, 1]]), 3)
        assert adj[1, 0] == 1.0 and adj[0, 1] == 1.0

    def test_duplicate_edges_collapse_to_binary(self):
        adj = su.adjacency_from_edges(np.array([[0, 1], [0, 1], [1, 0]]), 2)
        np.testing.assert_allclose(adj.toarray(), [[0, 1], [1, 0]])


class TestKHop:
    def test_ring_two_hops(self):
        hops = su.k_hop_neighbors(ring(8), 0, 2)
        np.testing.assert_array_equal(hops, [2, 6])

    def test_first_hop_is_neighbors(self):
        hops = su.k_hop_neighbors(ring(8), 0, 1)
        np.testing.assert_array_equal(hops, [1, 7])

    def test_excludes_closer_nodes(self):
        # Triangle: everything is within 1 hop, so 2-hop set is empty.
        adj = su.adjacency_from_edges(np.array([[0, 1], [1, 2], [0, 2]]), 3)
        assert su.k_hop_neighbors(adj, 0, 2).size == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            su.k_hop_neighbors(ring(), 0, 0)


class TestRowSlots:
    def test_matches_a_loop_over_the_rows(self):
        matrix = sp.random(12, 9, density=0.3, format="csr", random_state=0)
        rows = np.array([5, 0, 5, 11, 3])
        row_ids, slots = su.csr_row_slots(matrix.indptr, rows)
        expected = [
            (position, slot)
            for position, row in enumerate(rows)
            for slot in range(matrix.indptr[row], matrix.indptr[row + 1])
        ]
        assert list(zip(row_ids.tolist(), slots.tolist())) == expected

    def test_empty_rows_and_row_sets(self):
        matrix = sp.csr_matrix((4, 4))
        for rows in (np.array([0, 3]), np.array([], dtype=np.int64)):
            row_ids, slots = su.csr_row_slots(matrix.indptr, rows)
            assert row_ids.size == 0 and slots.size == 0


class TestDiffusion:
    def test_rows_approximately_stochastic(self):
        diffusion = su.ppr_diffusion(ring(6), alpha=0.2)
        np.testing.assert_allclose(
            np.asarray(diffusion.sum(axis=1)).ravel(), 1.0, atol=1e-8
        )

    def test_top_k_sparsifies(self):
        dense = su.ppr_diffusion(ring(10), alpha=0.2)
        sparse = su.ppr_diffusion(ring(10), alpha=0.2, top_k=3)
        assert sparse.nnz <= 30 < dense.nnz

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            su.ppr_diffusion(ring(), alpha=1.5)


class TestSymmetricMarks:
    """The provably-symmetric tag that lets spmm backward skip the transpose."""

    def _marked(self, n=8, seed=0):
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < 0.3
        return su.symmetrize(sp.csr_matrix(dense.astype(np.float64)))

    def test_symmetrize_marks_output(self):
        assert su.is_marked_symmetric(self._marked())

    def test_plain_to_csr_is_unmarked(self):
        assert not su.is_marked_symmetric(su.to_csr(sp.eye(4, format="csr")))

    def test_mark_is_honest(self):
        # A marked matrix really has the transpose's exact CSR arrays, so
        # the cached-transpose shortcut below is bit-exact, not approximate.
        matrix = su.normalized_adjacency(self._marked(), mode="symmetric")
        assert su.is_marked_symmetric(matrix)
        transposed = su.to_csr(matrix.T)
        np.testing.assert_array_equal(matrix.indptr, transposed.indptr)
        np.testing.assert_array_equal(matrix.indices, transposed.indices)
        np.testing.assert_array_equal(matrix.data, transposed.data)

    def test_cached_transpose_returns_same_object_when_marked(self):
        matrix = self._marked()
        assert su.cached_transpose(matrix) is matrix

    def test_scipy_derived_objects_drop_the_mark(self):
        matrix = self._marked()
        assert not su.is_marked_symmetric(su.to_csr(matrix.T @ matrix) * 1.0)
        assert not su.is_marked_symmetric(matrix[:4, :])

    def test_self_loop_edits_preserve_the_mark(self):
        matrix = self._marked()
        assert su.is_marked_symmetric(su.remove_self_loops(matrix))
        assert su.is_marked_symmetric(su.add_self_loops(matrix))

    def test_row_normalization_is_not_marked(self):
        # D^-1 A is generally asymmetric even for symmetric A.
        marked = self._marked()
        assert not su.is_marked_symmetric(su.normalized_adjacency(marked, mode="row"))

    def test_spmm_backward_equal_with_and_without_mark(self):
        from repro.nn import Tensor
        from repro.nn import functional as F

        matrix = su.normalized_adjacency(self._marked(), mode="symmetric")
        unmarked = su.to_csr(sp.csr_matrix(matrix))  # fresh object, no tag
        assert not su.is_marked_symmetric(unmarked)
        x = np.random.default_rng(1).normal(size=(matrix.shape[0], 3))

        def grad_of(operand):
            t = Tensor(x, requires_grad=True)
            F.spmm(operand, t).sum().backward()
            return t.grad

        np.testing.assert_array_equal(grad_of(matrix), grad_of(unmarked))
