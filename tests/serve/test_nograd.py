"""No-grad inference path: bit-equality with the grad path, tape suppression."""

import threading

import numpy as np
import pytest

import repro.nn.functional as F
from repro.gnn import CONV_TYPES, GNNEncoder
from repro.nn import Tensor
from repro.nn.tensor import is_grad_enabled, no_grad

from .conftest import FEATURE_DIM, make_ring_graph


def build_encoder(conv_type: str, dropout: float = 0.0) -> GNNEncoder:
    return GNNEncoder(
        FEATURE_DIM,
        8,
        4,
        num_layers=2,
        conv_type=conv_type,
        dropout=dropout,
        heads=2 if conv_type == "gat" else 1,
        rng=np.random.default_rng(0),
    )


class TestNoGradBitEquality:
    @pytest.mark.parametrize("conv_type", CONV_TYPES)
    def test_infer_matches_grad_forward_bitwise(self, conv_type):
        graph = make_ring_graph(12)
        encoder = build_encoder(conv_type).eval()
        reference = encoder(graph.adjacency, Tensor(graph.features)).data
        inferred = encoder.infer(graph.adjacency, graph.features)
        assert np.array_equal(reference, inferred)

    @pytest.mark.parametrize("conv_type", CONV_TYPES)
    def test_infer_with_dropout_configured(self, conv_type):
        # Dropout must be disabled by infer()'s eval switch, so the outputs
        # still match the eval-mode grad path exactly.
        graph = make_ring_graph(12)
        encoder = build_encoder(conv_type, dropout=0.5)
        encoder.eval()
        reference = encoder(graph.adjacency, Tensor(graph.features)).data
        encoder.train()
        inferred = encoder.infer(graph.adjacency, graph.features)
        assert np.array_equal(reference, inferred)

    def test_infer_restores_training_mode(self):
        graph = make_ring_graph(12)
        encoder = build_encoder("gcn", dropout=0.5).train()
        encoder.infer(graph.adjacency, graph.features)
        assert encoder.training
        encoder.eval()
        encoder.infer(graph.adjacency, graph.features)
        assert not encoder.training


class TestNoGradSemantics:
    def test_outputs_are_constants(self):
        weight = Tensor(np.ones((3, 3)), requires_grad=True)
        with no_grad():
            out = weight @ Tensor(np.ones((3, 3)))
        assert not out.requires_grad
        assert out._parents == ()
        assert out._backward is None

    def test_nesting_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_decorator_form(self):
        @no_grad()
        def project(weight):
            return (weight * 2.0).sum()

        weight = Tensor(np.ones(4), requires_grad=True)
        out = project(weight)
        assert not out.requires_grad
        assert is_grad_enabled()

    def test_spmm_skips_transpose_cache_under_no_grad(self, monkeypatch):
        from repro.graph import sparse as graph_sparse

        graph = make_ring_graph(10)
        calls = []
        real = graph_sparse.cached_transpose

        def counting(matrix):
            calls.append(matrix)
            return real(matrix)

        # spmm resolves the transpose through the graph.sparse module at
        # call time, so the patch goes there.
        monkeypatch.setattr(graph_sparse, "cached_transpose", counting)
        dense = Tensor(graph.features, requires_grad=True)
        with no_grad():
            F.spmm(graph.adjacency, dense)
            F.spmm_linear(graph.adjacency, dense, Tensor(np.ones((FEATURE_DIM, 2))))
        assert calls == []
        F.spmm(graph.adjacency, dense)
        assert len(calls) == 1


class TestNoGradThreads:
    """The grad mode is per thread: serving threads cannot leak it."""

    @staticmethod
    def _run(*targets):
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()

    def test_interleaved_nesting_restores_every_thread(self):
        # A enters, B enters, A exits, B exits: with one process-wide flag
        # B's exit restores the False that A's entry left behind.
        a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
        after_exit = {}

        def thread_a():
            with no_grad():
                a_entered.set()
                assert b_entered.wait(timeout=5)
            a_exited.set()
            after_exit["a"] = is_grad_enabled()

        def thread_b():
            assert a_entered.wait(timeout=5)
            with no_grad():
                b_entered.set()
                assert a_exited.wait(timeout=5)
            after_exit["b"] = is_grad_enabled()

        self._run(thread_a, thread_b)
        assert after_exit == {"a": True, "b": True}
        assert is_grad_enabled()

    def test_worker_no_grad_leaves_main_thread_recording(self):
        entered, release = threading.Event(), threading.Event()

        def worker():
            with no_grad():
                entered.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert entered.wait(timeout=5)
            weight = Tensor(np.ones(4), requires_grad=True)
            out = (weight * 2.0).sum()
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert out.requires_grad
        out.backward()
        np.testing.assert_array_equal(weight.grad, np.full(4, 2.0))
