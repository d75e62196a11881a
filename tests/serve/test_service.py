"""EmbeddingService: cache-fronted node serving, graph updates, hot swaps."""

import numpy as np
import pytest

from repro.obs import record
from repro.serve import EmbeddingService, ModelRegistry

from .conftest import make_ring_graph


@pytest.fixture
def registry(spec):
    registry = ModelRegistry()
    registry.register("demo", spec.build(seed=1), spec)
    return registry


@pytest.fixture
def service(registry, graph):
    service = EmbeddingService(
        registry, "demo", graph=graph, max_wait_ms=1.0, start_queue=False
    )
    yield service
    service.close()


class TestEmbedNodes:
    def test_rows_match_full_inference(self, service, registry, graph):
        rows = service.embed_nodes([0, 3, 7])
        full = registry.get("demo").encoder.infer(graph.adjacency, graph.features)
        assert np.array_equal(rows, full[[0, 3, 7]])

    def test_cache_serves_repeat_requests_without_forward(self, service):
        service.embed_nodes([0, 1, 2])
        assert service._node_forwards == 1
        repeat = service.embed_nodes([2, 0])
        assert service._node_forwards == 1  # pure cache hits
        first = service.embed_nodes([0, 1, 2])
        assert np.array_equal(repeat[0], first[2])
        assert np.array_equal(repeat[1], first[0])

    def test_partial_miss_triggers_one_forward(self, service):
        service.embed_nodes([0, 1])
        service.embed_nodes([1, 5])  # 5 misses -> exactly one more forward
        assert service._node_forwards == 2

    def test_empty_request(self, service):
        assert service.embed_nodes([]).shape == (0, 4)

    def test_non_integer_ids_raise(self, service):
        # Floats used to be truncated and a boolean mask read as ids 0/1.
        with pytest.raises(TypeError):
            service.embed_nodes([1.7, 2.2])
        with pytest.raises(TypeError):
            service.embed_nodes(np.array([True, False, True]))
        assert service._node_forwards == 0

    def test_out_of_range_ids_raise(self, service):
        with pytest.raises(IndexError):
            service.embed_nodes([999])
        with pytest.raises(ValueError):
            service.embed_nodes([[0, 1]])

    def test_requires_attached_graph(self, registry):
        service = EmbeddingService(registry, "demo", start_queue=False)
        with pytest.raises(RuntimeError, match="no graph"):
            service.embed_nodes([0])
        service.close()

    def test_unknown_model_fails_fast(self, registry):
        with pytest.raises(KeyError):
            EmbeddingService(registry, "nope", start_queue=False)


class TestInvalidation:
    def test_graph_update_invalidates_and_recomputes(self, service):
        before = service.embed_nodes([0, 1])
        service.update_graph(make_ring_graph(12, seed=9, name="v2"))
        assert len(service.cache) == 0
        after = service.embed_nodes([0, 1])
        assert service._node_forwards == 2
        assert not np.array_equal(before, after)

    def test_model_hot_swap_changes_cache_keys(self, service, registry, spec):
        before = service.embed_nodes([0, 1])
        registry.register("demo", spec.build(seed=2), spec)
        after = service.embed_nodes([0, 1])
        assert service._node_forwards == 2  # old rows keyed by old version
        assert not np.array_equal(before, after)


class TestGraphRequests:
    def test_embed_graph_via_queue(self, service, registry):
        request = make_ring_graph(8, seed=4)
        future = service.submit_graph(request)
        service.queue.flush()
        rows = future.result(timeout=0)
        solo = registry.get("demo").encoder.infer(request.adjacency, request.features)
        assert np.array_equal(solo, rows)


class TestServiceTelemetry:
    def test_counters_and_spans(self, service):
        with record() as recorder:
            service.embed_nodes([0, 1])
            service.embed_nodes([0])
            counters = dict(recorder.counters)
            span_names = [s.name for s in recorder.spans]
        assert counters["serve.requests.nodes"] == 2.0
        assert counters["serve.cache.miss"] == 2.0
        assert counters["serve.cache.hit"] == 1.0
        assert span_names.count("serve/embed_nodes") == 2

    def test_stats_flatten_cache_and_queue(self, service):
        service.embed_nodes([0, 1])
        stats = service.stats()
        assert stats["cache.size"] == 2.0
        assert stats["queue.requests"] == 0.0
        assert stats["node_forwards"] == 1.0
        assert stats["model_version"] == 1.0
