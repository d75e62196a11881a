"""The embedding service: cache-fronted, micro-batched, no-grad serving.

One :class:`EmbeddingService` serves one registered model over one
attached graph (plus ad-hoc ``embed_graph`` requests), combining the three
serving primitives:

* node requests (:meth:`EmbeddingService.embed_nodes`) hit the LRU row
  cache first; missing rows are produced by one no-grad forward over the
  missing ids' receptive field (their ``num_layers``-hop block of the
  graph, see :meth:`~repro.gnn.encoder.GNNEncoder.infer`) and enter the
  cache — a miss costs one forward over that block, so size the cache to
  the hot set.
* graph requests (:meth:`EmbeddingService.embed_graph`) go through the
  :class:`~repro.serve.queue.MicroBatchQueue`, so concurrent callers share
  one block-diagonal forward.
* graph updates (:meth:`EmbeddingService.update_graph`) bump the graph
  version and explicitly invalidate the cache; model hot-swaps
  (re-registering the name) are picked up on the next request because the
  registry version participates in every cache key.

Every request runs under :class:`~repro.nn.tensor.no_grad` via
:meth:`~repro.gnn.encoder.GNNEncoder.infer`, records a ``serve/...`` span,
and bumps ``serve.requests.*`` counters on the active recorder.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..graph.data import Graph, as_node_ids
from ..nn.dtype import default_dtype
from ..obs.hooks import emit_counter
from ..obs.spans import trace_span
from .cache import LRUCache
from .queue import MicroBatchQueue
from .registry import ModelRegistry, RegisteredModel


class EmbeddingService:
    """Serve ``embed(node_ids)`` / ``embed(graph)`` from a frozen encoder."""

    def __init__(
        self,
        registry: ModelRegistry,
        model: str,
        graph: Optional[Graph] = None,
        cache_capacity: int = 4096,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        start_queue: bool = True,
    ) -> None:
        self.registry = registry
        self.model_name = model
        self.registry.get(model)  # fail fast on unknown names
        self.cache = LRUCache(cache_capacity)
        self.graph: Optional[Graph] = None
        self.graph_version = 0
        if graph is not None:
            self.update_graph(graph)
        self.queue = MicroBatchQueue(
            self._batched_forward,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            start=start_queue,
        )
        self._node_forwards = 0

    # ------------------------------------------------------------------
    def _entry(self) -> RegisteredModel:
        return self.registry.get(self.model_name)

    def _batched_forward(self, batch) -> np.ndarray:
        return self._entry().encoder.infer_batch(batch)

    # ------------------------------------------------------------------
    def update_graph(self, graph: Graph) -> None:
        """Attach (or replace) the served graph, invalidating cached rows."""
        self.graph = graph
        self.graph_version += 1
        self.cache.invalidate()
        emit_counter("serve.graph.update")

    def embed_nodes(self, node_ids: Sequence[int]) -> np.ndarray:
        """Embedding rows for ``node_ids`` (integers) over the attached graph.

        Cached rows are served without touching the encoder; any misses
        trigger one no-grad forward over the missing ids' receptive field,
        whose rows are bit-identical to a full-graph forward's and are
        then cached.  Request order is preserved in the output.
        """
        if self.graph is None:
            raise RuntimeError("no graph attached; call update_graph() first")
        node_ids = as_node_ids(node_ids, self.graph.num_nodes)
        if node_ids.ndim != 1:
            raise ValueError(f"node_ids must be 1-D, got shape {node_ids.shape}")
        entry = self._entry()
        emit_counter("serve.requests.nodes")
        with trace_span("serve/embed_nodes"):
            key_base = (self.model_name, entry.version, self.graph_version)
            rows: Dict[int, np.ndarray] = {}
            missing = []
            for node in node_ids.tolist():
                cached = self.cache.get(key_base + (node,))
                if cached is None:
                    missing.append(node)
                else:
                    rows[node] = cached
            if missing:
                matrix = entry.encoder.infer(
                    self.graph.adjacency, self.graph.features, nodes=missing
                )
                self._node_forwards += 1
                for node, row in zip(missing, matrix):
                    self.cache.put(key_base + (node,), row)
                    rows[node] = row
            if not node_ids.size:
                return np.zeros((0, entry.spec.out_features), dtype=default_dtype())
            return np.stack([rows[node] for node in node_ids.tolist()], axis=0)

    def embed_graph(self, graph: Graph, timeout: Optional[float] = None) -> np.ndarray:
        """Embeddings for an ad-hoc graph via the micro-batching queue."""
        emit_counter("serve.requests.graphs")
        with trace_span("serve/embed_graph"):
            return self.queue.embed(graph, timeout=timeout)

    def submit_graph(self, graph: Graph):
        """Non-blocking :meth:`embed_graph`; returns the queue future."""
        emit_counter("serve.requests.graphs")
        return self.queue.submit(graph)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        """Cache + queue + forward counters, flat and JSON-ready."""
        stats = {f"cache.{k}": v for k, v in self.cache.stats().items()}
        stats.update({f"queue.{k}": v for k, v in self.queue.stats().items()})
        stats["node_forwards"] = float(self._node_forwards)
        stats["graph_version"] = float(self.graph_version)
        stats["model_version"] = float(self._entry().version)
        return stats

    def close(self) -> None:
        self.queue.close()

    def __enter__(self) -> "EmbeddingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
