"""Tests for the graph-level contrastive baselines."""

import numpy as np
import pytest

from repro.baselines import (
    AUGMENTATIONS,
    GraphCL,
    GraphLevelWrapper,
    GraphMAE,
    InfoGCL,
    InfoGraph,
    JOAO,
)
from repro.baselines.graph_level import _augment_batch, _nt_xent
from repro.graph.datasets import load_graph_dataset
from repro.graph.data import GraphDataset
from repro.nn import Tensor


@pytest.fixture(scope="module")
def dataset():
    full = load_graph_dataset("imdb-b-like", seed=0)
    return GraphDataset(full.graphs[:20], full.labels[:20], name="tiny-imdb")


GRAPH_METHODS = [
    InfoGraph(hidden_dim=16, epochs=3),
    GraphCL(hidden_dim=16, epochs=3),
    JOAO(hidden_dim=16, epochs=6),
    InfoGCL(hidden_dim=16, epochs=10),
]


class TestGraphSSLContract:
    @pytest.mark.parametrize("method", GRAPH_METHODS, ids=lambda m: m.name)
    def test_fit_graphs_shapes(self, dataset, method):
        result = method.fit_graphs(dataset, seed=0)
        assert result.embeddings.shape[0] == len(dataset)
        assert np.isfinite(result.embeddings).all()

    def test_graphcl_deterministic(self, dataset):
        a = GraphCL(hidden_dim=16, epochs=3).fit_graphs(dataset, seed=4).embeddings
        b = GraphCL(hidden_dim=16, epochs=3).fit_graphs(dataset, seed=4).embeddings
        np.testing.assert_allclose(a, b)

    def test_infograph_loss_decreases(self, dataset):
        history = InfoGraph(hidden_dim=16, epochs=30).fit_graphs(dataset, seed=0).loss_history
        assert history[-1] < history[0]

    def test_joao_tracks_pair_losses(self, dataset):
        method = JOAO(hidden_dim=16, epochs=8)
        method.fit_graphs(dataset, seed=0)
        assert len(method._pair_losses) >= 1

    def test_infogcl_explores_all_views(self, dataset):
        method = InfoGCL(hidden_dim=16, epochs=len(AUGMENTATIONS) * 2 + 2)
        method.fit_graphs(dataset, seed=0)
        assert set(method._view_losses) == set(AUGMENTATIONS)

    def test_joao_second_run_equals_a_fresh_run(self):
        # The pair history of one run must not steer the next one.
        full = load_graph_dataset("mutag-like", seed=0)
        data = GraphDataset(full.graphs[:24], full.labels[:24], name="tiny-mutag")
        method = JOAO(epochs=12, hidden_dim=16, batch_size=8)
        first = method.fit_graphs(data, seed=0).embeddings
        second = method.fit_graphs(data, seed=0).embeddings
        fresh = JOAO(epochs=12, hidden_dim=16, batch_size=8).fit_graphs(data, seed=0)
        assert np.array_equal(first, fresh.embeddings)
        assert np.array_equal(second, fresh.embeddings)

    def test_infogcl_second_run_losses_equal_a_fresh_run(self):
        full = load_graph_dataset("mutag-like", seed=0)
        data = GraphDataset(full.graphs[:24], full.labels[:24], name="tiny-mutag")
        method = InfoGCL(epochs=12, hidden_dim=16, batch_size=8)
        method.fit_graphs(data, seed=0)
        method.fit_graphs(data, seed=0)
        fresh = InfoGCL(epochs=12, hidden_dim=16, batch_size=8)
        fresh.fit_graphs(data, seed=0)
        assert method._view_losses == fresh._view_losses

    @pytest.mark.parametrize(
        "method",
        [
            InfoGraph(hidden_dim=16, epochs=3, batch_size=8),
            GraphCL(hidden_dim=16, epochs=3, batch_size=8),
            InfoGCL(hidden_dim=16, epochs=3, batch_size=8),
        ],
        ids=lambda m: m.name,
    )
    def test_mini_batch_training(self, dataset, method):
        """batch_size partitions the dataset yet embedding rows still line
        up with dataset order."""
        result = method.fit_graphs(dataset, seed=0)
        assert result.embeddings.shape[0] == len(dataset)
        assert np.isfinite(result.embeddings).all()
        assert len(result.loss_history) == 3

    def test_full_batch_equals_explicit_dataset_size(self, dataset):
        """batch_size == len(dataset) is the same single-batch schedule as
        the default, so training is identical."""
        a = InfoGraph(hidden_dim=16, epochs=3).fit_graphs(dataset, seed=1)
        b = InfoGraph(hidden_dim=16, epochs=3, batch_size=len(dataset)).fit_graphs(
            dataset, seed=1
        )
        np.testing.assert_allclose(a.embeddings, b.embeddings)


class TestAugmentBatch:
    @pytest.mark.parametrize("kind", AUGMENTATIONS)
    def test_each_augmentation_runs(self, dataset, kind):
        batch = dataset.to_batch()
        adjacency, features = _augment_batch(batch, kind, 0.3, np.random.default_rng(0))
        assert adjacency.shape == batch.adjacency.shape
        assert features.shape == batch.features.shape

    def test_unknown_kind(self, dataset):
        with pytest.raises(ValueError):
            _augment_batch(dataset.to_batch(), "rewire", 0.3, np.random.default_rng(0))

    def test_edge_drop_reduces_edges(self, dataset):
        batch = dataset.to_batch()
        adjacency, _ = _augment_batch(batch, "edge_drop", 0.5, np.random.default_rng(0))
        assert adjacency.nnz < batch.adjacency.nnz


class TestNTXent:
    def test_aligned_lower_than_shuffled(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(16, 8))
        aligned = _nt_xent(Tensor(z), Tensor(z), 0.2).item()
        shuffled = _nt_xent(Tensor(z), Tensor(z[rng.permutation(16)]), 0.2).item()
        assert aligned < shuffled


class TestGraphLevelWrapper:
    def test_wraps_node_method(self, dataset):
        wrapper = GraphLevelWrapper(
            GraphMAE(hidden_dim=16, heads=2, epochs=3, conv_type="gin"),
            name="GraphMAE",
        )
        result = wrapper.fit_graphs(dataset, seed=0)
        assert result.embeddings.shape[0] == len(dataset)

    def test_wrapper_keeps_name(self, dataset):
        wrapper = GraphLevelWrapper(GraphMAE(epochs=1), name="Wrapped")
        assert wrapper.name == "Wrapped"
