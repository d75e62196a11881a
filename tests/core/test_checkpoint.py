"""Tests for GCMAE checkpointing."""

import re

import numpy as np
import pytest

from repro.core import GCMAE, GCMAEConfig, load_gcmae, save_gcmae
from repro.graph.generators import CitationGraphSpec, make_citation_graph
from repro.serve import EncoderSpec, save_encoder

GRAPH = make_citation_graph(CitationGraphSpec(80, 24, 3), seed=0)
TINY = GCMAEConfig(hidden_dim=16, embed_dim=16, epochs=2, projector_hidden=8)


class TestCheckpoint:
    def test_roundtrip_preserves_embeddings(self, tmp_path):
        model = GCMAE(GRAPH.num_features, TINY, rng=np.random.default_rng(0))
        before = model.embed(GRAPH.adjacency, GRAPH.features)
        path = save_gcmae(model, tmp_path / "model.npz")
        restored = load_gcmae(path)
        after = restored.embed(GRAPH.adjacency, GRAPH.features)
        np.testing.assert_allclose(before, after)

    def test_roundtrip_preserves_config(self, tmp_path):
        config = TINY.with_overrides(
            mask_rate=0.33, structure_terms=("bce", "dist"), sampled_fanouts=(2, 2)
        )
        model = GCMAE(GRAPH.num_features, config, rng=np.random.default_rng(0))
        restored = load_gcmae(save_gcmae(model, tmp_path / "model.npz"))
        assert restored.config == config
        assert restored.config.sampled_fanouts == (2, 2)
        assert hash(restored.config) == hash(config)
        assert restored.num_features == GRAPH.num_features

    def test_restored_model_is_eval_mode(self, tmp_path):
        model = GCMAE(GRAPH.num_features, TINY, rng=np.random.default_rng(0))
        restored = load_gcmae(save_gcmae(model, tmp_path / "model.npz"))
        assert not restored.training

    def test_restored_model_can_continue_training(self, tmp_path):
        model = GCMAE(GRAPH.num_features, TINY, rng=np.random.default_rng(0))
        restored = load_gcmae(save_gcmae(model, tmp_path / "model.npz"))
        restored.train()
        loss, _ = restored.training_loss(
            GRAPH.adjacency, GRAPH.features, np.random.default_rng(0)
        )
        loss.backward()
        assert any(p.grad is not None for p in restored.parameters())

    def test_checkpoint_after_training_differs_from_fresh(self, tmp_path):
        from repro.core import train_gcmae
        result = train_gcmae(GRAPH, TINY.with_overrides(epochs=5), seed=0)
        path = save_gcmae(result.model, tmp_path / "trained.npz")
        restored = load_gcmae(path)
        fresh = GCMAE(GRAPH.num_features, TINY, rng=np.random.default_rng(0))
        trained_emb = restored.embed(GRAPH.adjacency, GRAPH.features)
        fresh_emb = fresh.embed(GRAPH.adjacency, GRAPH.features)
        assert not np.allclose(trained_emb, fresh_emb)

    def test_flat_layout_of_earlier_versions_is_refused(self, tmp_path):
        # Before the one checkpoint format, save_gcmae wrote the parameters
        # at the archive's top level; no reader for that layout is kept.
        model = GCMAE(GRAPH.num_features, TINY, rng=np.random.default_rng(0))
        path = tmp_path / "flat.npz"
        np.savez(path, __num_features__=np.array([GRAPH.num_features]), **model.state_dict())
        with pytest.raises(KeyError, match=re.escape(str(path))):
            load_gcmae(path)

    def test_a_serving_checkpoint_is_refused(self, tmp_path):
        spec = EncoderSpec(in_features=GRAPH.num_features, hidden_features=8, out_features=8)
        path = save_encoder(tmp_path / "encoder.npz", spec.build(), spec)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_gcmae(path)
