"""Tests for supervised, contrastive, MAE, and clustering baselines.

Each baseline is exercised end-to-end on a tiny graph: the contract is that
``fit`` returns finite embeddings of the right shape, is deterministic in
the seed, and decreases its loss.
"""

import numpy as np
import pytest

from repro.baselines import (
    CCASSG,
    DGI,
    GCC,
    GCVGE,
    GRACE,
    GraphMAE,
    MVGRL,
    MaskGAE,
    S2GAE,
    SCGC,
    SeeGera,
    SupervisedGNN,
)
from repro.graph.generators import (
    CitationGraphSpec,
    add_planted_splits,
    make_citation_graph,
)


@pytest.fixture(scope="module")
def graph():
    spec = CitationGraphSpec(100, 24, 3, average_degree=4.0)
    return add_planted_splits(make_citation_graph(spec, seed=0), seed=0)


TINY_SSL = [
    DGI(hidden_dim=16, epochs=4),
    GRACE(hidden_dim=16, projector_dim=8, epochs=4),
    MVGRL(hidden_dim=16, epochs=4),
    CCASSG(hidden_dim=16, epochs=4),
    GraphMAE(hidden_dim=16, heads=2, epochs=4),
    MaskGAE(hidden_dim=16, epochs=4),
    S2GAE(hidden_dim=16, epochs=4),
    SeeGera(hidden_dim=16, latent_dim=8, epochs=4),
    GCVGE(hidden_dim=16, latent_dim=8, epochs=6, pretrain_epochs=2),
    SCGC(hidden_dim=16, epochs=4),
    GCC(embed_dim=8, iterations=2),
]


class TestSSLContract:
    @pytest.mark.parametrize("method", TINY_SSL, ids=lambda m: m.name)
    def test_fit_returns_finite_embeddings(self, graph, method):
        result = method.fit(graph, seed=0)
        assert result.embeddings.shape[0] == graph.num_nodes
        assert np.isfinite(result.embeddings).all()
        assert result.train_seconds > 0.0

    @pytest.mark.parametrize(
        "method_factory",
        [
            lambda: DGI(hidden_dim=16, epochs=3),
            lambda: GRACE(hidden_dim=16, projector_dim=8, epochs=3),
            lambda: GraphMAE(hidden_dim=16, heads=2, epochs=3),
            lambda: MaskGAE(hidden_dim=16, epochs=3),
        ],
        ids=["DGI", "GRACE", "GraphMAE", "MaskGAE"],
    )
    def test_deterministic_in_seed(self, graph, method_factory):
        a = method_factory().fit(graph, seed=5).embeddings
        b = method_factory().fit(graph, seed=5).embeddings
        np.testing.assert_allclose(a, b)

    @pytest.mark.parametrize(
        "method_factory",
        [
            lambda: DGI(hidden_dim=32, epochs=40),
            lambda: GraphMAE(hidden_dim=32, heads=2, epochs=40),
            lambda: MaskGAE(hidden_dim=32, epochs=40),
        ],
        ids=["DGI", "GraphMAE", "MaskGAE"],
    )
    def test_loss_decreases(self, graph, method_factory):
        history = method_factory().fit(graph, seed=0).loss_history
        assert np.mean(history[-5:]) < np.mean(history[:5])


class TestMVGRLGate:
    def test_refuses_huge_graphs(self, graph):
        method = MVGRL(max_nodes=10)
        with pytest.raises(MemoryError):
            method.fit(graph, seed=0)

    def test_refuses_before_drawing_a_weight(self, graph):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(MemoryError, match="refusing above 10 nodes"):
            MVGRL(max_nodes=10).build(graph, rng)
        assert rng.bit_generator.state == before


class TestSupervised:
    def test_gcn_beats_majority_class(self, graph):
        result = SupervisedGNN("gcn", epochs=60).evaluate(graph, seed=0)
        majority = max(np.bincount(graph.labels[graph.test_mask])) / graph.test_mask.sum()
        assert result.test_accuracy > majority

    def test_gat_runs(self, graph):
        result = SupervisedGNN("gat", hidden_dim=16, epochs=10).evaluate(graph, seed=0)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_early_stopping_stops(self, graph):
        result = SupervisedGNN("gcn", epochs=500, patience=5).evaluate(graph, seed=0)
        assert result.epochs_run < 500

    def test_requires_labels(self, graph):
        from repro.graph import Graph
        unlabelled = Graph(adjacency=graph.adjacency, features=graph.features)
        with pytest.raises(ValueError):
            SupervisedGNN("gcn").evaluate(unlabelled)


class TestClusteringSpecialists:
    def test_gcc_clusters_better_than_random(self, graph):
        from repro.eval import evaluate_clustering
        result = GCC(embed_dim=8, iterations=3).fit(graph, seed=0)
        scores = evaluate_clustering(result.embeddings, graph.labels, seed=0)
        assert scores.nmi > 0.05

    def test_gcvge_uses_label_count_when_available(self, graph):
        result = GCVGE(hidden_dim=16, latent_dim=8, epochs=4, pretrain_epochs=2).fit(graph, seed=0)
        assert result.embeddings.shape == (graph.num_nodes, 8)
