"""Seeded-equivalence: engine-ported loops reproduce pre-refactor curves.

``golden_curves.json`` was captured by running the *pre*-refactor
hand-rolled training loops (GCMAE node/subgraph/graphs, GRACE, GraphMAE)
on fixed synthetic data at seed 3.  These tests assert that the ports
onto :class:`repro.engine.TrainLoop` reproduce every loss history — and
GCMAE's per-part histories — bit-for-bit, i.e. ``==`` on floats, not
``pytest.approx``.  Any RNG-consumption reordering in the engine breaks
these immediately.

Each entry also pins the sha256 of the embeddings ``fit``/``fit_graphs``
return for the same run, so moving the code that trains *and* embeds
cannot change a bit of what the tables probe either.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines.contrastive import GRACE
from repro.baselines.mae import GraphMAE
from repro.core.config import GCMAEConfig
from repro.core.trainer import GCMAEMethod, train_gcmae
from repro.graph.generators import (
    CitationGraphSpec,
    GraphFamilySpec,
    add_planted_splits,
    make_citation_graph,
    make_graph_classification_dataset,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_curves.json").read_text()
)
SEED = 3


def _sha256(embeddings):
    return hashlib.sha256(embeddings.tobytes()).hexdigest()


@pytest.fixture(scope="module")
def graph():
    return add_planted_splits(
        make_citation_graph(
            CitationGraphSpec(100, 24, 3, average_degree=4.0), seed=0
        ),
        seed=0,
    )


@pytest.fixture(scope="module")
def dataset():
    return make_graph_classification_dataset(
        [
            GraphFamilySpec("er", 8, 14, (0.3,)),
            GraphFamilySpec("ring", 8, 14, (2,)),
        ],
        graphs_per_class=6,
        seed=0,
    )


@pytest.fixture(scope="module")
def gcmae_config():
    return GCMAEConfig(
        hidden_dim=16, embed_dim=16, heads=2, epochs=6, projector_hidden=8
    )


def test_gcmae_node_curve_is_bit_identical(graph, gcmae_config):
    result = train_gcmae(graph, gcmae_config, seed=SEED)
    golden = GOLDEN["gcmae_node"]
    assert result.loss_history == golden["loss"]
    assert [p.sce for p in result.part_history] == golden["sce"]
    assert [p.contrastive for p in result.part_history] == golden["contrastive"]
    assert [p.structure for p in result.part_history] == golden["structure"]
    assert [p.discrimination for p in result.part_history] == golden["discrimination"]
    embeddings = GCMAEMethod(gcmae_config).fit(graph, seed=SEED).embeddings
    assert _sha256(embeddings) == golden["embeddings_sha256"]


def test_gcmae_subgraph_curve_is_bit_identical(graph, gcmae_config):
    config = gcmae_config.with_overrides(
        subgraph_threshold=50, subgraph_size=40, steps_per_epoch=2
    )
    result = train_gcmae(graph, config, seed=SEED)
    assert result.loss_history == GOLDEN["gcmae_subgraph"]["loss"]
    embeddings = GCMAEMethod(config).fit(graph, seed=SEED).embeddings
    assert _sha256(embeddings) == GOLDEN["gcmae_subgraph"]["embeddings_sha256"]


def test_gcmae_graphs_curve_is_bit_identical(dataset, gcmae_config):
    config = gcmae_config.with_overrides(
        conv_type="gin", heads=1, graph_batch_size=4, epochs=5
    )
    method = GCMAEMethod(config)
    embeddings = method.fit_graphs(dataset, seed=SEED).embeddings
    assert method.last_train_result.loss_history == GOLDEN["gcmae_graphs"]["loss"]
    assert _sha256(embeddings) == GOLDEN["gcmae_graphs"]["embeddings_sha256"]


def test_grace_curve_is_bit_identical(graph):
    result = GRACE(hidden_dim=16, projector_dim=8, epochs=8).fit(graph, seed=SEED)
    assert result.loss_history == GOLDEN["grace"]["loss"]
    assert _sha256(result.embeddings) == GOLDEN["grace"]["embeddings_sha256"]


def test_graphmae_curve_is_bit_identical(graph):
    result = GraphMAE(hidden_dim=16, heads=2, epochs=8).fit(graph, seed=SEED)
    assert result.loss_history == GOLDEN["graphmae"]["loss"]
    assert _sha256(result.embeddings) == GOLDEN["graphmae"]["embeddings_sha256"]
