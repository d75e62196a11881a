"""Resume-equivalence: a killed-and-resumed run matches an uninterrupted one.

GCMAE trains for 30 epochs; we simulate a mid-run kill by training an
identical configuration for only 15 epochs under a checkpoint policy, then
resume the 30-epoch run from the surviving checkpoint.  Loss history and
every final weight must match the uninterrupted run exactly — which
requires the checkpoint to round-trip module weights, Adam moments/step,
and the numpy bit-generator state.
"""

import numpy as np
import pytest

from repro import engine
from repro.core.config import GCMAEConfig
from repro.core.trainer import train_gcmae
from repro.graph.generators import (
    CitationGraphSpec,
    add_planted_splits,
    make_citation_graph,
)

SEED = 5


@pytest.fixture(scope="module")
def graph():
    return add_planted_splits(
        make_citation_graph(
            CitationGraphSpec(60, 12, 3, average_degree=4.0), seed=0
        ),
        seed=0,
    )


def _config(epochs):
    return GCMAEConfig(
        hidden_dim=8, embed_dim=8, heads=1, epochs=epochs, projector_hidden=8
    )


def test_killed_run_resumes_to_bit_identical_result(graph, tmp_path):
    reference = train_gcmae(graph, _config(30), seed=SEED)

    # "Kill" at epoch 15: an identical run that stops after 15 epochs,
    # leaving its checkpoint behind.
    with engine.checkpointing(tmp_path, every=5):
        train_gcmae(graph, _config(15), seed=SEED)
    checkpoints = list(tmp_path.glob("*.npz"))
    assert len(checkpoints) == 1
    assert not list(tmp_path.glob("*.tmp"))

    with engine.checkpointing(tmp_path, every=5, resume=True):
        resumed = train_gcmae(graph, _config(30), seed=SEED)

    assert resumed.loss_history == reference.loss_history
    assert [p.total for p in resumed.part_history] == [
        p.total for p in reference.part_history
    ]
    reference_weights = reference.model.state_dict()
    resumed_weights = resumed.model.state_dict()
    assert reference_weights.keys() == resumed_weights.keys()
    for name, weight in reference_weights.items():
        assert np.array_equal(weight, resumed_weights[name]), name


def test_resume_skips_completed_run(graph, tmp_path):
    with engine.checkpointing(tmp_path, every=10):
        done = train_gcmae(graph, _config(10), seed=SEED)
    with engine.checkpointing(tmp_path, every=10, resume=True):
        resumed = train_gcmae(graph, _config(10), seed=SEED)
    assert resumed.loss_history == done.loss_history
    for name, weight in done.model.state_dict().items():
        assert np.array_equal(weight, resumed.model.state_dict()[name]), name


def test_configs_do_not_share_a_checkpoint(graph, tmp_path):
    # Table 10's removals all train under the engine name GCMAE.  Under a
    # resume policy, a removal must not take the full model's finished run,
    # and a variant of another width must not fail on the full model's weights.
    full = _config(6)
    variants = [full.ablated("contrastive"), full.with_overrides(hidden_dim=16, embed_dim=16)]
    with engine.checkpointing(tmp_path, resume=True):
        train_gcmae(graph, full, seed=SEED)
        resumed = [train_gcmae(graph, config, seed=SEED) for config in variants]
    assert len(list(tmp_path.glob("*.npz"))) == 3
    for config, result in zip(variants, resumed):
        reference = train_gcmae(graph, config, seed=SEED)
        assert result.loss_history == reference.loss_history
        for name, weight in reference.model.state_dict().items():
            assert np.array_equal(weight, result.model.state_dict()[name]), name

