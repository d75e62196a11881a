"""Unit tests for :class:`repro.engine.TrainLoop` on a toy quadratic method."""

import re

import numpy as np
import pytest

from repro.engine import (
    CheckpointPolicy,
    EarlyStopping,
    EmbeddingResult,
    Method,
    TrainLoop,
    TrainState,
    active_checkpoint_policy,
    checkpointing,
)
from repro.nn import Adam
from repro.nn.module import Module, Parameter
from repro.obs.hooks import LambdaHook


class _Quadratic(Module):
    def __init__(self, dim=4, value=1.0):
        super().__init__()
        self.weight = Parameter(np.full((dim,), value))


class _ToyMethod(Method):
    """Minimise ||w||^2; optionally perturbed by rng noise each step."""

    name = "Toy"

    def __init__(self, noisy=False, metrics=None):
        self.noisy = noisy
        self.metrics = list(metrics or [])
        self.weight_log = []

    def build(self, data, rng):
        model = _Quadratic()
        return TrainState(
            modules={"model": model},
            optimizer=Adam(model.parameters(), lr=0.05),
            rng=rng,
        )

    def loss_step(self, state, data, epoch, payload):
        weight = state.modules["model"].weight
        loss = (weight * weight).sum()
        if self.noisy:
            loss = loss + float(state.rng.normal()) * (weight.sum() * 0.01)
        return loss, {"sq": loss.item()}

    def epoch_metrics(self, state, data, epoch, epoch_loss):
        self.weight_log.append(state.modules["model"].weight.data.copy())
        if self.metrics:
            return {"metric": self.metrics[epoch]}
        return {}

    def embed(self, state, data):
        return state.modules["model"].weight.data.copy()


def test_loop_runs_epochs_and_records_histories():
    result = TrainLoop(epochs=5).run(_ToyMethod(), None, seed=0)
    assert result.epochs_run == 5
    assert len(result.loss_history) == 5
    assert len(result.parts_history) == 5
    assert len(result.epoch_seconds) == 5
    assert result.loss_history[-1] < result.loss_history[0]
    assert all("sq" in parts for parts in result.parts_history)
    assert not result.stopped_early


def test_zero_epochs_is_a_no_op():
    result = TrainLoop(epochs=0).run(_ToyMethod(), None, seed=0)
    assert result.epochs_run == 0
    assert result.loss_history == []


def test_early_stopping_on_max_metric_with_restore_best():
    method = _ToyMethod(metrics=[0.1, 0.5, 0.3, 0.2, 0.1])
    loop = TrainLoop(
        epochs=5,
        early_stopping=EarlyStopping(
            patience=2, monitor="metric", mode="max", restore_best=True
        ),
    )
    result = loop.run(method, None, seed=0)
    assert result.stopped_early
    assert result.epochs_run == 4  # best at epoch 1, stalls at 2 and 3
    assert result.best_metric == 0.5
    restored = result.state.modules["model"].weight.data
    assert np.array_equal(restored, method.weight_log[1])


def test_early_stopping_on_loss_plateau():
    # The quadratic decreases monotonically, so min-mode never stops.
    result = TrainLoop(
        epochs=6, early_stopping=EarlyStopping(patience=2)
    ).run(_ToyMethod(), None, seed=0)
    assert not result.stopped_early
    assert result.epochs_run == 6


def test_fit_runs_the_methods_own_loop_and_embeds_once():
    method = _ToyMethod(metrics=[0.1, 0.5, 0.3, 0.2, 0.1])
    method.epochs = 5
    method.early_stopping = EarlyStopping(
        patience=2, monitor="metric", mode="max", restore_best=True
    )
    result = method.fit(None, seed=0)
    assert isinstance(result, EmbeddingResult)
    assert len(result.loss_history) == 4  # stopped as an explicit loop does
    assert np.array_equal(result.embeddings, method.weight_log[1])  # best weights


def test_fit_graphs_is_fit_and_train_passes_hooks():
    events = []
    method = _ToyMethod(noisy=True)
    method.epochs = 3
    outcome = method.train(None, seed=5, hooks=(LambdaHook(events.append),))
    assert [event.epoch for event in events] == [0, 1, 2]
    assert method.fit_graphs(None, seed=5).loss_history == outcome.loss_history


def test_early_stopping_validation():
    with pytest.raises(ValueError):
        EarlyStopping(patience=0)
    with pytest.raises(ValueError):
        EarlyStopping(patience=1, mode="best")
    with pytest.raises(ValueError):
        EarlyStopping(patience=1, min_delta=-0.1)
    with pytest.raises(ValueError):
        CheckpointPolicy("x", every=0)


def test_checkpoint_interval_and_atomicity(tmp_path):
    loop = TrainLoop(epochs=5, checkpoint_dir=str(tmp_path), checkpoint_every=2)
    loop.run(_ToyMethod(), None, seed=0)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert len(files) == 1  # overwritten in place, no .tmp debris
    # <method>-<data>-seed<seed>-<digest of the run's config>.npz
    assert re.fullmatch(r"toy-data-seed0-[0-9a-f]{10}\.npz", files[0])


def test_interrupted_resume_matches_straight_run(tmp_path):
    reference = TrainLoop(epochs=8).run(_ToyMethod(noisy=True), None, seed=7)

    ckpt = dict(checkpoint_dir=str(tmp_path), checkpoint_every=2)
    TrainLoop(epochs=4, **ckpt).run(_ToyMethod(noisy=True), None, seed=7)
    resumed = TrainLoop(epochs=8, resume=True, **ckpt).run(
        _ToyMethod(noisy=True), None, seed=7
    )

    assert resumed.resumed_from == 4
    assert resumed.loss_history == reference.loss_history
    assert np.array_equal(
        resumed.state.modules["model"].weight.data,
        reference.state.modules["model"].weight.data,
    )


def test_resume_keeps_the_best_snapshot(tmp_path):
    # The best-weight snapshot rides in the checkpoint's best/ section; a run
    # resumed after it was taken must still restore it at the end.
    stopping = EarlyStopping(patience=3, monitor="metric", mode="max", restore_best=True)
    metrics = [0.1, 0.5, 0.3, 0.2, 0.25, 0.1, 0.1, 0.1]
    reference = TrainLoop(epochs=8, early_stopping=stopping).run(
        _ToyMethod(noisy=True, metrics=metrics), None, seed=3
    )
    ckpt = dict(early_stopping=stopping, checkpoint_dir=str(tmp_path))
    TrainLoop(epochs=3, **ckpt).run(_ToyMethod(noisy=True, metrics=metrics), None, seed=3)
    resumed = TrainLoop(epochs=8, resume=True, **ckpt).run(
        _ToyMethod(noisy=True, metrics=metrics), None, seed=3
    )
    assert resumed.resumed_from == 3
    assert resumed.stopped_early and resumed.epochs_run == reference.epochs_run == 5
    assert np.array_equal(
        resumed.state.modules["model"].weight.data,
        reference.state.modules["model"].weight.data,
    )


def test_resume_of_finished_run_trains_no_further(tmp_path):
    ckpt = dict(checkpoint_dir=str(tmp_path), checkpoint_every=1)
    done = TrainLoop(epochs=3, **ckpt).run(_ToyMethod(), None, seed=0)
    resumed = TrainLoop(epochs=3, resume=True, **ckpt).run(_ToyMethod(), None, seed=0)
    assert resumed.resumed_from == 3
    assert resumed.loss_history == done.loss_history
    assert np.array_equal(
        resumed.state.modules["model"].weight.data,
        done.state.modules["model"].weight.data,
    )


def test_ambient_checkpointing_context(tmp_path):
    assert active_checkpoint_policy() is None
    with checkpointing(tmp_path, every=3):
        outer = active_checkpoint_policy()
        assert outer is not None and outer.every == 3
        with checkpointing(tmp_path / "inner", resume=True):
            assert active_checkpoint_policy().resume  # innermost wins
        assert active_checkpoint_policy() is outer
    assert active_checkpoint_policy() is None


def test_ambient_policy_reaches_loop(tmp_path):
    with checkpointing(tmp_path):
        TrainLoop(epochs=2).run(_ToyMethod(), None, seed=0)
    assert list(tmp_path.glob("*.npz"))


def test_explicit_checkpoint_dir_wins_over_ambient(tmp_path):
    explicit = tmp_path / "explicit"
    with checkpointing(tmp_path / "ambient"):
        TrainLoop(epochs=2, checkpoint_dir=str(explicit)).run(
            _ToyMethod(), None, seed=0
        )
    assert list(explicit.glob("*.npz"))
    assert not (tmp_path / "ambient").exists()
