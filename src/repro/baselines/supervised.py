"""Supervised baselines: GCN and GAT node classifiers (Table 4 rows 1-2).

Unlike the SSL methods these consume labels directly; they exist to anchor
the comparison, as in the paper where they are the weakest rows of Table 4.

The bespoke val-accuracy plateau logic this file used to carry is now the
generic :class:`repro.engine.EarlyStopping` (``monitor="val_accuracy"``,
``mode="max"``, ``restore_best=True``); training runs through
:meth:`repro.engine.Method.train` like every other method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..engine import EarlyStopping, Method, TrainState
from ..eval.metrics import accuracy
from ..gnn.encoder import GNNEncoder
from ..graph.data import Graph
from ..nn import Adam, Tensor, functional as F, no_grad
from ..registry import register_method


@dataclass
class SupervisedResult:
    """Test accuracy of a supervised classifier plus bookkeeping."""

    test_accuracy: float
    best_val_accuracy: float
    train_seconds: float
    epochs_run: int


@register_method(
    "GCN",
    tags=("supervised",),
    order=10,
    defaults=lambda p: {"conv_type": "gcn"},
)
@register_method(
    "GAT",
    tags=("supervised",),
    order=20,
    defaults=lambda p: {"conv_type": "gat"},
)
class SupervisedGNN(Method):
    """A GNN classifier trained with cross-entropy and early stopping.

    ``conv_type="gcn"`` gives the GCN baseline, ``conv_type="gat"`` the GAT
    baseline (with multi-head attention, as in the original).
    """

    def __init__(
        self,
        conv_type: str = "gcn",
        hidden_dim: int = 64,
        num_layers: int = 2,
        dropout: float = 0.5,
        learning_rate: float = 0.01,
        weight_decay: float = 5e-4,
        epochs: int = 200,
        patience: int = 30,
        heads: int = 4,
        name: Optional[str] = None,
    ) -> None:
        self.conv_type = conv_type
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.epochs = epochs
        self.patience = patience
        self.heads = heads
        self.name = name if name is not None else conv_type.upper()

    @property
    def early_stopping(self) -> EarlyStopping:
        return EarlyStopping(
            patience=self.patience,
            monitor="val_accuracy",
            mode="max",
            restore_best=True,
        )

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        model = GNNEncoder(
            in_features=graph.num_features,
            hidden_features=self.hidden_dim,
            out_features=graph.num_classes,
            num_layers=self.num_layers,
            conv_type=self.conv_type,
            dropout=self.dropout,
            heads=self.heads if self.conv_type == "gat" else 1,
            rng=rng,
        )
        optimizer = Adam(
            model.parameters(), lr=self.learning_rate, weight_decay=self.weight_decay
        )
        state = TrainState(
            modules={"model": model},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=model,
        )
        state.extras["x"] = Tensor(graph.features)
        state.extras["train_idx"] = np.nonzero(graph.train_mask)[0]
        state.extras["val_idx"] = (
            np.nonzero(graph.val_mask)[0]
            if graph.val_mask is not None
            else state.extras["train_idx"]
        )
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        model = state.modules["model"]
        train_idx = state.extras["train_idx"]
        logits = model(graph.adjacency, state.extras["x"])
        return F.cross_entropy(logits[train_idx], graph.labels[train_idx]), {}

    def epoch_metrics(
        self, state: TrainState, graph: Graph, epoch: int, epoch_loss: float
    ) -> Dict[str, float]:
        model = state.modules["model"]
        model.eval()
        with no_grad():
            predictions = model(graph.adjacency, state.extras["x"]).data.argmax(axis=1)
        val_idx = state.extras["val_idx"]
        return {"val_accuracy": accuracy(predictions[val_idx], graph.labels[val_idx])}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        model = state.modules["model"]
        model.eval()
        with no_grad():
            return model(graph.adjacency, state.extras["x"]).data.copy()

    def evaluate(self, graph: Graph, seed: int = 0) -> SupervisedResult:
        """Train on ``graph.train_mask``, early-stop on val, score on test."""
        if graph.labels is None or graph.train_mask is None:
            raise ValueError("supervised training needs labels and split masks")
        outcome = self.train(graph, seed=seed)
        model = outcome.state.modules["model"]
        model.eval()
        with no_grad():
            predictions = model(
                graph.adjacency, outcome.state.extras["x"]
            ).data.argmax(axis=1)
        test_accuracy = accuracy(
            predictions[graph.test_mask], graph.labels[graph.test_mask]
        )
        return SupervisedResult(
            test_accuracy=test_accuracy,
            best_val_accuracy=(
                outcome.best_metric if outcome.best_metric is not None else -1.0
            ),
            train_seconds=outcome.train_seconds,
            epochs_run=outcome.epochs_run,
        )
