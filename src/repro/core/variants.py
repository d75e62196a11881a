"""Encoder-design variants for the paper's Table 8 study.

Table 8 compares four ways of wiring the two branches:

* ``MAE Encoder``    — a single encoder trained with the MAE objective only
  (GCMAE degenerates to its GraphMAE-style backbone).
* ``Con. Encoder``   — a single encoder trained with the contrastive
  objective only, *but* fed the heavily-masked MAE view as one side — the
  paper attributes this variant's collapse to that excessive corruption.
* ``Fusion Encoder`` — two independently trained encoders (one per
  objective) whose embeddings are averaged.
* ``Shared Encoder`` — the full GCMAE (both objectives through one encoder).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine import EmbeddingResult, Method, TrainState
from ..graph.augment import drop_nodes, mask_node_features
from ..graph.data import Graph
from ..gnn.encoder import GNNEncoder
from ..nn import Adam, MLP, Tensor, no_grad
from .config import GCMAEConfig
from .losses import info_nce
from .trainer import GCMAEMethod

ENCODER_VARIANTS = ("mae", "contrastive", "fusion", "shared")


class _ContrastiveOnlyMethod(Method):
    """The "Con. Encoder" variant: InfoNCE between the masked view and the
    node-dropped view, through a fresh encoder (no reconstruction losses)."""

    name = "Con. Encoder"

    def __init__(self, config: GCMAEConfig) -> None:
        self.config = config

    @property
    def epochs(self) -> int:
        return self.config.epochs

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        config = self.config
        modules = {
            "encoder": GNNEncoder(
                graph.num_features,
                config.hidden_dim,
                config.embed_dim,
                num_layers=config.num_layers,
                conv_type=config.conv_type,
                activation=config.activation,
                dropout=config.dropout,
                heads=config.heads if config.conv_type == "gat" else 1,
                rng=rng,
            )
        }
        for name in ("projector_u", "projector_v"):
            modules[name] = MLP(
                config.embed_dim,
                [config.projector_hidden],
                config.projector_hidden,
                activation="elu",
                rng=rng,
            )
        optimizer = Adam(
            [param for module in modules.values() for param in module.parameters()],
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        return TrainState(modules=modules, optimizer=optimizer, rng=rng)

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        config = self.config
        encoder = state.modules["encoder"]
        masked = mask_node_features(graph.features, config.mask_rate, state.rng)
        corrupted_adjacency, _ = drop_nodes(graph.adjacency, config.drop_rate, state.rng)
        h1 = encoder(graph.adjacency, Tensor(masked.features))
        h2 = encoder(corrupted_adjacency, Tensor(graph.features))
        loss = info_nce(
            state.modules["projector_u"](h1),
            state.modules["projector_v"](h2),
            temperature=config.temperature,
        )
        return loss, {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()


def fit_encoder_variant(
    graph: Graph,
    variant: str,
    config: Optional[GCMAEConfig] = None,
    seed: int = 0,
) -> EmbeddingResult:
    """Train one Table 8 encoder variant and return its embeddings."""
    config = config if config is not None else GCMAEConfig()
    if variant == "mae":
        mae_config = config.with_overrides(
            use_contrastive=False,
            use_structure_reconstruction=False,
            use_discrimination=False,
        )
        return GCMAEMethod(mae_config).fit(graph, seed=seed)
    if variant == "contrastive":
        return _ContrastiveOnlyMethod(config).fit(graph, seed=seed)
    if variant == "fusion":
        mae_result = fit_encoder_variant(graph, "mae", config, seed)
        con_result = fit_encoder_variant(graph, "contrastive", config, seed)
        fused = (mae_result.embeddings + con_result.embeddings) / 2.0
        return EmbeddingResult(
            fused,
            mae_result.train_seconds + con_result.train_seconds,
            mae_result.loss_history + con_result.loss_history,
        )
    if variant == "shared":
        return GCMAEMethod(config).fit(graph, seed=seed)
    raise ValueError(
        f"unknown encoder variant {variant!r}; use one of {ENCODER_VARIANTS}"
    )
