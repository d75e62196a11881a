"""GraphMAE2 (Hou et al., 2023) — the decoding-enhanced successor of GraphMAE.

The paper's related work (Section 6.2) discusses GraphMAE2; it is included
here as an extension baseline.  Its two additions over GraphMAE:

1. **Multi-view random re-masking**: the decoder input is re-masked with a
   *fresh* random mask several times per step, and the reconstruction loss is
   averaged over the views — a regulariser on the decoder.
2. **Latent target prediction**: besides reconstructing input features, a
   predictor maps the visible-node embeddings onto the embeddings produced by
   a frozen target pass over the *unmasked* graph, anchoring the latent space.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.losses import sce_loss
from ..engine import Method, TrainState
from ..gnn.encoder import GNNEncoder, _build_conv
from ..graph.augment import mask_node_features
from ..graph.data import Graph
from ..nn import Adam, MLP, Tensor, functional as F, no_grad
from ..registry import register_method


@register_method(
    "GraphMAE2",
    tags=("mae", "extension"),
    order=420,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": p.epochs},
)
class GraphMAE2(Method):
    """GraphMAE2: multi-view re-mask decoding plus latent regularisation."""

    name = "GraphMAE2"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 2,
        mask_rate: float = 0.5,
        remask_rate: float = 0.5,
        num_remask_views: int = 2,
        latent_weight: float = 1.0,
        gamma: float = 2.0,
        epochs: int = 200,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
        conv_type: str = "gcn",
    ) -> None:
        if num_remask_views < 1:
            raise ValueError(f"need at least one re-mask view, got {num_remask_views}")
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.mask_rate = mask_rate
        self.remask_rate = remask_rate
        self.num_remask_views = num_remask_views
        self.latent_weight = latent_weight
        self.gamma = gamma
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.conv_type = conv_type

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        encoder = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type=self.conv_type,
            activation="elu",
            rng=rng,
        )
        decoder = _build_conv(
            self.conv_type, self.hidden_dim, graph.num_features, rng, final=True
        )
        latent_predictor = MLP(
            self.hidden_dim, [self.hidden_dim], self.hidden_dim, rng=rng
        )
        optimizer = Adam(
            encoder.parameters() + decoder.parameters() + latent_predictor.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={
                "encoder": encoder,
                "decoder": decoder,
                "latent_predictor": latent_predictor,
            },
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["operand"] = encoder.structure(graph.adjacency)
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        decoder = state.modules["decoder"]
        latent_predictor = state.modules["latent_predictor"]
        operand = state.extras["operand"]
        rng = state.rng
        masked = mask_node_features(graph.features, self.mask_rate, rng)
        h = encoder(graph.adjacency, Tensor(masked.features))

        # (1) multi-view re-mask decoding.
        reconstruction: Optional[Tensor] = None
        for _view in range(self.num_remask_views):
            keep = (rng.random((graph.num_nodes, 1)) >= self.remask_rate)
            keep = keep.astype(float)
            keep[masked.masked_nodes] = 0.0
            z = decoder(operand, h * Tensor(keep))
            view_loss = sce_loss(
                z, Tensor(graph.features), masked.masked_nodes, self.gamma
            )
            reconstruction = (
                view_loss if reconstruction is None else reconstruction + view_loss
            )
        loss = reconstruction * (1.0 / self.num_remask_views)

        # (2) latent target prediction against the unmasked pass.
        with no_grad():
            encoder.eval()
            target = encoder(graph.adjacency, Tensor(graph.features)).data
            encoder.train()
        predicted = latent_predictor(h)
        latent = (
            1.0
            - F.cosine_similarity(predicted, Tensor(target)).mean()
        )
        loss = loss + latent * self.latent_weight
        return loss, {
            "reconstruction": reconstruction.item() / self.num_remask_views,
            "latent": latent.item(),
        }

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()
