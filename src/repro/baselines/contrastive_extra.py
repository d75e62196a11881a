"""Additional contrastive baselines from the paper's related work: BGRL, GCA.

The paper's Section 6.1 discusses both; they are not in its comparison
tables, but they round out the contrastive family for extension studies:

* BGRL (Thakoor et al., 2021) — bootstrapped representation learning:
  an online encoder + predictor chases an EMA *target* encoder across two
  augmented views; no negative samples at all.
* GCA (Zhu et al., 2021) — GRACE with *adaptive* augmentation: edges and
  feature dimensions are dropped with probability inversely related to
  centrality, so important structure survives corruption.

Both train through :class:`repro.engine.TrainLoop`; BGRL's EMA target
update rides the loop's :meth:`~repro.engine.Method.after_step` hook.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..core.losses import info_nce
from ..engine import Method, TrainState
from ..gnn.encoder import GNNEncoder
from ..graph.data import Graph
from ..graph.sampling import neighbor_block_steps
from ..graph.sparse import to_csr
from ..nn import Adam, MLP, Tensor, functional as F, no_grad
from ..nn.module import Module
from ..registry import register_method


@register_method(
    "BGRL",
    tags=("contrastive", "extension"),
    order=400,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": p.epochs},
)
class BGRL(Method):
    """Bootstrapped graph latents: no negatives, EMA target network."""

    name = "BGRL"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 2,
        epochs: int = 150,
        momentum: float = 0.99,
        edge_drop: Tuple[float, float] = (0.2, 0.3),
        feature_mask: Tuple[float, float] = (0.2, 0.3),
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        sampled_fanouts: Tuple[int, ...] = (),
        sampled_batch_size: int = 512,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.momentum = momentum
        self.edge_drop = edge_drop
        self.feature_mask = feature_mask
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.sampled_fanouts = tuple(sampled_fanouts)
        self.sampled_batch_size = sampled_batch_size

    def _ema_update(self, online: Module, target: Module) -> None:
        online_params = dict(online.named_parameters())
        for name, target_param in target.named_parameters():
            target_param.data *= self.momentum
            target_param.data += (1.0 - self.momentum) * online_params[name].data

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        online = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gcn",
            rng=rng,
        )
        target = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gcn",
            rng=rng,
        )
        target.load_state_dict(online.state_dict())
        predictor = MLP(self.hidden_dim, [self.hidden_dim], self.hidden_dim, rng=rng)
        optimizer = Adam(
            online.parameters() + predictor.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        return TrainState(
            modules={"online": online, "target": target, "predictor": predictor},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=online,
        )

    def steps(self, state: TrainState, graph: Graph, epoch: int):
        if not self.sampled_fanouts:
            yield None
            return
        yield from neighbor_block_steps(
            state, graph, self.sampled_fanouts, self.sampled_batch_size, epoch
        )

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        from ..graph.augment import drop_edges, mask_feature_dimensions

        online = state.modules["online"]
        target = state.modules["target"]
        predictor = state.modules["predictor"]
        rng = state.rng
        if payload is not None:
            # Sampled block: augment within the block and align only the
            # seed rows (the neighbour suffix merely feeds their receptive
            # field); the EMA update in after_step is unchanged.
            adjacency, features = payload.adjacency, payload.features
            seeds = payload.seed_positions()
        else:
            adjacency, features = graph.adjacency, graph.features
            seeds = None
        adj1 = drop_edges(adjacency, self.edge_drop[0], rng)
        adj2 = drop_edges(adjacency, self.edge_drop[1], rng)
        x1 = mask_feature_dimensions(features, self.feature_mask[0], rng)
        x2 = mask_feature_dimensions(features, self.feature_mask[1], rng)

        prediction_1 = predictor(online(adj1, Tensor(x1)))
        prediction_2 = predictor(online(adj2, Tensor(x2)))
        with no_grad():
            target.eval()
            target_1 = target(adj1, Tensor(x1))
            target_2 = target(adj2, Tensor(x2))
        if seeds is not None:
            prediction_1 = prediction_1[seeds]
            prediction_2 = prediction_2[seeds]
            target_1 = target_1[seeds]
            target_2 = target_2[seeds]
        # Cross-view cosine alignment: predict the *other* view's target.
        loss = (
            2.0
            - F.cosine_similarity(prediction_1, Tensor(target_2.data)).mean()
            - F.cosine_similarity(prediction_2, Tensor(target_1.data)).mean()
        )
        return loss, {}

    def after_step(self, state: TrainState, graph: Graph, epoch: int, payload) -> None:
        self._ema_update(state.modules["online"], state.modules["target"])

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        online = state.modules["online"]
        online.eval()
        with no_grad():
            return online(graph.adjacency, Tensor(graph.features)).data.copy()


def degree_centrality_weights(adjacency: sp.csr_matrix) -> np.ndarray:
    """Per-edge importance: mean log-degree centrality of the endpoints."""
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    log_degree = np.log1p(degrees)
    coo = sp.coo_matrix(sp.triu(adjacency, k=1))
    return (log_degree[coo.row] + log_degree[coo.col]) / 2.0


@register_method(
    "GCA",
    tags=("contrastive", "extension"),
    order=410,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": p.epochs},
)
class GCA(Method):
    """Graph contrastive learning with adaptive (centrality-aware) augmentation."""

    name = "GCA"

    def __init__(
        self,
        hidden_dim: int = 256,
        projector_dim: int = 64,
        num_layers: int = 2,
        epochs: int = 150,
        temperature: float = 0.5,
        edge_drop: Tuple[float, float] = (0.2, 0.4),
        feature_mask: Tuple[float, float] = (0.2, 0.4),
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.projector_dim = projector_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.temperature = temperature
        self.edge_drop = edge_drop
        self.feature_mask = feature_mask
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay

    @staticmethod
    def _drop_probabilities(weights: np.ndarray, mean_rate: float) -> np.ndarray:
        """Normalise importances into drop probabilities averaging ``mean_rate``.

        Less important items (low centrality) are dropped *more* often, as in
        GCA: ``p_i = min((max_w - w_i) / (max_w - mean_w) * mean_rate, 0.9)``.
        """
        max_w = weights.max()
        mean_w = weights.mean()
        spread = max(max_w - mean_w, 1e-9)
        return np.minimum((max_w - weights) / spread * mean_rate, 0.9)

    def _adaptive_edge_drop(
        self, adjacency: sp.csr_matrix, mean_rate: float, rng: np.random.Generator
    ) -> sp.csr_matrix:
        coo = sp.coo_matrix(sp.triu(adjacency, k=1))
        probabilities = self._drop_probabilities(
            degree_centrality_weights(adjacency), mean_rate
        )
        keep = rng.random(coo.nnz) >= probabilities
        upper = sp.coo_matrix(
            (np.ones(int(keep.sum())), (coo.row[keep], coo.col[keep])),
            shape=adjacency.shape,
        )
        return to_csr(upper + upper.T)

    def _adaptive_feature_mask(
        self, features: np.ndarray, mean_rate: float, rng: np.random.Generator
    ) -> np.ndarray:
        # Dimension importance: how much the dimension is used by high-degree
        # nodes (GCA's "feature centrality" reduces to usage frequency here).
        usage = np.abs(features).sum(axis=0) + 1e-9
        probabilities = self._drop_probabilities(np.log1p(usage), mean_rate)
        keep = rng.random(features.shape[1]) >= probabilities
        return features * keep[None, :]

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        encoder = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gcn",
            rng=rng,
        )
        projector = MLP(
            self.hidden_dim,
            [self.projector_dim],
            self.projector_dim,
            activation="elu",
            rng=rng,
        )
        optimizer = Adam(
            encoder.parameters() + projector.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        return TrainState(
            modules={"encoder": encoder, "projector": projector},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        projector = state.modules["projector"]
        rng = state.rng
        adj1 = self._adaptive_edge_drop(graph.adjacency, self.edge_drop[0], rng)
        adj2 = self._adaptive_edge_drop(graph.adjacency, self.edge_drop[1], rng)
        x1 = self._adaptive_feature_mask(graph.features, self.feature_mask[0], rng)
        x2 = self._adaptive_feature_mask(graph.features, self.feature_mask[1], rng)
        z1 = projector(encoder(adj1, Tensor(x1)))
        z2 = projector(encoder(adj2, Tensor(x2)))
        return info_nce(z1, z2, temperature=self.temperature), {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()
