"""Node-level contrastive baselines: DGI, GRACE, MVGRL, CCA-SSG.

Each class implements the method's *defining* objective on this repo's
substrate (see DESIGN.md for the substitution argument):

* DGI      — node-vs-graph-summary mutual information with feature-shuffle
             corruption (Velickovic et al., 2019).
* GRACE    — InfoNCE between two edge-dropped / feature-masked views
             (Zhu et al., 2020).
* MVGRL    — cross-view node-vs-summary MI between the adjacency view and a
             PPR-diffusion view (Hassani & Khasahmadi, 2020).
* CCA-SSG  — canonical-correlation objective: invariance + soft decorrelation
             of standardised view embeddings (Zhang et al., 2021).  Note its
             loss avoids the ``N x N`` similarity matrix, which is why it is
             the fastest method in the paper's Table 9.

Each class provides ``build``/``loss_step``/``embed`` and trains through
:meth:`repro.engine.Method.fit`.
"""

from __future__ import annotations


import numpy as np

from ..core.losses import info_nce
from ..engine import Method, TrainState
from ..gnn.encoder import GNNEncoder
from ..graph.augment import (
    diffusion_view,
    drop_edges,
    mask_feature_dimensions,
    shuffle_features,
)
from ..graph.data import Graph
from ..graph.sampling import neighbor_block_steps
from ..nn import Adam, MLP, Tensor, functional as F, no_grad
from ..nn.init import xavier_uniform
from ..nn.module import Module, Parameter
from ..registry import register_method


class _BilinearDiscriminator(Module):
    """DGI/MVGRL's bilinear critic ``sigma(h^T W s)``."""

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(xavier_uniform((dim, dim), rng))

    def forward(self, nodes: Tensor, summary: Tensor) -> Tensor:
        return (nodes @ self.weight) @ summary


@register_method(
    "DGI",
    tags=("contrastive",),
    order=100,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": p.epochs},
)
class DGI(Method):
    """Deep Graph Infomax."""

    name = "DGI"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 1,
        epochs: int = 150,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
        sampled_fanouts: tuple = (),
        sampled_batch_size: int = 512,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.sampled_fanouts = tuple(sampled_fanouts)
        self.sampled_batch_size = sampled_batch_size

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        encoder = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gcn",
            rng=rng,
        )
        discriminator = _BilinearDiscriminator(self.hidden_dim, rng)
        optimizer = Adam(
            encoder.parameters() + discriminator.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        return TrainState(
            modules={"encoder": encoder, "discriminator": discriminator},
            optimizer=optimizer,
            rng=rng,
        )

    def steps(self, state: TrainState, graph: Graph, epoch: int):
        if not self.sampled_fanouts:
            yield None
            return
        yield from neighbor_block_steps(
            state, graph, self.sampled_fanouts, self.sampled_batch_size, epoch
        )

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        discriminator = state.modules["discriminator"]
        if payload is not None:
            # Sampled block: the summary and the positive/negative logits
            # are restricted to the seed prefix — neighbour rows exist only
            # to give the seeds their full receptive field.
            block = payload
            seeds = block.seed_positions()
            positive = encoder(block.adjacency, Tensor(block.features))
            corrupted = encoder(
                block.adjacency,
                Tensor(shuffle_features(block.features, state.rng)),
            )
            pos_seed = positive[seeds]
            neg_seed = corrupted[seeds]
            summary = pos_seed.mean(axis=0).sigmoid()
            loss = F.binary_cross_entropy_with_logits(
                discriminator(pos_seed, summary), Tensor(np.ones(block.num_seeds))
            ) + F.binary_cross_entropy_with_logits(
                discriminator(neg_seed, summary), Tensor(np.zeros(block.num_seeds))
            )
            return loss, {}
        x = graph.features
        positive = encoder(graph.adjacency, Tensor(x))
        corrupted = encoder(graph.adjacency, Tensor(shuffle_features(x, state.rng)))
        summary = positive.mean(axis=0).sigmoid()
        pos_logits = discriminator(positive, summary)
        neg_logits = discriminator(corrupted, summary)
        loss = F.binary_cross_entropy_with_logits(
            pos_logits, Tensor(np.ones(graph.num_nodes))
        ) + F.binary_cross_entropy_with_logits(
            neg_logits, Tensor(np.zeros(graph.num_nodes))
        )
        return loss, {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()


@register_method(
    "GRACE",
    tags=("contrastive",),
    order=120,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": p.epochs},
)
class GRACE(Method):
    """GRACE: graph contrastive learning with two corrupted views."""

    name = "GRACE"

    def __init__(
        self,
        hidden_dim: int = 256,
        projector_dim: int = 64,
        num_layers: int = 2,
        epochs: int = 150,
        temperature: float = 0.5,
        edge_drop: tuple = (0.2, 0.4),
        feature_mask: tuple = (0.3, 0.4),
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-5,
        sampled_fanouts: tuple = (),
        sampled_batch_size: int = 512,
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
        self.sampled_fanouts = tuple(sampled_fanouts)
        self.sampled_batch_size = sampled_batch_size

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
        )

    def steps(self, state: TrainState, graph: Graph, epoch: int):
        if not self.sampled_fanouts:
            yield None
            return
        yield from neighbor_block_steps(
            state, graph, self.sampled_fanouts, self.sampled_batch_size, epoch
        )

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        projector = state.modules["projector"]
        rng = state.rng
        if payload is not None:
            # Sampled block: corrupt the block's adjacency/features and
            # contrast only the seed rows, so the InfoNCE similarity matrix
            # is (num_seeds)^2 instead of N^2.
            block = payload
            seeds = block.seed_positions()
            adj1 = drop_edges(block.adjacency, self.edge_drop[0], rng)
            adj2 = drop_edges(block.adjacency, self.edge_drop[1], rng)
            x1 = mask_feature_dimensions(block.features, self.feature_mask[0], rng)
            x2 = mask_feature_dimensions(block.features, self.feature_mask[1], rng)
            z1 = projector(encoder(adj1, Tensor(x1)))[seeds]
            z2 = projector(encoder(adj2, Tensor(x2)))[seeds]
            return info_nce(z1, z2, temperature=self.temperature), {}
        adj1 = drop_edges(graph.adjacency, self.edge_drop[0], rng)
        adj2 = drop_edges(graph.adjacency, self.edge_drop[1], rng)
        x1 = mask_feature_dimensions(graph.features, self.feature_mask[0], rng)
        x2 = mask_feature_dimensions(graph.features, self.feature_mask[1], rng)
        z1 = projector(encoder(adj1, Tensor(x1)))
        z2 = projector(encoder(adj2, Tensor(x2)))
        return info_nce(z1, z2, temperature=self.temperature), {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()


@register_method(
    "MVGRL",
    tags=("contrastive",),
    order=110,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": min(p.epochs, 100)},
)
class MVGRL(Method):
    """MVGRL: contrasting the adjacency view against a PPR diffusion view."""

    name = "MVGRL"

    def __init__(
        self,
        hidden_dim: int = 256,
        epochs: int = 120,
        diffusion_alpha: float = 0.2,
        diffusion_top_k: int = 32,
        learning_rate: float = 1e-3,
        max_nodes: int = 5000,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.epochs = epochs
        self.diffusion_alpha = diffusion_alpha
        self.diffusion_top_k = diffusion_top_k
        self.learning_rate = learning_rate
        # MVGRL's diffusion is dense; the paper reports OOM on Reddit and we
        # mirror that with an explicit size gate.
        self.max_nodes = max_nodes

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        if graph.num_nodes > self.max_nodes:
            raise MemoryError(
                f"MVGRL materialises a dense {graph.num_nodes}^2 diffusion matrix; "
                f"refusing above {self.max_nodes} nodes (the paper reports OOM on Reddit)"
            )
        encoder_a = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=1,
            conv_type="gcn",
            rng=rng,
        )
        encoder_d = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=1,
            conv_type="gcn",
            rng=rng,
        )
        discriminator = _BilinearDiscriminator(self.hidden_dim, rng)
        optimizer = Adam(
            encoder_a.parameters() + encoder_d.parameters() + discriminator.parameters(),
            lr=self.learning_rate,
            weight_decay=0.0,
        )
        state = TrainState(
            modules={
                "encoder_a": encoder_a,
                "encoder_d": encoder_d,
                "discriminator": discriminator,
            },
            optimizer=optimizer,
            rng=rng,
        )
        state.extras["diffusion"] = diffusion_view(
            graph, self.diffusion_alpha, self.diffusion_top_k
        )
        state.extras["ones"] = Tensor(np.ones(graph.num_nodes))
        state.extras["zeros"] = Tensor(np.zeros(graph.num_nodes))
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder_a = state.modules["encoder_a"]
        encoder_d = state.modules["encoder_d"]
        discriminator = state.modules["discriminator"]
        diffusion = state.extras["diffusion"]
        ones, zeros = state.extras["ones"], state.extras["zeros"]
        x = graph.features
        h_a = encoder_a(graph.adjacency, Tensor(x))
        h_d = encoder_d(diffusion, Tensor(x))
        corrupted = shuffle_features(x, state.rng)
        h_a_neg = encoder_a(graph.adjacency, Tensor(corrupted))
        h_d_neg = encoder_d(diffusion, Tensor(corrupted))
        summary_a = h_a.mean(axis=0).sigmoid()
        summary_d = h_d.mean(axis=0).sigmoid()
        # Cross-view MI: nodes of one view vs the summary of the other.
        loss = (
            F.binary_cross_entropy_with_logits(discriminator(h_a, summary_d), ones)
            + F.binary_cross_entropy_with_logits(discriminator(h_d, summary_a), ones)
            + F.binary_cross_entropy_with_logits(discriminator(h_a_neg, summary_d), zeros)
            + F.binary_cross_entropy_with_logits(discriminator(h_d_neg, summary_a), zeros)
        )
        return loss, {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder_a = state.modules["encoder_a"]
        encoder_d = state.modules["encoder_d"]
        diffusion = state.extras["diffusion"]
        encoder_a.eval()
        encoder_d.eval()
        with no_grad():
            x = graph.features
            return (
                encoder_a(graph.adjacency, Tensor(x)) + encoder_d(diffusion, Tensor(x))
            ).data.copy()


@register_method(
    "CCA-SSG",
    tags=("contrastive",),
    order=130,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": min(p.epochs, 60)},
)
class CCASSG(Method):
    """CCA-SSG: invariance plus decorrelation over standardised embeddings."""

    name = "CCA-SSG"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 2,
        epochs: int = 60,
        lam: float = 1e-3,
        edge_drop: float = 0.2,
        feature_mask: float = 0.2,
        learning_rate: float = 1e-3,
        weight_decay: float = 0.0,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.lam = lam
        self.edge_drop = edge_drop
        self.feature_mask = feature_mask
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay

    @staticmethod
    def _standardize(z: Tensor) -> Tensor:
        centered = z - z.mean(axis=0, keepdims=True)
        scale = (centered.var(axis=0, keepdims=True) + 1e-6) ** 0.5
        n = z.shape[0]
        return centered / (scale * float(np.sqrt(n)))

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        encoder = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gcn",
            rng=rng,
        )
        optimizer = Adam(
            encoder.parameters(), lr=self.learning_rate, weight_decay=self.weight_decay
        )
        state = TrainState(
            modules={"encoder": encoder},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["identity"] = Tensor(np.eye(self.hidden_dim))
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        identity = state.extras["identity"]
        rng = state.rng
        adj1 = drop_edges(graph.adjacency, self.edge_drop, rng)
        adj2 = drop_edges(graph.adjacency, self.edge_drop, rng)
        x1 = mask_feature_dimensions(graph.features, self.feature_mask, rng)
        x2 = mask_feature_dimensions(graph.features, self.feature_mask, rng)
        z1 = self._standardize(encoder(adj1, Tensor(x1)))
        z2 = self._standardize(encoder(adj2, Tensor(x2)))
        invariance = ((z1 - z2) ** 2).sum()
        c1 = z1.T @ z1 - identity
        c2 = z2.T @ z2 - identity
        decorrelation = (c1 * c1).sum() + (c2 * c2).sum()
        return invariance + decorrelation * self.lam, {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()
