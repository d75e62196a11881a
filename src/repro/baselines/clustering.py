"""Deep node-clustering baselines: GC-VGE, SCGC, GCC (Table 6 rows).

These methods bake a clustering objective into representation learning:

* GC-VGE — variational graph embedding with a DEC-style soft-assignment
  sharpening loss (Guo & Dai, 2022).
* SCGC   — simple contrastive graph clustering: MLP encoders over low-pass
  filtered features, two noise-perturbed views, alignment + neighbour
  contrast (Liu et al., 2023).
* GCC    — efficient graph convolution for joint representation learning and
  clustering: alternate k-means assignments with a least-squares projection
  toward centroids over smoothed features (Fettal et al., 2022).

GC-VGE and SCGC train through :class:`repro.engine.TrainLoop`; GCC is an
alternating k-means/least-squares solver with no gradient optimizer, so it
stays a plain iteration loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.base import Stopwatch
from ..core.losses import sample_nonedges
from ..engine import EmbeddingResult, Method, TrainState
from ..eval.clustering import KMeans
from ..gnn.encoder import GNNEncoder
from ..graph.data import Graph
from ..nn import Adam, Linear, MLP, Tensor, functional as F, no_grad
from ..obs.hooks import emit_epoch
from ..registry import register_method


def _smoothed_features(graph: Graph, power: int) -> np.ndarray:
    """Low-pass filtered features ``Â^k X`` (SCGC / GCC preprocessing)."""
    smoothed = graph.features
    operator = graph.normalized_adjacency()
    for _ in range(power):
        smoothed = operator @ smoothed
    return np.asarray(smoothed)


@register_method(
    "GC-VGE",
    tags=("clustering",),
    order=200,
    defaults=lambda p: {"epochs": p.epochs},
)
class GCVGE(Method):
    """GC-VGE: variational graph embedding with DEC-style cluster sharpening."""

    name = "GC-VGE"

    def __init__(
        self,
        num_clusters: Optional[int] = None,
        hidden_dim: int = 128,
        latent_dim: int = 64,
        epochs: int = 150,
        pretrain_epochs: int = 50,
        cluster_weight: float = 0.5,
        kl_weight: float = 1e-3,
        learning_rate: float = 1e-3,
    ) -> None:
        self.num_clusters = num_clusters
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.epochs = epochs
        self.pretrain_epochs = pretrain_epochs
        self.cluster_weight = cluster_weight
        self.kl_weight = kl_weight
        self.learning_rate = learning_rate

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        backbone = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=1,
            conv_type="gcn",
            rng=rng,
        )
        mu_head = Linear(self.hidden_dim, self.latent_dim, rng=rng)
        logvar_head = Linear(self.hidden_dim, self.latent_dim, rng=rng)
        optimizer = Adam(
            backbone.parameters() + mu_head.parameters() + logvar_head.parameters(),
            lr=self.learning_rate,
            weight_decay=1e-4,
        )
        state = TrainState(
            modules={
                "backbone": backbone,
                "mu_head": mu_head,
                "logvar_head": logvar_head,
            },
            optimizer=optimizer,
            rng=rng,
            telemetry_model=backbone,
        )
        state.extras["edges"] = graph.edges(directed=False)
        state.extras["centroids"] = None
        return state

    def _encode(self, state: TrainState, graph: Graph) -> tuple:
        h = F.relu(state.modules["backbone"](graph.adjacency, Tensor(graph.features)))
        mu = state.modules["mu_head"](h)
        logvar = state.modules["logvar_head"](h).clip(-6.0, 6.0)
        return mu, logvar

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        edges = state.extras["edges"]
        rng = state.rng
        k = self.num_clusters or (graph.num_classes if graph.labels is not None else 8)
        mu, logvar = self._encode(state, graph)
        noise = Tensor(rng.normal(size=(graph.num_nodes, self.latent_dim)))
        z = mu + (logvar * 0.5).exp() * noise

        negatives = sample_nonedges(graph.adjacency, len(edges), rng)
        pos_logits = (z[edges[:, 0]] * z[edges[:, 1]]).sum(axis=1)
        neg_logits = (z[negatives[:, 0]] * z[negatives[:, 1]]).sum(axis=1)
        loss = F.binary_cross_entropy_with_logits(
            pos_logits, Tensor(np.ones(len(edges)))
        ) + F.binary_cross_entropy_with_logits(
            neg_logits, Tensor(np.zeros(len(negatives)))
        )
        loss = loss + (((mu * mu) + logvar.exp() - logvar - 1.0) * 0.5).mean() * self.kl_weight

        if epoch == self.pretrain_epochs:
            with no_grad():
                state.extras["centroids"] = KMeans(k).fit(mu.data, rng).centroids
        centroids = state.extras["centroids"]
        if centroids is not None and epoch >= self.pretrain_epochs:
            # Student-t soft assignments sharpened toward their square
            # (the DEC target distribution).
            distance_sq = ((mu.data[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            q = 1.0 / (1.0 + distance_sq)
            q /= q.sum(axis=1, keepdims=True)
            p = q ** 2 / q.sum(axis=0, keepdims=True)
            p /= p.sum(axis=1, keepdims=True)
            # KL(p || q(mu)), differentiable through mu.
            diff = mu.reshape(graph.num_nodes, 1, self.latent_dim) - Tensor(centroids[None])
            q_t = 1.0 / ((diff * diff).sum(axis=2) + 1.0)
            q_t = q_t / q_t.sum(axis=1, keepdims=True)
            cluster_loss = (Tensor(p) * (Tensor(np.log(p + 1e-12)) - q_t.log())).sum(axis=1).mean()
            loss = loss + cluster_loss * self.cluster_weight
        return loss, {}

    def extra_state(self, state: TrainState) -> dict:
        centroids = state.extras.get("centroids")
        return {"centroids": centroids.tolist() if centroids is not None else None}

    def load_extra_state(self, state: TrainState, payload: dict) -> None:
        centroids = payload.get("centroids")
        state.extras["centroids"] = (
            np.asarray(centroids) if centroids is not None else None
        )

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        state.modules["backbone"].eval()
        with no_grad():
            mu, _ = self._encode(state, graph)
        return mu.data.copy()


@register_method(
    "SCGC",
    tags=("clustering",),
    order=210,
    defaults=lambda p: {"epochs": p.epochs},
)
class SCGC(Method):
    """SCGC: contrastive clustering over low-pass filtered features."""

    name = "SCGC"

    def __init__(
        self,
        hidden_dim: int = 128,
        filter_power: int = 3,
        noise_scale: float = 0.01,
        epochs: int = 150,
        learning_rate: float = 1e-3,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.filter_power = filter_power
        self.noise_scale = noise_scale
        self.epochs = epochs
        self.learning_rate = learning_rate

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        smoothed = _smoothed_features(graph, self.filter_power)
        encoder_a = MLP(graph.num_features, [self.hidden_dim], self.hidden_dim, rng=rng)
        encoder_b = MLP(graph.num_features, [self.hidden_dim], self.hidden_dim, rng=rng)
        optimizer = Adam(
            encoder_a.parameters() + encoder_b.parameters(),
            lr=self.learning_rate,
            weight_decay=1e-4,
        )
        state = TrainState(
            modules={"encoder_a": encoder_a, "encoder_b": encoder_b},
            optimizer=optimizer,
            rng=rng,
        )
        state.extras["smoothed"] = smoothed
        state.extras["edges"] = graph.edges(directed=False)
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder_a = state.modules["encoder_a"]
        encoder_b = state.modules["encoder_b"]
        smoothed = state.extras["smoothed"]
        edges = state.extras["edges"]
        rng = state.rng
        z1 = F.l2_normalize(encoder_a(Tensor(
            smoothed + rng.normal(scale=self.noise_scale, size=smoothed.shape)
        )))
        z2 = F.l2_normalize(encoder_b(Tensor(
            smoothed + rng.normal(scale=self.noise_scale, size=smoothed.shape)
        )))
        alignment = ((z1 - z2) ** 2).sum(axis=1).mean()
        # Neighbour contrast: adjacent nodes should agree across views.
        neighbor = -(z1[edges[:, 0]] * z2[edges[:, 1]]).sum(axis=1).mean()
        negatives = sample_nonedges(graph.adjacency, len(edges), rng)
        separation = (z1[negatives[:, 0]] * z2[negatives[:, 1]]).sum(axis=1).mean()
        loss = alignment + neighbor + separation
        return loss, {
            "alignment": alignment.item(),
            "neighbor": neighbor.item(),
            "separation": separation.item(),
        }

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder_a = state.modules["encoder_a"]
        encoder_b = state.modules["encoder_b"]
        smoothed = state.extras["smoothed"]
        with no_grad():
            embeddings = (
                F.l2_normalize(encoder_a(Tensor(smoothed)))
                + F.l2_normalize(encoder_b(Tensor(smoothed)))
            ).data / 2.0
        return embeddings.copy()


@register_method("GCC", tags=("clustering",), order=220)
class GCC:
    """GCC: alternate k-means with a least-squares projection to centroids."""

    name = "GCC"

    def __init__(
        self,
        num_clusters: Optional[int] = None,
        embed_dim: int = 64,
        filter_power: int = 3,
        iterations: int = 10,
        ridge: float = 1e-2,
    ) -> None:
        self.num_clusters = num_clusters
        self.embed_dim = embed_dim
        self.filter_power = filter_power
        self.iterations = iterations
        self.ridge = ridge

    def fit(self, graph: Graph, seed: int = 0) -> EmbeddingResult:
        rng = np.random.default_rng(seed)
        k = self.num_clusters or (graph.num_classes if graph.labels is not None else 8)
        smoothed = _smoothed_features(graph, self.filter_power)
        # Dimensionality reduction via ridge-regularised PCA of smoothed X.
        centered = smoothed - smoothed.mean(axis=0, keepdims=True)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        projection = vt[: self.embed_dim].T
        embeddings = centered @ projection

        losses = []
        with Stopwatch() as timer:
            assignments = KMeans(k).fit(embeddings, rng).assignments
            for iteration in range(self.iterations):
                centroids = np.stack([
                    embeddings[assignments == c].mean(axis=0)
                    if np.any(assignments == c)
                    else embeddings[rng.integers(len(embeddings))]
                    for c in range(k)
                ])
                targets = centroids[assignments]
                # Least-squares refit of the projection toward cluster centroids.
                gram = centered.T @ centered + self.ridge * np.eye(centered.shape[1])
                projection = np.linalg.solve(gram, centered.T @ targets @ np.linalg.pinv(
                    np.eye(self.embed_dim)
                ))
                embeddings = centered @ projection
                distances = ((embeddings[:, None, :] - centroids[None]) ** 2).sum(axis=2)
                assignments = distances.argmin(axis=1)
                losses.append(float(distances.min(axis=1).mean()))
                emit_epoch(self.name, iteration, losses[-1])
        return EmbeddingResult(embeddings.copy(), timer.seconds, losses)
