"""Masked-autoencoder baselines: GraphMAE, MaskGAE, S2GAE, SeeGera.

* GraphMAE — feature masking + GAT encoder/decoder + re-mask + SCE loss
  (Hou et al., 2022).  GAT is why it is the slowest method in Table 9; its
  feature-only objective is why it collapses on link prediction in Table 5.
* MaskGAE  — *edge* masking: encode the visible graph, score masked edges
  against sampled non-edges with an MLP decoder, plus a degree-regression
  auxiliary head (Li et al., 2022).  The strongest baseline on link tasks.
* S2GAE    — edge masking with a cross-correlation decoder over the
  representations of *all* encoder layers (Tan et al., 2023).
* SeeGera  — variational autoencoder reconstructing links *and* features
  with structure/feature masking (Li et al., 2023).

All four train through :class:`repro.engine.TrainLoop`; S2GAE's
graph-level protocol uses a private method adapter so the class can serve
both the node- and graph-level tables.
"""

from __future__ import annotations


import numpy as np
import scipy.sparse as sp

from ..core.losses import sample_nonedges, sce_loss
from ..engine import EmbeddingResult, Method, TrainState
from ..gnn.conv import GATConv
from ..gnn.encoder import GNNEncoder
from ..graph.augment import mask_node_features
from ..graph.data import Graph
from ..graph.sparse import adjacency_from_edges
from ..nn import Adam, Linear, MLP, Tensor, concatenate, functional as F, no_grad
from ..registry import register_method


@register_method(
    "GraphMAE",
    tags=("mae",),
    order=140,
    # GraphMAE's published protocol trains far longer than the others (1500
    # epochs on Cora); with its full-graph GAT encoder this is what makes it
    # the slowest method in Table 9.
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": max(3 * p.epochs, 180)},
)
class GraphMAE(Method):
    """GraphMAE: masked feature reconstruction with a GAT backbone."""

    name = "GraphMAE"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 2,
        heads: int = 4,
        mask_rate: float = 0.5,
        gamma: float = 2.0,
        epochs: int = 200,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
        conv_type: str = "gat",
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.heads = heads
        self.mask_rate = mask_rate
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
            heads=self.heads,
            activation="elu",
            rng=rng,
        )
        if self.conv_type == "gat":
            decoder = GATConv(
                self.hidden_dim, graph.num_features, heads=1, concat=False, rng=rng
            )
        else:
            from ..gnn.encoder import _build_conv
            decoder = _build_conv(
                self.conv_type, self.hidden_dim, graph.num_features, rng, final=True
            )
        optimizer = Adam(
            encoder.parameters() + decoder.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={"encoder": encoder, "decoder": decoder},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["decoder_operand"] = (
            graph.adjacency if self.conv_type in ("gat", "gin")
            else encoder.structure(graph.adjacency)
        )
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        decoder = state.modules["decoder"]
        masked = mask_node_features(graph.features, self.mask_rate, state.rng)
        h = encoder(graph.adjacency, Tensor(masked.features))
        keep = np.ones((graph.num_nodes, 1))
        keep[masked.masked_nodes] = 0.0  # GraphMAE's re-mask
        z = decoder(state.extras["decoder_operand"], h * Tensor(keep))
        loss = sce_loss(z, Tensor(graph.features), masked.masked_nodes, self.gamma)
        return loss, {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()


def _degree_targets(adjacency: sp.csr_matrix) -> np.ndarray:
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    return np.log1p(degrees)


@register_method(
    "MaskGAE",
    tags=("mae",),
    order=170,
    # MaskGAE's edge objective converges slowly (it sees a masked graph each
    # step); it needs the longer budget to reach its Table 5 form.
    defaults=lambda p: {
        "hidden_dim": p.hidden_dim,
        "epochs": max(2 * p.epochs, 160),
        "edge_mask_rate": 0.5,
    },
)
class MaskGAE(Method):
    """MaskGAE: masked-edge reconstruction plus degree regression."""

    name = "MaskGAE"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 2,
        edge_mask_rate: float = 0.7,
        epochs: int = 150,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
        degree_weight: float = 0.2,
        conv_type: str = "gcn",
    ) -> None:
        self.conv_type = conv_type
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.edge_mask_rate = edge_mask_rate
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.degree_weight = degree_weight

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        encoder = GNNEncoder(
            graph.num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type=self.conv_type,
            rng=rng,
        )
        edge_decoder = MLP(self.hidden_dim, [self.hidden_dim], 1, rng=rng)
        degree_head = Linear(self.hidden_dim, 1, rng=rng)
        optimizer = Adam(
            encoder.parameters() + edge_decoder.parameters() + degree_head.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={
                "encoder": encoder,
                "edge_decoder": edge_decoder,
                "degree_head": degree_head,
            },
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["edges"] = graph.edges(directed=False)
        state.extras["degree_target"] = Tensor(_degree_targets(graph.adjacency)[:, None])
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        encoder = state.modules["encoder"]
        edge_decoder = state.modules["edge_decoder"]
        degree_head = state.modules["degree_head"]
        edges = state.extras["edges"]
        rng = state.rng
        mask = rng.random(len(edges)) < self.edge_mask_rate
        if not mask.any():
            mask[rng.integers(len(edges))] = True
        masked_edges = edges[mask]
        visible = adjacency_from_edges(edges[~mask], graph.num_nodes) \
            if (~mask).any() else sp.csr_matrix((graph.num_nodes, graph.num_nodes))
        h = encoder(visible, Tensor(graph.features))

        negatives = sample_nonedges(graph.adjacency, len(masked_edges), rng)
        pos_logits = edge_decoder(h[masked_edges[:, 0]] * h[masked_edges[:, 1]])
        neg_logits = edge_decoder(h[negatives[:, 0]] * h[negatives[:, 1]])
        reconstruction = F.binary_cross_entropy_with_logits(
            pos_logits, Tensor(np.ones((len(masked_edges), 1)))
        ) + F.binary_cross_entropy_with_logits(
            neg_logits, Tensor(np.zeros((len(negatives), 1)))
        )
        degree_loss = F.mse_loss(degree_head(h), state.extras["degree_target"])
        loss = reconstruction + degree_loss * self.degree_weight
        return loss, {
            "reconstruction": reconstruction.item(),
            "degree": degree_loss.item(),
        }

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            return encoder(graph.adjacency, Tensor(graph.features)).data.copy()


@register_method(
    "S2GAE",
    tags=("mae",),
    order=160,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": max(p.epochs, 100)},
)
@register_method(
    "S2GAE",
    protocol="graph",
    tags=("mae",),
    order=360,
    defaults=lambda p: {"hidden_dim": 64, "epochs": p.graph_epochs},
)
class S2GAE(Method):
    """S2GAE: masked-edge prediction from cross-correlated layer outputs."""

    name = "S2GAE"

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 2,
        edge_mask_rate: float = 0.5,
        epochs: int = 150,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
        batch_size: int | None = None,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.edge_mask_rate = edge_mask_rate
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        # Graph-level protocol only: graphs per block-diagonal training batch
        # (None = whole dataset in one batch).
        self.batch_size = batch_size

    def _build_modules(self, num_features: int, rng: np.random.Generator):
        encoder = GNNEncoder(
            num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gcn",
            rng=rng,
        )
        # Cross-correlation decoder: concatenated per-layer Hadamard products.
        decoder = MLP(
            self.hidden_dim * self.num_layers, [self.hidden_dim], 1, rng=rng
        )
        optimizer = Adam(
            encoder.parameters() + decoder.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        return encoder, decoder, optimizer

    @staticmethod
    def _edge_scores(decoder, layer_outputs, pairs):
        crossed = [h[pairs[:, 0]] * h[pairs[:, 1]] for h in layer_outputs]
        return decoder(concatenate(crossed, axis=1))

    def _masked_edge_loss(self, state: TrainState, edges, adjacency, features, num_nodes):
        encoder = state.modules["encoder"]
        decoder = state.modules["decoder"]
        rng = state.rng
        mask = rng.random(len(edges)) < self.edge_mask_rate
        if not mask.any():
            mask[rng.integers(len(edges))] = True
        masked_edges = edges[mask]
        visible = adjacency_from_edges(edges[~mask], num_nodes) \
            if (~mask).any() else sp.csr_matrix((num_nodes, num_nodes))
        layer_outputs = encoder.layer_outputs(visible, Tensor(features))
        negatives = sample_nonedges(adjacency, len(masked_edges), rng)
        return F.binary_cross_entropy_with_logits(
            self._edge_scores(decoder, layer_outputs, masked_edges),
            Tensor(np.ones((len(masked_edges), 1))),
        ) + F.binary_cross_entropy_with_logits(
            self._edge_scores(decoder, layer_outputs, negatives),
            Tensor(np.zeros((len(negatives), 1))),
        )

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        encoder, decoder, optimizer = self._build_modules(graph.num_features, rng)
        state = TrainState(
            modules={"encoder": encoder, "decoder": decoder},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["edges"] = graph.edges(directed=False)
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        loss = self._masked_edge_loss(
            state,
            state.extras["edges"],
            graph.adjacency,
            graph.features,
            graph.num_nodes,
        )
        return loss, {}

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        with no_grad():
            layer_outputs = encoder.layer_outputs(graph.adjacency, Tensor(graph.features))
            return np.concatenate([h.data for h in layer_outputs], axis=1)

    def fit_graphs(self, dataset, seed: int = 0) -> EmbeddingResult:
        """Graph-level protocol (Table 7): masked-edge pretraining over
        block-diagonal mini-batches, then mean/max pooling per graph."""
        return _S2GAEGraphsMethod(self).fit(dataset, seed=seed)


class _S2GAEGraphsMethod(Method):
    """S2GAE over block-diagonal graph mini-batches (Table 7)."""

    name = "S2GAE"

    def __init__(self, owner: S2GAE) -> None:
        self.owner = owner
        self.epochs = owner.epochs

    def build(self, dataset, rng: np.random.Generator) -> TrainState:
        from ..graph.batch import BatchLoader

        owner = self.owner
        loader = BatchLoader(dataset, batch_size=owner.batch_size)
        encoder, decoder, optimizer = owner._build_modules(
            dataset.graphs[0].num_features, rng
        )
        state = TrainState(
            modules={"encoder": encoder, "decoder": decoder},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["loader"] = loader
        # Edge lists depend only on the fixed batch structure; extract once.
        state.extras["batch_edges"] = {
            id(b): b.as_graph().edges(directed=False) for b in loader
        }
        return state

    def steps(self, state: TrainState, dataset, epoch: int):
        batch_edges = state.extras["batch_edges"]
        for batch in state.extras["loader"].epoch(state.rng):
            if len(batch_edges[id(batch)]) == 0:
                continue  # zero-edge batches contribute no step
            yield batch

    def loss_step(self, state: TrainState, dataset, epoch: int, batch):
        edges = state.extras["batch_edges"][id(batch)]
        loss = self.owner._masked_edge_loss(
            state, edges, batch.adjacency, batch.features, batch.num_nodes
        )
        return loss, {}

    def embed(self, state: TrainState, dataset) -> np.ndarray:
        from ..gnn.readout import batch_readout

        encoder = state.modules["encoder"]
        encoder.eval()
        outputs = []
        with no_grad():
            for batch in state.extras["loader"]:  # dataset order: rows line up with labels
                layer_outputs = encoder.layer_outputs(batch.adjacency, Tensor(batch.features))
                stacked = concatenate(layer_outputs, axis=1)
                outputs.append(batch_readout(stacked, batch, mode="meanmax").data)
        return np.concatenate(outputs, axis=0)


@register_method(
    "SeeGera",
    tags=("mae",),
    order=150,
    defaults=lambda p: {"hidden_dim": p.hidden_dim, "epochs": max(p.epochs, 100)},
)
class SeeGera(Method):
    """SeeGera-style variational AE over links and features, with masking."""

    name = "SeeGera"

    def __init__(
        self,
        hidden_dim: int = 256,
        latent_dim: int = 128,
        epochs: int = 150,
        feature_mask_rate: float = 0.3,
        edge_mask_rate: float = 0.3,
        kl_weight: float = 1e-3,
        feature_weight: float = 1.0,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.latent_dim = latent_dim
        self.epochs = epochs
        self.feature_mask_rate = feature_mask_rate
        self.edge_mask_rate = edge_mask_rate
        self.kl_weight = kl_weight
        self.feature_weight = feature_weight
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay

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
        feature_decoder = MLP(self.latent_dim, [self.hidden_dim], graph.num_features, rng=rng)
        optimizer = Adam(
            backbone.parameters()
            + mu_head.parameters()
            + logvar_head.parameters()
            + feature_decoder.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={
                "backbone": backbone,
                "mu_head": mu_head,
                "logvar_head": logvar_head,
                "feature_decoder": feature_decoder,
            },
            optimizer=optimizer,
            rng=rng,
            telemetry_model=backbone,
        )
        state.extras["edges"] = graph.edges(directed=False)
        return state

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        from ..graph.augment import drop_edges

        backbone = state.modules["backbone"]
        mu_head = state.modules["mu_head"]
        logvar_head = state.modules["logvar_head"]
        feature_decoder = state.modules["feature_decoder"]
        edges = state.extras["edges"]
        rng = state.rng
        masked = mask_node_features(graph.features, self.feature_mask_rate, rng)
        visible_adj = drop_edges(graph.adjacency, self.edge_mask_rate, rng)
        h = F.relu(backbone(visible_adj, Tensor(masked.features)))
        mu = mu_head(h)
        logvar = logvar_head(h).clip(-6.0, 6.0)
        noise = Tensor(rng.normal(size=(graph.num_nodes, self.latent_dim)))
        z = mu + (logvar * 0.5).exp() * noise

        negatives = sample_nonedges(graph.adjacency, len(edges), rng)
        pos_logits = (z[edges[:, 0]] * z[edges[:, 1]]).sum(axis=1)
        neg_logits = (z[negatives[:, 0]] * z[negatives[:, 1]]).sum(axis=1)
        link_loss = F.binary_cross_entropy_with_logits(
            pos_logits, Tensor(np.ones(len(edges)))
        ) + F.binary_cross_entropy_with_logits(
            neg_logits, Tensor(np.zeros(len(negatives)))
        )
        feature_loss = sce_loss(
            feature_decoder(z),
            Tensor(graph.features),
            np.arange(graph.num_nodes),
            gamma=1.0,
        )
        kl = (((mu * mu) + logvar.exp() - logvar - 1.0) * 0.5).mean()
        loss = link_loss + feature_loss * self.feature_weight + kl * self.kl_weight
        return loss, {
            "link": link_loss.item(),
            "feature": feature_loss.item(),
            "kl": kl.item(),
        }

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        backbone = state.modules["backbone"]
        mu_head = state.modules["mu_head"]
        backbone.eval()
        with no_grad():
            h = F.relu(backbone(graph.adjacency, Tensor(graph.features)))
            return mu_head(h).data.copy()
