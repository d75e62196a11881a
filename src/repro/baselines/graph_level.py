"""Graph-level contrastive baselines: InfoGraph, GraphCL, JOAO, InfoGCL.

All four operate on a :class:`~repro.graph.data.GraphDataset` and return one
embedding per graph (Table 7 protocol).

* InfoGraph — maximise MI between node embeddings and their own graph's
  summary against other graphs' summaries (Sun et al., 2019).
* GraphCL   — NT-Xent between two augmented copies of every graph in the
  batch (You et al., 2020); augmentations are node dropping / edge dropping /
  feature masking / subgraph sampling, the paper's four.
* JOAO      — GraphCL with joint augmentation optimisation: a distribution
  over augmentation pairs is reweighted toward the currently *hardest* pair
  (You et al., 2021).
* InfoGCL   — information-aware contrastive learning; here: the two views
  are chosen each epoch to be the pair with the *lowest* augmentation
  distortion that still separates graphs, approximated by contrasting an
  anchor (unaugmented) encoding with a light augmentation (Xu et al., 2021).

All train through :class:`repro.engine.TrainLoop`; per-epoch augmentation
choices happen in ``begin_epoch`` (before the loader permutation draw, as
the original loops ordered it) and the JOAO/InfoGCL hardness updates ride
``end_epoch``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..engine import EmbeddingResult, Method, TrainState
from ..gnn.encoder import GNNEncoder
from ..gnn.readout import batch_readout
from ..graph.augment import (
    drop_edges,
    drop_nodes,
    mask_feature_dimensions,
    random_subgraph_nodes,
)
from ..graph.batch import BatchLoader, GraphBatch
from ..graph.data import GraphDataset
from ..nn import Adam, MLP, Tensor, functional as F, no_grad
from ..nn.init import xavier_uniform
from ..nn.module import Module, Parameter
from ..registry import register_method


def _nt_xent(a: Tensor, b: Tensor, temperature: float) -> Tensor:
    """NT-Xent over aligned graph embeddings (positives on the diagonal)."""
    n = a.shape[0]
    logits = F.cosine_similarity_matrix(a, b) * (1.0 / temperature)
    labels = np.arange(n)
    return (F.cross_entropy(logits, labels) + F.cross_entropy(logits.T, labels)) * 0.5


AUGMENTATIONS = ("node_drop", "edge_drop", "feature_mask", "subgraph")


def _augment_batch(
    batch: GraphBatch,
    kind: str,
    strength: float,
    rng: np.random.Generator,
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Apply one GraphCL augmentation to a block-diagonal batch."""
    if kind == "node_drop":
        adjacency, dropped = drop_nodes(batch.adjacency, strength, rng)
        features = batch.features.copy()
        features[dropped] = 0.0
        return adjacency, features
    if kind == "edge_drop":
        return drop_edges(batch.adjacency, strength, rng), batch.features
    if kind == "feature_mask":
        return batch.adjacency, mask_feature_dimensions(batch.features, strength, rng)
    if kind == "subgraph":
        # Keep a random (1 - strength) fraction of nodes; zero the rest.
        keep_count = max(1, int(round(batch.num_nodes * (1.0 - strength))))
        kept = random_subgraph_nodes(batch.num_nodes, keep_count, rng)
        mask = np.zeros(batch.num_nodes, dtype=bool)
        mask[kept] = True
        scale = sp.diags(mask.astype(float))
        features = batch.features.copy()
        features[~mask] = 0.0
        from ..graph.sparse import to_csr
        return to_csr(scale @ batch.adjacency @ scale), features
    raise ValueError(f"unknown augmentation {kind!r}; use one of {AUGMENTATIONS}")


class _GraphContrastiveBase(Method):
    """Shared machinery: GIN encoder + readout + projector + engine loop.

    All subclasses train on block-diagonal mini-batches of graphs: the
    dataset is partitioned once into reusable :class:`GraphBatch` objects
    (``batch_size`` graphs each; ``None`` puts the whole dataset in one
    batch, the classic full-batch protocol) and each training step encodes
    one whole batch through a single fused sparse forward.  Reusing the
    same batch objects every epoch keeps their normalised operands and
    transposes warm in the derived-matrix cache.
    """

    def __init__(
        self,
        hidden_dim: int = 64,
        num_layers: int = 2,
        epochs: int = 60,
        temperature: float = 0.5,
        learning_rate: float = 1e-3,
        weight_decay: float = 1e-4,
        readout: str = "sum",
        batch_size: Optional[int] = None,
    ) -> None:
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.temperature = temperature
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.readout = readout
        self.batch_size = batch_size

    def _loader(self, dataset: GraphDataset) -> BatchLoader:
        return BatchLoader(dataset, batch_size=self.batch_size)

    def _build(self, num_features: int, rng: np.random.Generator):
        encoder = GNNEncoder(
            num_features,
            self.hidden_dim,
            self.hidden_dim,
            num_layers=self.num_layers,
            conv_type="gin",
            rng=rng,
        )
        projector = MLP(self.hidden_dim, [self.hidden_dim], self.hidden_dim, rng=rng)
        return encoder, projector

    def steps(self, state: TrainState, dataset: GraphDataset, epoch: int):
        yield from state.extras["loader"].epoch(state.rng)

    def embed(self, state: TrainState, dataset: GraphDataset) -> np.ndarray:
        encoder = state.modules["encoder"]
        encoder.eval()
        outputs = []
        with no_grad():
            for batch in state.extras["loader"]:  # dataset order: rows line up with labels
                nodes = encoder.forward_batch(batch)
                outputs.append(batch_readout(nodes, batch, self.readout).data)
        return np.concatenate(outputs, axis=0)


@register_method(
    "GraphCL",
    protocol="graph",
    tags=("contrastive",),
    order=310,
    defaults=lambda p: {"epochs": p.graph_epochs},
)
class GraphCL(_GraphContrastiveBase):
    """GraphCL with uniformly sampled augmentation pairs."""

    name = "GraphCL"

    def __init__(self, augmentation_strength: float = 0.2, **kwargs) -> None:
        super().__init__(**kwargs)
        self.augmentation_strength = augmentation_strength

    def _choose_pair(self, rng: np.random.Generator, epoch: int) -> Tuple[str, str]:
        return tuple(rng.choice(AUGMENTATIONS, size=2, replace=True))

    def _after_epoch(self, pair: Tuple[str, str], loss: float) -> None:
        """Hook for JOAO's augmentation-distribution update."""

    def build(self, dataset: GraphDataset, rng: np.random.Generator) -> TrainState:
        loader = self._loader(dataset)
        encoder, projector = self._build(dataset.graphs[0].num_features, rng)
        optimizer = Adam(
            encoder.parameters() + projector.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={"encoder": encoder, "projector": projector},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["loader"] = loader
        return state

    def begin_epoch(self, state: TrainState, dataset: GraphDataset, epoch: int) -> None:
        super().begin_epoch(state, dataset, epoch)
        # Pair choice draws from the rng *before* the loader permutation.
        state.extras["pair"] = self._choose_pair(state.rng, epoch)

    def loss_step(self, state: TrainState, dataset: GraphDataset, epoch: int, batch):
        encoder = state.modules["encoder"]
        projector = state.modules["projector"]
        pair = state.extras["pair"]
        rng = state.rng
        adj1, x1 = _augment_batch(batch, pair[0], self.augmentation_strength, rng)
        adj2, x2 = _augment_batch(batch, pair[1], self.augmentation_strength, rng)
        g1 = batch_readout(encoder(adj1, Tensor(x1)), batch, self.readout)
        g2 = batch_readout(encoder(adj2, Tensor(x2)), batch, self.readout)
        return _nt_xent(projector(g1), projector(g2), self.temperature), {}

    def end_epoch(
        self, state: TrainState, dataset: GraphDataset, epoch: int, epoch_loss: float
    ) -> None:
        self._after_epoch(state.extras["pair"], epoch_loss)


@register_method(
    "JOAO",
    protocol="graph",
    tags=("contrastive",),
    order=320,
    defaults=lambda p: {"epochs": p.graph_epochs},
)
class JOAO(GraphCL):
    """JOAO: GraphCL whose augmentation-pair distribution tracks hardness."""

    name = "JOAO"

    def __init__(self, joint_gamma: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        self.joint_gamma = joint_gamma
        self._pair_losses: Dict[Tuple[str, str], float] = {}

    def build(self, dataset: GraphDataset, rng: np.random.Generator) -> TrainState:
        # Every run starts with no pair history; a resume restores it after
        # build, through load_extra_state.
        self._pair_losses = {}
        return super().build(dataset, rng)

    def _choose_pair(self, rng: np.random.Generator, epoch: int) -> Tuple[str, str]:
        if not self._pair_losses or rng.random() < 0.3:  # keep exploring
            return tuple(rng.choice(AUGMENTATIONS, size=2, replace=True))
        pairs = list(self._pair_losses)
        weights = np.array([self._pair_losses[p] for p in pairs])
        weights = np.exp(weights / max(self.joint_gamma, 1e-6))
        weights /= weights.sum()
        return pairs[rng.choice(len(pairs), p=weights)]

    def _after_epoch(self, pair: Tuple[str, str], loss: float) -> None:
        previous = self._pair_losses.get(pair, loss)
        self._pair_losses[pair] = 0.7 * previous + 0.3 * loss

    def extra_state(self, state: TrainState) -> dict:
        return {
            "pair_losses": {"|".join(pair): loss for pair, loss in self._pair_losses.items()}
        }

    def load_extra_state(self, state: TrainState, payload: dict) -> None:
        self._pair_losses = {
            tuple(key.split("|")): loss
            for key, loss in payload.get("pair_losses", {}).items()
        }


@register_method(
    "Infograph",
    protocol="graph",
    tags=("contrastive",),
    order=300,
    defaults=lambda p: {"epochs": p.graph_epochs},
)
class InfoGraph(_GraphContrastiveBase):
    """InfoGraph: node-vs-graph-summary mutual information across the batch."""

    name = "Infograph"

    class _Critic(Module):
        def __init__(self, dim: int, rng: np.random.Generator) -> None:
            super().__init__()
            self.weight = Parameter(xavier_uniform((dim, dim), rng))

        def forward(self, nodes: Tensor, graphs: Tensor) -> Tensor:
            return (nodes @ self.weight) @ graphs.T  # (num_nodes, num_graphs)

    @staticmethod
    def _ownership_targets(batch: GraphBatch) -> Tensor:
        """(num_nodes, num_graphs) indicator of each node's own graph."""
        own_graph = np.zeros((batch.num_nodes, batch.num_graphs))
        own_graph[np.arange(batch.num_nodes), batch.node_to_graph] = 1.0
        return Tensor(own_graph)

    def build(self, dataset: GraphDataset, rng: np.random.Generator) -> TrainState:
        loader = self._loader(dataset)
        # _build also constructs (and discards) the projector so the weight
        # init stream matches the other graph-level baselines.
        encoder, _ = self._build(dataset.graphs[0].num_features, rng)
        critic = self._Critic(self.hidden_dim, rng)
        optimizer = Adam(
            encoder.parameters() + critic.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={"encoder": encoder, "critic": critic},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["loader"] = loader
        # The MI targets depend only on the fixed batch structure: build
        # them once per batch and reuse them every epoch.
        state.extras["targets"] = {
            id(batch): self._ownership_targets(batch) for batch in loader
        }
        return state

    def loss_step(self, state: TrainState, dataset: GraphDataset, epoch: int, batch):
        encoder = state.modules["encoder"]
        critic = state.modules["critic"]
        nodes = encoder.forward_batch(batch)
        graphs = batch_readout(nodes, batch, self.readout)
        logits = critic(nodes, graphs)
        loss = F.binary_cross_entropy_with_logits(
            logits, state.extras["targets"][id(batch)]
        )
        return loss, {}


@register_method(
    "InfoGCL",
    protocol="graph",
    tags=("contrastive",),
    order=340,
    defaults=lambda p: {"epochs": p.graph_epochs},
)
class InfoGCL(_GraphContrastiveBase):
    """InfoGCL-style anchor-vs-light-augmentation contrast.

    InfoGCL argues the best views minimise superfluous information; we
    approximate its view selection by contrasting the unaugmented anchor
    encoding against the mildest augmentation, rotating through the
    candidate set and keeping the view with the lowest running loss.
    """

    name = "InfoGCL"

    def __init__(self, augmentation_strength: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        self.augmentation_strength = augmentation_strength
        self._view_losses: Dict[str, float] = {}

    def _choose_view(self, rng: np.random.Generator, epoch: int) -> str:
        if epoch < len(AUGMENTATIONS) * 2:  # initial round-robin exploration
            return AUGMENTATIONS[epoch % len(AUGMENTATIONS)]
        return min(self._view_losses, key=self._view_losses.get)

    def build(self, dataset: GraphDataset, rng: np.random.Generator) -> TrainState:
        # Every run starts with no view history; a resume restores it after
        # build, through load_extra_state.
        self._view_losses = {}
        loader = self._loader(dataset)
        encoder, projector = self._build(dataset.graphs[0].num_features, rng)
        optimizer = Adam(
            encoder.parameters() + projector.parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        state = TrainState(
            modules={"encoder": encoder, "projector": projector},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=encoder,
        )
        state.extras["loader"] = loader
        return state

    def begin_epoch(self, state: TrainState, dataset: GraphDataset, epoch: int) -> None:
        super().begin_epoch(state, dataset, epoch)
        state.extras["view"] = self._choose_view(state.rng, epoch)

    def loss_step(self, state: TrainState, dataset: GraphDataset, epoch: int, batch):
        encoder = state.modules["encoder"]
        projector = state.modules["projector"]
        view = state.extras["view"]
        adj2, x2 = _augment_batch(batch, view, self.augmentation_strength, state.rng)
        g1 = batch_readout(encoder.forward_batch(batch), batch, self.readout)
        g2 = batch_readout(encoder(adj2, Tensor(x2)), batch, self.readout)
        return _nt_xent(projector(g1), projector(g2), self.temperature), {}

    def end_epoch(
        self, state: TrainState, dataset: GraphDataset, epoch: int, epoch_loss: float
    ) -> None:
        view = state.extras["view"]
        previous = self._view_losses.get(view, epoch_loss)
        self._view_losses[view] = 0.7 * previous + 0.3 * epoch_loss

    def extra_state(self, state: TrainState) -> dict:
        return {"view_losses": dict(self._view_losses)}

    def load_extra_state(self, state: TrainState, payload: dict) -> None:
        self._view_losses = dict(payload.get("view_losses", {}))


class GraphLevelWrapper:
    """Adapt a node-level SSL method to the graph-level protocol.

    Used for MVGRL's and GraphMAE's Table 7 rows: pretrain the node method on
    the block-diagonal batch and mean/max-pool node embeddings per graph.
    """

    def __init__(self, node_method, name: Optional[str] = None, readout: str = "meanmax") -> None:
        self.node_method = node_method
        self.name = name if name is not None else node_method.name
        self.readout = readout

    def fit_graphs(self, dataset: GraphDataset, seed: int = 0) -> EmbeddingResult:
        batch = dataset.to_batch()
        node_result = self.node_method.fit(batch.as_graph(), seed=seed)
        with no_grad():
            graph_embeddings = batch_readout(
                Tensor(node_result.embeddings), batch, mode=self.readout
            ).data
        return EmbeddingResult(
            graph_embeddings, node_result.train_seconds, node_result.loss_history
        )
