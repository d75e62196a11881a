"""Training entry points for GCMAE, built on :mod:`repro.engine`.

Section 4.4 of the paper: reconstructing the entire adjacency is expensive on
large graphs, so GCMAE samples subgraphs per training step (it shares
GraphSAGE's mini-batch style with MaskGAE).  Graphs below
``config.subgraph_threshold`` nodes are trained full-batch.

The epoch loop itself lives in :class:`repro.engine.TrainLoop`; this module
contributes the GCMAE :class:`~repro.engine.Method` adapters and keeps the
original ``train_gcmae`` / ``train_gcmae_graphs`` / :class:`TrainResult`
public API intact.  Early stopping is config-gated (``config.patience``) and
checkpoints follow any ambient :func:`repro.engine.checkpointing` policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

import contextlib

from ..engine import EarlyStopping, Method, TrainLoop, TrainState
from ..graph.augment import random_subgraph_nodes
from ..graph.data import Graph, GraphDataset
from ..graph.sampling import neighbor_block_steps
from ..nn.dtype import dtype_policy
from ..nn.optim import Adam
from ..obs.hooks import EpochHook
from ..registry import register_method
from .base import EmbeddingResult
from .config import GCMAEConfig
from .gcmae import GCMAE, LossParts


def _parts_dict(parts: LossParts) -> dict:
    return {
        "sce": parts.sce,
        "contrastive": parts.contrastive,
        "structure": parts.structure,
        "discrimination": parts.discrimination,
    }


@dataclass
class TrainResult:
    """A trained GCMAE plus its loss curves.

    ``epoch_seconds`` holds per-epoch wall time; when an active
    :func:`repro.nn.profiler.profile` session spans the call the same
    boundaries are marked there, so ``prof.summary()`` can report mean
    epoch cost alongside the per-op table.
    """

    model: GCMAE
    loss_history: List[float] = field(default_factory=list)
    part_history: List[LossParts] = field(default_factory=list)
    train_seconds: float = 0.0
    epoch_seconds: List[float] = field(default_factory=list)


class _GCMAENodeMethod(Method):
    """GCMAE node-level pretraining (Algorithm 1) as an engine method."""

    name = "GCMAE"

    def __init__(self, config: GCMAEConfig) -> None:
        self.config = config

    def build(self, graph: Graph, rng: np.random.Generator) -> TrainState:
        model = GCMAE(graph.num_features, self.config, rng=rng)
        optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        return TrainState(
            modules={"model": model},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=model,
        )

    def steps(self, state: TrainState, graph: Graph, epoch: int):
        if self.config.sampled_fanouts:
            # Neighbour-sampled mini-batches: every node is a seed once per
            # epoch, receptive fields bounded by the fan-outs.  The loader
            # keys its per-epoch RNG on (run seed, epoch), independent of
            # state.rng, so it is rebuilt identically after a resume.
            yield from neighbor_block_steps(
                state,
                graph,
                self.config.sampled_fanouts,
                self.config.sampled_batch_size,
                epoch,
            )
        elif graph.num_nodes > self.config.subgraph_threshold:
            for _ in range(self.config.steps_per_epoch):
                nodes = random_subgraph_nodes(
                    graph.num_nodes, self.config.subgraph_size, state.rng
                )
                yield graph.subgraph(nodes)
        else:
            yield None

    def loss_step(self, state: TrainState, graph: Graph, epoch: int, payload):
        target = graph if payload is None else payload
        model = state.modules["model"]
        loss, parts = model.training_loss(target.adjacency, target.features, state.rng)
        return loss, _parts_dict(parts)

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        return state.modules["model"].embed(graph.adjacency, graph.features)


class _GCMAEGraphsMethod(Method):
    """GCMAE over block-diagonal graph mini-batches (Table 7 protocol)."""

    name = "GCMAE"

    def __init__(self, config: GCMAEConfig) -> None:
        self.config = config

    def _loader(self, dataset: GraphDataset):
        return dataset.loader(
            batch_size=self.config.graph_batch_size
            if self.config.graph_batch_size > 0 else None
        )

    def build(self, dataset: GraphDataset, rng: np.random.Generator) -> TrainState:
        loader = self._loader(dataset)
        model = GCMAE(dataset.graphs[0].num_features, self.config, rng=rng)
        optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        state = TrainState(
            modules={"model": model},
            optimizer=optimizer,
            rng=rng,
            telemetry_model=model,
        )
        # Batch objects are reused across epochs, so their normalised
        # operands stay warm in the derived-matrix cache; only the visit
        # order is reshuffled each epoch.
        state.extras["loader"] = loader
        return state

    def steps(self, state: TrainState, dataset: GraphDataset, epoch: int):
        yield from state.extras["loader"].epoch(state.rng)

    def loss_step(self, state: TrainState, dataset: GraphDataset, epoch: int, batch):
        model = state.modules["model"]
        loss, parts = model.training_loss(batch.adjacency, batch.features, state.rng)
        return loss, _parts_dict(parts)

    def embed(self, state: TrainState, dataset: GraphDataset) -> np.ndarray:
        from ..gnn.readout import batch_readout
        from ..nn import no_grad
        from ..nn.tensor import Tensor

        model = state.modules["model"]
        outputs = []
        with no_grad():
            for batch in self._loader(dataset):  # dataset order: rows line up with labels
                node_embeddings = model.embed(batch.adjacency, batch.features)
                outputs.append(
                    batch_readout(Tensor(node_embeddings), batch, mode="meanmax").data
                )
        return np.concatenate(outputs, axis=0)


def _early_stopping(config: GCMAEConfig) -> Optional[EarlyStopping]:
    if config.patience > 0:
        return EarlyStopping(patience=config.patience, min_delta=config.min_delta)
    return None


def _config_dtype(config: GCMAEConfig):
    """Dtype-policy scope for a run: ``config.dtype`` or the ambient policy."""
    if config.dtype is not None:
        return dtype_policy(config.dtype)
    return contextlib.nullcontext()


def _train_result(outcome) -> TrainResult:
    return TrainResult(
        model=outcome.state.modules["model"],
        loss_history=list(outcome.loss_history),
        part_history=[
            LossParts(total=loss, **parts)
            for loss, parts in zip(outcome.loss_history, outcome.parts_history)
        ],
        train_seconds=outcome.train_seconds,
        epoch_seconds=list(outcome.epoch_seconds),
    )


def train_gcmae(
    graph: Graph,
    config: Optional[GCMAEConfig] = None,
    seed: int = 0,
    hooks: Sequence[EpochHook] = (),
) -> TrainResult:
    """Pretrain GCMAE on one graph following Algorithm 1.

    Parameters
    ----------
    graph:
        The input graph (features + adjacency; labels are never used).
    config:
        Hyper-parameters; defaults to :class:`GCMAEConfig`.
    seed:
        Seeds weight init, augmentations, and subgraph sampling.
    hooks:
        :class:`~repro.obs.hooks.EpochHook` instances receiving one
        :class:`~repro.obs.hooks.EpochEvent` per epoch, in addition to any
        ambient telemetry (an active :func:`repro.obs.record` /
        :func:`repro.obs.telemetry_run` recorder).
    """
    config = config if config is not None else GCMAEConfig()
    loop = TrainLoop(config.epochs, early_stopping=_early_stopping(config))
    with _config_dtype(config):
        outcome = loop.run(_GCMAENodeMethod(config), graph, seed=seed, hooks=tuple(hooks))
    return _train_result(outcome)


def train_gcmae_graphs(
    dataset: GraphDataset,
    config: Optional[GCMAEConfig] = None,
    seed: int = 0,
    hooks: Sequence[EpochHook] = (),
) -> TrainResult:
    """Pretrain GCMAE on a multi-graph dataset (Table 7 protocol).

    The dataset is partitioned once into block-diagonal
    :class:`~repro.graph.batch.GraphBatch` objects of
    ``config.graph_batch_size`` graphs each (``0`` = the whole dataset as a
    single batch) and every training step encodes one whole batch.
    """
    config = config if config is not None else GCMAEConfig()
    loop = TrainLoop(config.epochs, early_stopping=_early_stopping(config))
    with _config_dtype(config):
        outcome = loop.run(
            _GCMAEGraphsMethod(config), dataset, seed=seed, hooks=tuple(hooks)
        )
    return _train_result(outcome)


class GCMAEMethod:
    """GCMAE wrapped in the repository's SSL method protocol.

    Implements both :class:`~repro.core.base.NodeSSLMethod` (Tables 4-6) and
    :class:`~repro.core.base.GraphSSLMethod` (Table 7, where the dataset is
    trained on block-diagonal mini-batches of ``config.graph_batch_size``
    graphs and embeddings are mean/max-pooled per graph).
    """

    def __init__(self, config: Optional[GCMAEConfig] = None, name: str = "GCMAE") -> None:
        self.config = config if config is not None else GCMAEConfig()
        self.name = name
        self.last_train_result: Optional[TrainResult] = None

    def fit(self, graph: Graph, seed: int = 0) -> EmbeddingResult:
        train_result = train_gcmae(graph, self.config, seed=seed)
        self.last_train_result = train_result
        embeddings = train_result.model.embed(graph.adjacency, graph.features)
        return EmbeddingResult(
            embeddings=embeddings,
            train_seconds=train_result.train_seconds,
            loss_history=train_result.loss_history,
            extras={"part_history": train_result.part_history},
        )

    def fit_graphs(self, dataset: GraphDataset, seed: int = 0) -> EmbeddingResult:
        from ..gnn.readout import batch_readout
        from ..nn import no_grad
        from ..nn.tensor import Tensor

        train_result = train_gcmae_graphs(dataset, self.config, seed=seed)
        self.last_train_result = train_result
        loader = dataset.loader(
            batch_size=self.config.graph_batch_size
            if self.config.graph_batch_size > 0 else None
        )
        outputs = []
        with no_grad():
            for batch in loader:  # dataset order, so rows line up with labels
                node_embeddings = train_result.model.embed(
                    batch.adjacency, batch.features
                )
                outputs.append(
                    batch_readout(Tensor(node_embeddings), batch, mode="meanmax").data
                )
        return EmbeddingResult(
            embeddings=np.concatenate(outputs, axis=0),
            train_seconds=train_result.train_seconds,
            loss_history=train_result.loss_history,
        )


# GCMAE appears in both protocols with its hand-written GCMAEConfig as the
# schema.  Tuned width stays 256 for node tasks in every profile (Figure 6
# shows width is decisive for it); the graph protocol narrows to 64 with a
# GIN backbone and block-diagonal mini-batches, as in Table 7.
register_method(
    "GCMAE",
    tags=("hybrid",),
    order=500,
    cls=GCMAEMethod,
    config_cls=GCMAEConfig,
    defaults=lambda p: {"epochs": p.gcmae_epochs},
    builder=lambda cfg: GCMAEMethod(cfg),
)
register_method(
    "GCMAE",
    protocol="graph",
    tags=("hybrid",),
    order=500,
    cls=GCMAEMethod,
    config_cls=GCMAEConfig,
    defaults=lambda p: {
        "epochs": p.graph_epochs,
        "hidden_dim": 64,
        "embed_dim": 64,
        "conv_type": "gin",
        # Train on block-diagonal mini-batches of whole graphs, which keeps
        # InfoNCE tractable without slicing any graph apart.
        "graph_batch_size": 64,
    },
    builder=lambda cfg: GCMAEMethod(cfg),
)
