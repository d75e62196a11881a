"""GCMAE as a :class:`repro.engine.Method`.

Section 4.4 of the paper: reconstructing the entire adjacency is expensive on
large graphs, so GCMAE samples subgraphs per training step (it shares
GraphSAGE's mini-batch style with MaskGAE).  Graphs below
``config.subgraph_threshold`` nodes are trained full-batch.

:class:`GCMAEMethod` is the engine method for both protocols: ``fit`` trains
on one graph (Tables 4-6), ``fit_graphs`` on block-diagonal mini-batches of
a graph dataset (Table 7).  ``train_gcmae`` trains without embedding and
returns a :class:`TrainResult`.  Early stopping is config-gated
(``config.patience``), ``config.dtype`` scopes training but not the embed,
and checkpoints follow any ambient :func:`repro.engine.checkpointing` policy.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..engine import EarlyStopping, EmbeddingResult, LoopResult, Method, TrainState
from ..graph.augment import random_subgraph_nodes
from ..graph.data import Graph, GraphDataset
from ..graph.sampling import neighbor_block_steps
from ..nn import Adam, Tensor, no_grad
from ..nn.dtype import dtype_policy
from ..obs.hooks import EpochHook
from ..registry import register_method
from .config import GCMAEConfig
from .gcmae import GCMAE, LossParts


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


class GCMAEMethod(Method):
    """GCMAE pretraining (Algorithm 1) as an engine method.

    ``fit(graph, seed)`` is the node protocol (Tables 4-6); ``fit_graphs``
    trains a :class:`_GCMAEGraphsMethod` on the same config (Table 7).
    Every run leaves its :class:`TrainResult` in ``last_train_result``.
    """

    name = "GCMAE"

    def __init__(self, config: Optional[GCMAEConfig] = None) -> None:
        self.config = config if config is not None else GCMAEConfig()
        self.last_train_result: Optional[TrainResult] = None

    @property
    def epochs(self) -> int:
        return self.config.epochs

    @property
    def early_stopping(self) -> Optional[EarlyStopping]:
        if self.config.patience > 0:
            return EarlyStopping(patience=self.config.patience, min_delta=self.config.min_delta)
        return None

    def train(self, data, seed: int = 0, hooks: Sequence[EpochHook] = ()) -> LoopResult:
        """Train under ``config.dtype`` and keep the :class:`TrainResult`."""
        scope = (
            dtype_policy(self.config.dtype)
            if self.config.dtype is not None
            else contextlib.nullcontext()
        )
        with scope:
            outcome = super().train(data, seed=seed, hooks=hooks)
        self.last_train_result = TrainResult(
            model=outcome.state.modules["model"],
            loss_history=list(outcome.loss_history),
            part_history=[
                LossParts(total=loss, **parts)
                for loss, parts in zip(outcome.loss_history, outcome.parts_history)
            ],
            train_seconds=outcome.train_seconds,
            epoch_seconds=list(outcome.epoch_seconds),
        )
        return outcome

    def fit_graphs(self, dataset: GraphDataset, seed: int = 0) -> EmbeddingResult:
        """The graph protocol: fit a :class:`_GCMAEGraphsMethod` of this config."""
        method = _GCMAEGraphsMethod(self.config)
        result = method.fit(dataset, seed=seed)
        self.last_train_result = method.last_train_result
        return result

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
        return loss, {
            "sce": parts.sce,
            "contrastive": parts.contrastive,
            "structure": parts.structure,
            "discrimination": parts.discrimination,
        }

    def embed(self, state: TrainState, graph: Graph) -> np.ndarray:
        return state.modules["model"].embed(graph.adjacency, graph.features)


class _GCMAEGraphsMethod(GCMAEMethod):
    """GCMAE over block-diagonal graph mini-batches (Table 7 protocol).

    The dataset is partitioned once into ``config.graph_batch_size`` graphs
    per batch (``0`` = the whole dataset as one batch); every step encodes
    one whole batch, and the embed mean/max-pools each graph over the same
    batches.
    """

    def build(self, dataset: GraphDataset, rng: np.random.Generator) -> TrainState:
        loader = dataset.loader(batch_size=self.config.graph_batch_size or None)
        state = super().build(dataset.graphs[0], rng)  # one graph fixes the feature width
        # Batch objects are reused across epochs, so their normalised
        # operands stay warm in the derived-matrix cache; only the visit
        # order is reshuffled each epoch.
        state.extras["loader"] = loader
        return state

    def steps(self, state: TrainState, dataset: GraphDataset, epoch: int):
        yield from state.extras["loader"].epoch(state.rng)

    def embed(self, state: TrainState, dataset: GraphDataset) -> np.ndarray:
        # Imported at call time, so a wrapper installed on the readout
        # module after this module loads still sees every call.
        from ..gnn.readout import batch_readout

        model = state.modules["model"]
        outputs = []
        with no_grad():
            for batch in state.extras["loader"]:  # dataset order: rows line up with labels
                node_embeddings = model.embed(batch.adjacency, batch.features)
                outputs.append(
                    batch_readout(Tensor(node_embeddings), batch, mode="meanmax").data
                )
        return np.concatenate(outputs, axis=0)


def train_gcmae(
    graph: Graph,
    config: Optional[GCMAEConfig] = None,
    seed: int = 0,
    hooks: Sequence[EpochHook] = (),
) -> TrainResult:
    """Pretrain GCMAE on one graph following Algorithm 1, without embedding.

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
    method = GCMAEMethod(config)
    method.train(graph, seed=seed, hooks=hooks)
    return method.last_train_result


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
