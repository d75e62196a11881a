"""The :class:`Method` protocol every training loop in the repo plugs into.

A method describes *what* one optimisation step computes; the
:class:`~repro.engine.loop.TrainLoop` owns everything else — epoch
iteration, optimizer stepping, telemetry, profiler epoch marks, early
stopping, and checkpoint/resume.  The split is what lets twenty formerly
hand-rolled ``for epoch in ...`` loops share a single implementation
without changing a single loss value: the hooks are called in exactly the
order the old loops interleaved their work, and stochastic hooks
(:meth:`Method.steps`) are generators, so random-number consumption stays
bit-for-bit identical to the pre-engine code.

Lifecycle of ``TrainLoop.run(method, data, seed)``::

    state = method.build(data, rng)            # modules + optimizer, once
    for epoch:
        method.begin_epoch(state, data, epoch)         # default: .train()
        for payload in method.steps(state, data, epoch):   # lazy generator
            optimizer.zero_grad()
            loss, parts = method.loss_step(state, data, epoch, payload)
            loss.backward(); optimizer.step()
            method.after_step(state, data, epoch, payload)  # e.g. BGRL EMA
        metrics = method.epoch_metrics(state, data, epoch, loss)
        # ... history/telemetry/early-stopping/checkpoint, then:
        method.end_epoch(state, data, epoch, loss)     # e.g. JOAO reweights
    method.embed(state, data)                  # frozen embeddings

``data`` is opaque to the engine — a :class:`~repro.graph.data.Graph` for
node-level methods, a :class:`~repro.graph.data.GraphDataset` for
graph-level ones.

Every method runs through one path: :meth:`Method.train` builds the
``TrainLoop`` from the method's own ``epochs`` and ``early_stopping``, and
:meth:`Method.fit` (``fit_graphs`` for the graph protocol) trains, embeds
once and returns an :class:`EmbeddingResult`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.module import Module
from ..nn.optim import Optimizer
from ..nn.tensor import Tensor
from ..obs.hooks import EpochHook
from ..registry.config import ConfigError, config_dict, derive_config_class

if TYPE_CHECKING:
    from .loop import EarlyStopping, LoopResult


@dataclass
class EmbeddingResult:
    """Frozen embeddings produced by :meth:`Method.fit`.

    Attributes
    ----------
    embeddings:
        ``(N, d)`` node embeddings (or ``(num_graphs, d)`` for graph-level
        methods).
    train_seconds:
        Wall-clock training time (Table 9); the embed is outside it.
    loss_history:
        Total loss per epoch.
    """

    embeddings: np.ndarray
    train_seconds: float
    loss_history: List[float] = field(default_factory=list)


@dataclass
class TrainState:
    """Everything mutable a training run owns.

    Attributes
    ----------
    modules:
        Named module trees (``{"encoder": ..., "projector": ...}``).  Order
        matters only for display; checkpoints key parameters by these names.
    optimizer:
        The single optimizer stepping all trainable parameters.
    rng:
        The run's random generator.  Seeds weight init *and* every
        stochastic draw during training, exactly as the pre-engine loops
        did; checkpoints serialise its bit-generator state so a resumed run
        continues the same stream.
    telemetry_model:
        The module passed to :func:`repro.obs.hooks.emit_epoch` as
        ``model`` (grouping gradient norms by submodule).  ``None``
        reproduces loops that only passed an optimizer.
    extras:
        Method-private precomputations (batch loaders, cached operands,
        negative-sampling edge lists, ...).  Not checkpointed — anything
        here must be reconstructible from ``build`` alone; evolving state
        belongs in :meth:`Method.extra_state`.
    seed:
        The integer seed :meth:`TrainLoop.run` was called with, set by the
        loop right after ``build``.  Methods that derive *independent*
        deterministic streams (the neighbour loaders key per-epoch RNGs on
        ``(seed, epoch)``) read it here, so sampling stays reproducible
        across resumes without touching the training ``rng`` stream.
    """

    modules: Dict[str, Module]
    optimizer: Optimizer
    rng: np.random.Generator
    telemetry_model: Optional[Module] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def module_state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Per-module ``state_dict`` snapshot (used for best-weight restore)."""
        return {name: module.state_dict() for name, module in self.modules.items()}

    def load_module_state(self, snapshot: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Restore a snapshot produced by :meth:`module_state` (strict)."""
        missing = set(self.modules) - set(snapshot)
        unexpected = set(snapshot) - set(self.modules)
        if missing or unexpected:
            raise KeyError(
                f"module snapshot mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, module in self.modules.items():
            module.load_state_dict(snapshot[name])


class Method:
    """Base class for engine-trainable methods.

    Subclasses must implement :meth:`build`, :meth:`loss_step`, and
    :meth:`embed`, and provide ``epochs``; everything else has a default
    that matches the common single-full-batch-step-per-epoch loop.
    """

    name: str = "method"
    epochs: int
    early_stopping: Optional[EarlyStopping] = None

    # -- the run path --------------------------------------------------
    def train(self, data, seed: int = 0, hooks: Sequence[EpochHook] = ()) -> LoopResult:
        """Train on ``data`` for ``self.epochs`` under ``self.early_stopping``.

        Builds the run's :class:`~repro.engine.loop.TrainLoop`; ``hooks``
        receive one epoch event each, beside any ambient telemetry.
        """
        from .loop import TrainLoop  # imported here: the loop module imports this one

        loop = TrainLoop(self.epochs, early_stopping=self.early_stopping)
        return loop.run(self, data, seed=seed, hooks=hooks)

    def fit(self, data, seed: int = 0) -> EmbeddingResult:
        """Train on ``data`` and embed it once with the trained weights.

        ``train_seconds`` covers the loop only; the embed is outside it.
        """
        outcome = self.train(data, seed=seed)
        return EmbeddingResult(
            self.embed(outcome.state, data), outcome.train_seconds, outcome.loss_history
        )

    def fit_graphs(self, dataset, seed: int = 0) -> EmbeddingResult:
        """The graph protocol's name for :meth:`fit` (Table 7)."""
        return self.fit(dataset, seed=seed)

    # -- required ------------------------------------------------------
    def build(self, data, rng: np.random.Generator) -> TrainState:
        """Construct modules and the optimizer for ``data``.

        Called once per run with a fresh ``rng``; must consume the
        generator in the same order the method's weight init always did.
        """
        raise NotImplementedError

    def loss_step(
        self, state: TrainState, data, epoch: int, payload
    ) -> Tuple[Tensor, Dict[str, float]]:
        """Compute one optimisation step's loss (before ``backward``).

        Returns the scalar loss tensor plus named loss parts (``{}`` for
        single-objective methods).  The loop has already called
        ``zero_grad``; it will call ``backward`` and ``step``.
        """
        raise NotImplementedError

    def embed(self, state: TrainState, data) -> np.ndarray:
        """Frozen embeddings after training (what :meth:`fit` returns)."""
        raise NotImplementedError

    # -- optional hooks ------------------------------------------------
    def steps(self, state: TrainState, data, epoch: int) -> Iterator:
        """Yield one payload per optimisation step of this epoch.

        The default is a single full-batch step.  Mini-batch methods yield
        batches (or sampled subgraphs) *lazily* so that any randomness in
        payload construction interleaves with the step computation exactly
        as a hand-rolled loop would.
        """
        yield None

    def begin_epoch(self, state: TrainState, data, epoch: int) -> None:
        """Hook before the epoch's first step; default puts modules in train mode."""
        for module in state.modules.values():
            module.train()

    def after_step(self, state: TrainState, data, epoch: int, payload) -> None:
        """Hook after ``optimizer.step()`` (e.g. BGRL's EMA target update)."""

    def epoch_metrics(
        self, state: TrainState, data, epoch: int, epoch_loss: float
    ) -> Dict[str, float]:
        """Extra named metrics merged into the epoch's telemetry parts.

        Computed before the epoch event is emitted, so an
        :class:`~repro.engine.loop.EarlyStopping` config can monitor any
        key returned here (the supervised baselines monitor
        ``val_accuracy``).
        """
        return {}

    def end_epoch(self, state: TrainState, data, epoch: int, epoch_loss: float) -> None:
        """Hook after telemetry (e.g. JOAO's augmentation reweighting)."""

    # -- resume support ------------------------------------------------
    def resolved_config(self) -> Optional[Dict[str, Any]]:
        """The run's config as a JSON-safe dict (``None`` if it cannot be read).

        Checkpoints record it and digest it into their file name.  GCMAE's
        methods hold a ``config`` dataclass; registered baselines keep each
        registry-derived config field as a same-named attribute.
        """
        config = getattr(self, "config", None)
        if not dataclasses.is_dataclass(config):
            try:
                schema = derive_config_class(type(self))
                config = schema(
                    **{f.name: getattr(self, f.name) for f in dataclasses.fields(schema)}
                )
            except (ConfigError, AttributeError):
                return None
        return config_dict(config)

    def extra_state(self, state: TrainState) -> Dict[str, Any]:
        """JSON-serialisable method state beyond modules/optimizer/rng.

        Anything that evolves across epochs outside parameter arrays
        (running augmentation statistics, cluster centroids, ...) must be
        captured here for checkpoints to resume bit-identically.
        """
        return {}

    def load_extra_state(self, state: TrainState, payload: Dict[str, Any]) -> None:
        """Restore what :meth:`extra_state` captured."""
