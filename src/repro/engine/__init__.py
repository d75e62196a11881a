"""Method-agnostic training engine: one loop for every method in the repo.

``repro.engine`` layers strictly above :mod:`repro.nn` and
:mod:`repro.obs` and below :mod:`repro.core` / :mod:`repro.baselines`:
methods implement the :class:`Method` protocol, and :class:`TrainLoop`
owns the epoch loop, optimizer stepping, telemetry, profiler marks,
early stopping, and atomic checkpoint/resume.  ``Method.fit`` is the one
run path: it trains through a ``TrainLoop`` and returns an
:class:`EmbeddingResult`.
"""

from .checkpoint import atomic_savez, load_checkpoint, save_checkpoint
from .loop import (
    CheckpointPolicy,
    EarlyStopping,
    LoopResult,
    TrainLoop,
    active_checkpoint_policy,
    checkpointing,
)
from .method import EmbeddingResult, Method, TrainState

__all__ = [
    "EmbeddingResult",
    "Method",
    "TrainState",
    "TrainLoop",
    "LoopResult",
    "EarlyStopping",
    "CheckpointPolicy",
    "checkpointing",
    "active_checkpoint_policy",
    "atomic_savez",
    "save_checkpoint",
    "load_checkpoint",
]
