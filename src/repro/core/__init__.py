"""GCMAE: the paper's core contribution."""

from .base import EmbeddingResult, Stopwatch
from .checkpoint import load_gcmae, save_gcmae
from .config import GCMAEConfig
from .gcmae import GCMAE, LossParts
from .losses import (
    adjacency_reconstruction_loss,
    discrimination_loss,
    info_nce,
    sce_loss,
)
from .trainer import GCMAEMethod, TrainResult, train_gcmae

__all__ = [
    "EmbeddingResult",
    "GCMAE",
    "GCMAEConfig",
    "GCMAEMethod",
    "LossParts",
    "Stopwatch",
    "TrainResult",
    "adjacency_reconstruction_loss",
    "discrimination_loss",
    "load_gcmae",
    "save_gcmae",
    "info_nce",
    "sce_loss",
    "train_gcmae",
]
