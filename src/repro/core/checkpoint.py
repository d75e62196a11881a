"""Checkpointing: save and restore trained GCMAE models.

A GCMAE checkpoint is the one :mod:`repro.engine.checkpoint` format: the
model's parameters under ``module/model/`` and its config and input width
in the meta, so the file is self-describing (and an encoder can be served
straight from it with ``repro.serve.load_encoder``)::

    save_gcmae(model, "gcmae-cora.npz")
    model = load_gcmae("gcmae-cora.npz")
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..engine.checkpoint import read_checkpoint, write_checkpoint
from ..registry import config_dict, config_from_dict
from .config import GCMAEConfig
from .gcmae import GCMAE


def save_gcmae(model: GCMAE, path: Union[str, Path]) -> Path:
    """Serialise a GCMAE model (weights + config) to ``path`` atomically."""
    path = Path(path)
    if path.suffix != ".npz":  # match np.savez's bare-path behaviour
        path = path.with_name(path.name + ".npz")
    meta = {"config": config_dict(model.config), "num_features": model.num_features}
    return write_checkpoint(path, {"module": {"model": model.state_dict()}}, meta)


def load_gcmae(path: Union[str, Path]) -> GCMAE:
    """Restore a GCMAE model saved by :func:`save_gcmae`."""
    sections, meta = read_checkpoint(path)
    if not {"config", "num_features"} <= meta.keys() or "model" not in sections["module"]:
        raise ValueError(f"{path} is not a save_gcmae checkpoint")
    # JSON stores tuple fields as lists; the config schema finds every one
    # and turns it back into a tuple, so the config stays equal and hashable.
    config = config_from_dict(GCMAEConfig, meta["config"])
    model = GCMAE(int(meta["num_features"]), config, rng=np.random.default_rng(0))
    model.load_state_dict(sections["module"]["model"])
    model.eval()
    return model
