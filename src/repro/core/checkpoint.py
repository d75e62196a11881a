"""Checkpointing: save and restore trained GCMAE models.

Weights are stored as a flat ``.npz`` (one array per parameter) alongside
the JSON-encoded config, so a checkpoint is self-describing::

    save_gcmae(model, "gcmae-cora.npz")
    model = load_gcmae("gcmae-cora.npz", num_features=256)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..engine.checkpoint import atomic_savez
from ..registry import config_dict, config_from_dict
from .config import GCMAEConfig
from .gcmae import GCMAE

_CONFIG_KEY = "__config_json__"
_FEATURES_KEY = "__num_features__"


def save_gcmae(model: GCMAE, path: Union[str, Path]) -> Path:
    """Serialise a GCMAE model (weights + config) to ``path`` atomically."""
    path = Path(path)
    if path.suffix != ".npz":  # match np.savez's bare-path behaviour
        path = path.with_name(path.name + ".npz")
    payload = dict(model.state_dict())
    payload[_CONFIG_KEY] = np.frombuffer(
        json.dumps(config_dict(model.config)).encode("utf-8"), dtype=np.uint8
    )
    payload[_FEATURES_KEY] = np.array([model.num_features], dtype=np.int64)
    return atomic_savez(path, **payload)


def load_gcmae(path: Union[str, Path]) -> GCMAE:
    """Restore a GCMAE model saved by :func:`save_gcmae`."""
    path = Path(path)
    with np.load(path) as payload:
        saved_config = json.loads(bytes(payload[_CONFIG_KEY]).decode("utf-8"))
        num_features = int(payload[_FEATURES_KEY][0])
        state = {
            name: payload[name]
            for name in payload.files
            if name not in (_CONFIG_KEY, _FEATURES_KEY)
        }
    # JSON stores tuple fields as lists; the config schema finds every one
    # and turns it back into a tuple, so the config stays equal and hashable.
    config = config_from_dict(GCMAEConfig, saved_config)
    model = GCMAE(num_features, config, rng=np.random.default_rng(0))
    model.load_state_dict(state)
    model.eval()
    return model
