"""The one checkpoint format, shared by engine, GCMAE and serving checkpoints.

A checkpoint is one plain ``.npz`` holding ``module/<module>/<param>``
arrays, optionally ``optim/<slot>/<index>`` (Adam's ``m``/``v``, SGD's
``velocity``) and ``best/<module>/<param>`` (the early-stopping snapshot),
and one JSON blob (``__meta_json__``).  :func:`write_checkpoint` and
:func:`read_checkpoint` are the only code that knows this layout:
``save_gcmae``, the serving layer's ``save_encoder`` and
:func:`save_checkpoint` (whose meta carries the loop bookkeeping, the
optimizer's scalar state, the rng bit-generator state and the method's
resolved config) all write through them.  Compressed files written by
earlier versions still load.

Files land via write-then-rename (:func:`atomic_savez`), so a run killed
mid-save never leaves a truncated checkpoint, and a damaged file raises
:class:`zipfile.BadZipFile` naming it.  Restoring module weights, optimizer
moments *and* the rng stream is what makes a resumed run finish with
bit-identical weights to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..nn.dtype import default_dtype
from .method import TrainState

_META_KEY = "__meta_json__"
_SECTIONS = ("module", "optim", "best")
_FORMAT_VERSION = 1

# section -> name -> key -> array, e.g. sections["module"]["model"]["encoder.w"]
Sections = Dict[str, Dict[str, Dict[str, np.ndarray]]]


def atomic_savez(path: Union[str, Path], **arrays: np.ndarray) -> Path:
    """Write a plain ``.npz`` atomically (temp file + ``os.replace``).

    An interrupted save never leaves a truncated archive at ``path``: the
    partial bytes live in ``<path>.tmp`` until the final rename, which is
    atomic on POSIX filesystems.  Parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".tmp")
    # Write through a file handle: ``np.savez`` appends ``.npz`` to bare
    # string paths, which would break the rename bookkeeping.
    with open(partial, "wb") as handle:
        np.savez(handle, **arrays)
    os.replace(partial, path)
    return path


def write_checkpoint(path: Union[str, Path], sections: Sections, meta: Dict[str, Any]) -> Path:
    """Write ``sections`` plus the JSON ``meta`` to ``path`` atomically."""
    arrays: Dict[str, np.ndarray] = {}
    for section, entries in sections.items():
        if section not in _SECTIONS:
            raise ValueError(f"unknown checkpoint section {section!r}")
        for name, values in entries.items():
            for key, array in values.items():
                arrays[f"{section}/{name}/{key}"] = array
    payload = dict(meta, format_version=_FORMAT_VERSION)
    arrays[_META_KEY] = np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)
    return atomic_savez(path, **arrays)


def read_checkpoint(path: Union[str, Path]) -> Tuple[Sections, Dict[str, Any]]:
    """``(sections, meta)`` of a checkpoint file; every section is present.

    ``meta`` is ``{}`` for a file without a meta blob.  Entries outside the
    layout raise :class:`KeyError`, and a damaged archive re-raises
    :class:`zipfile.BadZipFile`, both naming ``path``.
    """
    sections: Sections = {section: {} for section in _SECTIONS}
    meta: Dict[str, Any] = {}
    try:
        # Our own handle: np.load leaves the file it opens unclosed when the
        # archive's directory is unreadable (a truncated file).
        with open(path, "rb") as handle, np.load(handle) as payload:
            for key in payload.files:
                if key == _META_KEY:
                    meta = json.loads(payload[key].tobytes().decode("utf-8"))
                    continue
                section, _, remainder = key.partition("/")
                name, _, entry = remainder.partition("/")
                if section not in sections or not entry:
                    raise KeyError(f"unrecognised checkpoint entry {key!r} in {path}")
                sections[section].setdefault(name, {})[entry] = payload[key]
    except zipfile.BadZipFile as exc:
        raise zipfile.BadZipFile(f"{path}: {exc}") from exc
    return sections, meta


def save_checkpoint(
    path: Union[str, Path],
    state: TrainState,
    meta: Dict[str, Any],
    best_snapshot: Optional[Dict[str, Dict[str, np.ndarray]]] = None,
) -> Path:
    """Serialise a run (modules + optimizer + rng + loop meta) to ``path``."""
    optim: Dict[str, Dict[str, np.ndarray]] = {}
    optim_scalars: Dict[str, Any] = {}
    for key, value in state.optimizer.state_dict().items():
        if isinstance(value, list):
            optim[key] = {f"{index:05d}": array for index, array in enumerate(value)}
        else:
            optim_scalars[key] = value
    payload = dict(meta)
    # Informational: parameters are stored at their own dtype, and loading
    # casts to whatever dtype the rebuilt parameters carry, so checkpoints
    # round-trip across dtype policies; the tag records what produced them.
    payload["dtype"] = default_dtype().name
    payload["optimizer"] = optim_scalars
    payload["rng_state"] = state.rng.bit_generator.state
    sections = {"module": state.module_state(), "optim": optim, "best": best_snapshot or {}}
    return write_checkpoint(path, sections, payload)


def load_checkpoint(path: Union[str, Path], state: TrainState) -> Dict[str, Any]:
    """Restore ``state`` in place from ``path`` and return the loop meta.

    Module parameters, optimizer moments/step, and the rng stream are all
    restored; the returned dict additionally carries the histories, the
    early-stopping progress, the method extra state, and (when present)
    the early-stopping best snapshot under ``"best_snapshot"``.
    """
    sections, meta = read_checkpoint(path)
    state.load_module_state(sections["module"])
    optim_payload: Dict[str, Any] = dict(meta.pop("optimizer", {}))
    for slot, indexed in sections["optim"].items():
        optim_payload[slot] = [indexed[index] for index in sorted(indexed, key=int)]
    state.optimizer.load_state_dict(optim_payload)
    state.rng.bit_generator.state = meta.pop("rng_state")
    if sections["best"]:
        meta["best_snapshot"] = sections["best"]
    return meta
