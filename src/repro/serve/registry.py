"""Frozen-encoder model registry for the serving layer.

Engine, GCMAE and serving checkpoints share the one
:mod:`repro.engine.checkpoint` format (``module/<module>/<param>`` arrays
plus a ``__meta_json__`` blob), read and written only through
:func:`~repro.engine.checkpoint.read_checkpoint` and
:func:`~repro.engine.checkpoint.write_checkpoint`.  The registry turns
those files back into live, eval-mode encoders:

* :class:`EncoderSpec` — the constructor arguments of a
  :class:`~repro.gnn.encoder.GNNEncoder`, JSON round-trippable so a spec
  can ride inside a checkpoint's meta blob.
* :func:`load_encoder` — rebuild an encoder from a spec and load its
  weights out of any such checkpoint, whether the encoder was
  checkpointed standalone (module ``encoder``) or as a submodule of a
  larger model (GCMAE checkpoints store ``module/model/encoder.*``).
* :func:`save_encoder` — write a standalone serving checkpoint (module
  ``encoder``, spec embedded in the meta) from a live encoder.
* :class:`ModelRegistry` — named, versioned collection of loaded models
  that :class:`~repro.serve.service.EmbeddingService` serves from.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..engine.checkpoint import read_checkpoint, write_checkpoint
from ..gnn.encoder import GNNEncoder
from ..obs.hooks import emit_counter


@dataclass(frozen=True)
class EncoderSpec:
    """Everything needed to rebuild a :class:`GNNEncoder` architecture."""

    in_features: int
    hidden_features: int
    out_features: int
    num_layers: int = 2
    conv_type: str = "gcn"
    activation: str = "relu"
    dropout: float = 0.0
    heads: int = 1

    def build(self, seed: int = 0) -> GNNEncoder:
        """A freshly initialised encoder of this architecture (eval mode)."""
        encoder = GNNEncoder(
            in_features=self.in_features,
            hidden_features=self.hidden_features,
            out_features=self.out_features,
            num_layers=self.num_layers,
            conv_type=self.conv_type,
            activation=self.activation,
            dropout=self.dropout,
            heads=self.heads,
            rng=np.random.default_rng(seed),
        )
        return encoder.eval()

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EncoderSpec":
        fields = {name for name in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in payload.items() if k in fields})


def _extract_encoder_state(
    module_states: Dict[str, Dict[str, np.ndarray]],
    expected: frozenset,
    module: Optional[str],
) -> Dict[str, np.ndarray]:
    """The parameter dict matching ``expected``, searching nested prefixes.

    Tries each candidate module section (or just ``module`` when named) both
    as-is and filtered through every ``<attr>.`` prefix whose stripped key
    set equals the encoder's expected parameter names — which is how the
    encoder is found inside a whole-model checkpoint (``encoder.*``).
    """
    candidates = (
        [module] if module is not None else sorted(module_states, key=lambda n: n != "encoder")
    )
    for name in candidates:
        state = module_states.get(name)
        if state is None:
            continue
        if frozenset(state) == expected:
            return state
        prefixes = sorted({k.split(".", 1)[0] + "." for k in state if "." in k})
        for prefix in prefixes:
            stripped = {
                k[len(prefix) :]: v for k, v in state.items() if k.startswith(prefix)
            }
            if frozenset(stripped) == expected:
                return stripped
    raise KeyError(
        f"no module section matches the encoder spec; checkpoint has "
        f"{sorted(module_states)} (expected parameters {sorted(expected)})"
    )


def load_encoder(
    path: Union[str, Path],
    spec: Optional[EncoderSpec] = None,
    module: Optional[str] = None,
):
    """Rebuild an eval-mode encoder from a checkpoint; ``(encoder, meta)``.

    ``spec`` may be omitted when the checkpoint embeds one (standalone
    serving checkpoints written by :func:`save_encoder` do); engine
    checkpoints of whole training runs need it passed explicitly.
    ``module`` pins the checkpoint section to search; by default every
    section is tried, preferring one literally named ``encoder``.
    """
    sections, meta = read_checkpoint(path)
    if spec is None:
        embedded = meta.get("encoder_spec")
        if not embedded:
            raise ValueError(
                f"{path} embeds no encoder spec; pass spec=EncoderSpec(...)"
            )
        spec = EncoderSpec.from_dict(embedded)
    encoder = spec.build()
    expected = frozenset(name for name, _ in encoder.named_parameters())
    # Optimizer moments and best snapshots are not served.
    encoder.load_state_dict(_extract_encoder_state(sections["module"], expected, module))
    return encoder, meta


def save_encoder(
    path: Union[str, Path],
    encoder: GNNEncoder,
    spec: EncoderSpec,
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a standalone serving checkpoint (atomic, spec embedded)."""
    payload = dict(meta or {}, encoder_spec=spec.to_dict())
    return write_checkpoint(path, {"module": {"encoder": encoder.state_dict()}}, payload)


@dataclass
class RegisteredModel:
    """One servable model: a frozen encoder plus its provenance."""

    name: str
    encoder: GNNEncoder
    spec: EncoderSpec
    meta: Dict[str, object] = field(default_factory=dict)
    source: Optional[str] = None
    version: int = 1


class ModelRegistry:
    """Named collection of frozen encoders the serving layer draws from.

    Re-registering a name bumps its version (callers key caches by
    ``(name, version)``, so a hot-swapped model never serves stale rows).
    """

    def __init__(self) -> None:
        self._models: Dict[str, RegisteredModel] = {}

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def names(self) -> List[str]:
        return sorted(self._models)

    def register(
        self,
        name: str,
        encoder: GNNEncoder,
        spec: EncoderSpec,
        meta: Optional[Dict[str, object]] = None,
        source: Optional[str] = None,
    ) -> RegisteredModel:
        """Install a live encoder under ``name`` (frozen to eval mode)."""
        previous = self._models.get(name)
        entry = RegisteredModel(
            name=name,
            encoder=encoder.eval(),
            spec=spec,
            meta=dict(meta or {}),
            source=source,
            version=(previous.version + 1) if previous else 1,
        )
        self._models[name] = entry
        emit_counter("serve.registry.register")
        return entry

    def load(
        self,
        name: str,
        path: Union[str, Path],
        spec: Optional[EncoderSpec] = None,
        module: Optional[str] = None,
    ) -> RegisteredModel:
        """Load a checkpoint from disk and register it under ``name``."""
        encoder, meta = load_encoder(path, spec=spec, module=module)
        if spec is None:
            spec = EncoderSpec.from_dict(meta["encoder_spec"])
        emit_counter("serve.registry.load")
        return self.register(name, encoder, spec, meta=meta, source=str(path))

    def get(self, name: str) -> RegisteredModel:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} in registry; registered: {self.names()}"
            ) from None

    def unregister(self, name: str) -> None:
        self._models.pop(name, None)
