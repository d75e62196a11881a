"""The single training loop shared by GCMAE and every baseline.

``TrainLoop`` owns what the repo's twenty hand-rolled loops used to copy:
epoch iteration, ``zero_grad``/``backward``/``step`` around each
:meth:`~repro.engine.method.Method.loss_step`, per-epoch loss/parts
aggregation, profiler epoch marks, :func:`~repro.obs.hooks.emit_epoch`
telemetry, plateau early stopping with optional best-weight restore, and
atomic checkpoint/resume.

Checkpointing can be configured per loop (``checkpoint_dir=...``) or
ambiently for a whole run with :class:`checkpointing`::

    with engine.checkpointing("ckpts", every=10, resume=True):
        ex.run_table4()          # every inner TrainLoop now checkpoints

which is how ``repro pretrain --checkpoint-dir ... --resume`` reaches
loops buried inside table runners without threading arguments through
every caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..nn.arena import BufferArena, arena_enabled, use_arena
from ..nn.profiler import active_session
from ..obs.hooks import EpochHook, emit_epoch
from .checkpoint import load_checkpoint, save_checkpoint
from .method import Method, TrainState

_tls = threading.local()


@dataclass(frozen=True)
class EarlyStopping:
    """Plateau-based early stopping, generalising the supervised baseline.

    Attributes
    ----------
    patience:
        Stop after this many consecutive epochs without improvement.
    monitor:
        ``"loss"`` (the default plateau criterion) or any key of the
        epoch's parts/metrics dict (the supervised baselines monitor
        ``val_accuracy``).
    mode:
        ``"min"`` when smaller is better, ``"max"`` otherwise.
    min_delta:
        Minimum change that counts as an improvement (strict comparison
        when ``0.0``).
    restore_best:
        Snapshot module weights on every improvement and restore the best
        snapshot when the loop ends.
    """

    patience: int
    monitor: str = "loss"
    mode: str = "min"
    min_delta: float = 0.0
    restore_best: bool = False

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.mode not in ("min", "max"):
            raise ValueError(f"mode must be 'min' or 'max', got {self.mode!r}")
        if self.min_delta < 0.0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")

    def improved(self, value: float, best: Optional[float]) -> bool:
        if best is None:
            return True
        if self.mode == "min":
            return value < best - self.min_delta
        return value > best + self.min_delta


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where and how often a loop checkpoints, and whether it resumes."""

    directory: str
    every: int = 1
    resume: bool = False

    def __post_init__(self) -> None:
        if self.every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {self.every}")


class checkpointing:
    """Context manager installing an ambient :class:`CheckpointPolicy`.

    Any :class:`TrainLoop` run inside the context that was not given an
    explicit ``checkpoint_dir`` inherits the ambient policy.  Nesting
    shadows (innermost wins); the thread-local scoping mirrors
    :class:`repro.obs.hooks.use_hooks`.
    """

    def __init__(self, directory: str, every: int = 1, resume: bool = False) -> None:
        self.policy = CheckpointPolicy(str(directory), every=every, resume=resume)
        self._previous: Optional[CheckpointPolicy] = None

    def __enter__(self) -> "checkpointing":
        self._previous = active_checkpoint_policy()
        _tls.policy = self.policy
        return self

    def __exit__(self, *exc_info) -> None:
        _tls.policy = self._previous


def active_checkpoint_policy() -> Optional[CheckpointPolicy]:
    """The ambient policy installed by :class:`checkpointing`, if any."""
    return getattr(_tls, "policy", None)


@dataclass
class LoopResult:
    """Outcome of one :meth:`TrainLoop.run`."""

    state: TrainState
    loss_history: List[float] = field(default_factory=list)
    parts_history: List[Dict[str, float]] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    train_seconds: float = 0.0
    epochs_run: int = 0
    stopped_early: bool = False
    best_metric: Optional[float] = None
    resumed_from: Optional[int] = None


def _slug(text: object) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_.-]+", "-", str(text)).strip("-.").lower()
    return cleaned or "data"


def _frozen_embed_fn(method: Method, state, data):
    """A mid-training ``() -> embeddings`` closure for probe hooks.

    Only invoked when an attached hook (the health monitor) asks the epoch
    event for embeddings; restores every module's train/eval flag so the
    probe cannot perturb the run.  ``Method.embed`` implementations use
    inference mode and consume no training RNG, which keeps monitored runs
    bit-identical to unmonitored ones.
    """

    def embed() -> np.ndarray:
        flags = {name: module.training for name, module in state.modules.items()}
        try:
            return method.embed(state, data)
        finally:
            for name, module in state.modules.items():
                if flags[name]:
                    module.train()
                else:
                    module.eval()

    return embed


class TrainLoop:
    """Method-agnostic epoch loop with telemetry, stopping, and resume."""

    def __init__(
        self,
        epochs: int,
        early_stopping: Optional[EarlyStopping] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> None:
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        self.epochs = epochs
        self.early_stopping = early_stopping
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.resume = resume

    # ------------------------------------------------------------------
    def _policy(self) -> Optional[CheckpointPolicy]:
        if self.checkpoint_dir is not None:
            return CheckpointPolicy(
                self.checkpoint_dir, every=self.checkpoint_every, resume=self.resume
            )
        return active_checkpoint_policy()

    def _checkpoint_path(
        self, policy: CheckpointPolicy, method: Method, data, seed: int, config: Optional[dict]
    ) -> str:
        """``<method>-<data>-seed<seed>[-<config digest>].npz`` in the policy dir.

        The digest leaves out ``epochs``, so a longer run resumes a shorter
        one's file, while runs of other configs never share it.
        """
        data_tag = _slug(getattr(data, "name", None) or "data")
        name = f"{_slug(method.name)}-{data_tag}-seed{seed}"
        if config is not None:
            trimmed = {key: value for key, value in config.items() if key != "epochs"}
            blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
            name += "-" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:10]
        return os.path.join(policy.directory, name + ".npz")

    # ------------------------------------------------------------------
    def run(
        self,
        method: Method,
        data,
        seed: int = 0,
        hooks: Sequence[EpochHook] = (),
    ) -> LoopResult:
        """Train ``method`` on ``data``; see the module docstring for order."""
        hooks = tuple(hooks)
        rng = np.random.default_rng(seed)
        state = method.build(data, rng)
        state.seed = seed
        result = LoopResult(state=state)

        best: Optional[float] = None
        best_snapshot: Optional[Dict[str, Dict[str, np.ndarray]]] = None
        stall = 0
        stopped = False
        start_epoch = 0
        elapsed_before = 0.0

        policy = self._policy()
        config = method.resolved_config() if policy else None
        ckpt_path = self._checkpoint_path(policy, method, data, seed, config) if policy else None
        if policy and policy.resume and ckpt_path and os.path.exists(ckpt_path):
            meta = load_checkpoint(ckpt_path, state)
            start_epoch = int(meta["epoch"])
            result.loss_history = [float(x) for x in meta["loss_history"]]
            result.parts_history = [dict(p) for p in meta["parts_history"]]
            result.epoch_seconds = [float(x) for x in meta["epoch_seconds"]]
            elapsed_before = float(meta["elapsed_seconds"])
            stopping = meta.get("early_stopping", {})
            best = stopping.get("best")
            stall = int(stopping.get("stall", 0))
            stopped = bool(stopping.get("stopped", False))
            best_snapshot = meta.get("best_snapshot")
            method.load_extra_state(state, meta.get("extra", {}))
            result.resumed_from = start_epoch
            result.epochs_run = start_epoch

        session = active_session()
        stopping_cfg = self.early_stopping
        # One buffer arena per run: forward/backward product buffers are
        # recycled across steps (epoch-1 warmup is allocation-bound), and
        # escape detection in advance() makes reuse safe regardless of what
        # methods or hooks retain.  REPRO_ARENA=0 disables it.
        arena = BufferArena() if arena_enabled() else None
        arena_scope = use_arena(arena)
        start_time = time.perf_counter()
        for epoch in range(start_epoch, self.epochs):
            if stopped:
                break  # resumed a run that had already early-stopped
            result.epochs_run = epoch + 1
            epoch_start = time.perf_counter()
            method.begin_epoch(state, data, epoch)

            step_losses: List[float] = []
            step_parts: List[Dict[str, float]] = []
            with arena_scope:
                for payload in method.steps(state, data, epoch):
                    state.optimizer.zero_grad()
                    loss, parts = method.loss_step(state, data, epoch, payload)
                    loss.backward()
                    state.optimizer.step()
                    method.after_step(state, data, epoch, payload)
                    step_losses.append(loss.item())
                    if parts:
                        step_parts.append(parts)
                    if arena is not None:
                        arena.advance()

            epoch_loss = float(np.mean(step_losses)) if step_losses else 0.0
            parts = (
                {
                    key: float(np.mean([p[key] for p in step_parts]))
                    for key in step_parts[0]
                }
                if step_parts
                else {}
            )
            metrics = method.epoch_metrics(state, data, epoch, epoch_loss)
            if metrics:
                parts.update(metrics)

            result.loss_history.append(epoch_loss)
            result.parts_history.append(parts)
            epoch_elapsed = time.perf_counter() - epoch_start
            result.epoch_seconds.append(epoch_elapsed)
            if session is not None:
                session.mark_epoch(epoch_elapsed)
            emit_epoch(
                method.name,
                epoch,
                epoch_loss,
                parts=parts or None,
                seconds=epoch_elapsed,
                model=state.telemetry_model,
                optimizer=state.optimizer,
                data=data,
                embeddings_fn=_frozen_embed_fn(method, state, data),
                extra_hooks=hooks,
            )
            method.end_epoch(state, data, epoch, epoch_loss)

            if stopping_cfg is not None:
                value = (
                    epoch_loss
                    if stopping_cfg.monitor == "loss"
                    else parts.get(stopping_cfg.monitor)
                )
                if value is not None:
                    if stopping_cfg.improved(value, best):
                        best = value
                        stall = 0
                        if stopping_cfg.restore_best:
                            best_snapshot = state.module_state()
                    else:
                        stall += 1
                        if stall >= stopping_cfg.patience:
                            stopped = True

            if policy and ckpt_path and (
                (epoch + 1) % policy.every == 0
                or epoch + 1 == self.epochs
                or stopped
            ):
                save_checkpoint(
                    ckpt_path,
                    state,
                    meta={
                        "epoch": epoch + 1,
                        "method": method.name,
                        "seed": seed,
                        "config": config,
                        "loss_history": result.loss_history,
                        "parts_history": result.parts_history,
                        "epoch_seconds": result.epoch_seconds,
                        "elapsed_seconds": elapsed_before
                        + (time.perf_counter() - start_time),
                        "early_stopping": {
                            "best": best,
                            "stall": stall,
                            "stopped": stopped,
                        },
                        "extra": method.extra_state(state),
                    },
                    best_snapshot=best_snapshot,
                )
            if stopped:
                break

        result.train_seconds = elapsed_before + (time.perf_counter() - start_time)
        result.stopped_early = stopped
        result.best_metric = best
        if (
            stopping_cfg is not None
            and stopping_cfg.restore_best
            and best_snapshot is not None
        ):
            state.load_module_state(best_snapshot)
        return result
