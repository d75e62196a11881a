"""The shared :class:`EpochHook` protocol and the per-epoch emit path.

Every training loop in the repository — GCMAE's trainer and all baseline
loops — reports epoch progress through one funnel::

    from ..obs import emit_epoch
    ...
    emit_epoch("GRACE", epoch, loss.item(), optimizer=optimizer)

:func:`emit_epoch` builds an :class:`EpochEvent` and dispatches it to every
active hook.  Hooks come from two places:

* the thread-local stack installed with :class:`use_hooks` (this is how
  :func:`repro.obs.telemetry_run` attaches a
  :class:`~repro.obs.recorder.MetricsRecorder` to a whole run without the
  loops knowing about it), and
* ``extra_hooks`` passed by the caller, which is how
  :func:`repro.core.trainer.train_gcmae` forwards its per-call ``hooks``
  argument.

When no hook is active anywhere, :func:`emit_epoch` is a single function
call and a thread-local ``getattr`` — cheap enough to leave in every loop
unconditionally (guarded by the micro-benchmark in
``benchmarks/test_perf_regression.py``).

Gradient statistics are only computed when at least one active hook sets
``wants_gradients = True`` (the recorder does; a :class:`LambdaHook` does not
unless asked), so a Figure 4 probe never pays for norms it does not read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

_tls = threading.local()

_UNRESOLVED = object()


@dataclass
class EpochEvent:
    """One epoch of one training loop, as seen by every hook.

    Attributes
    ----------
    method:
        Display name of the method being trained (``"GCMAE"``, ``"DGI"``, …).
    epoch:
        Zero-based epoch index.
    loss:
        Total training loss of the epoch.
    parts:
        Named loss components (GCMAE's SCE / contrastive / structure /
        discrimination terms; empty for single-objective methods).
    epoch_seconds:
        Wall time of the epoch when the loop measured it, else ``None``
        (the recorder then falls back to its own inter-event clock).
    grad_norms:
        Per-parameter-group L2 gradient norms, grouped by the first dotted
        component of the parameter name (``encoder``, ``decoder``, …) when a
        model is available, else a single ``"all"`` group from the
        optimizer's flat list.  Only populated when an active hook asks for
        gradients.
    update_ratio:
        Mean Adam ``||update|| / ||param||`` across parameters (a learning
        health signal: ~1e-3 is healthy, ≫1e-2 is unstable, ~0 is stalled).
        ``None`` when unavailable or not requested.
    model:
        The live model, for probe hooks (may be ``None``).
    data:
        The training data the loop is iterating (a
        :class:`~repro.graph.data.Graph` for node-level methods), for hooks
        that need structure — the health monitor reads positive pairs off
        its edges.  ``None`` when the emitting loop has no data handle.
    embeddings_fn:
        Zero-argument callable returning the current frozen embeddings
        (``None`` when the emitting loop cannot embed mid-training).  Never
        called by the emit path itself: a hook that wants embeddings calls
        :meth:`embeddings`, which invokes it at most once per event, so
        loops pay for an inference forward only when a probe is attached.
    """

    method: str
    epoch: int
    loss: float
    parts: Dict[str, float] = field(default_factory=dict)
    epoch_seconds: Optional[float] = None
    grad_norms: Dict[str, float] = field(default_factory=dict)
    update_ratio: Optional[float] = None
    model: object = None
    data: object = None
    embeddings_fn: Optional[Callable[[], np.ndarray]] = None
    _embeddings: object = field(default=_UNRESOLVED, repr=False)

    def embeddings(self) -> Optional[np.ndarray]:
        """The epoch's frozen embeddings, computed lazily and cached.

        Returns ``None`` when the emitting loop provided no
        ``embeddings_fn``.  Multiple hooks on one event share a single
        inference forward.
        """
        if self._embeddings is _UNRESOLVED:
            self._embeddings = (
                None if self.embeddings_fn is None else self.embeddings_fn()
            )
        return self._embeddings


@runtime_checkable
class EpochHook(Protocol):
    """Anything that wants to observe per-epoch training progress."""

    def on_epoch(self, event: EpochEvent) -> None:
        """Called once per epoch with the epoch's :class:`EpochEvent`."""
        ...


class LambdaHook:
    """Adapt a plain ``fn(event)`` to the :class:`EpochHook` protocol."""

    wants_gradients = False

    def __init__(self, fn: Callable[[EpochEvent], None], wants_gradients: bool = False) -> None:
        self.fn = fn
        self.wants_gradients = wants_gradients

    def on_epoch(self, event: EpochEvent) -> None:
        self.fn(event)


def active_hooks() -> Tuple[EpochHook, ...]:
    """The thread-local hook stack (empty tuple when telemetry is off)."""
    return getattr(_tls, "hooks", ())


class use_hooks:
    """Context manager installing hooks on the thread-local stack.

    Nests: inner contexts extend (not replace) the outer stack, so a
    recorder installed around a whole table run keeps seeing epochs while a
    narrower probe hook is also active.
    """

    def __init__(self, *hooks: EpochHook) -> None:
        self.hooks = tuple(hooks)
        self._previous: Tuple[EpochHook, ...] = ()

    def __enter__(self) -> "use_hooks":
        self._previous = active_hooks()
        _tls.hooks = self._previous + self.hooks
        return self

    def __exit__(self, *exc_info) -> None:
        _tls.hooks = self._previous


def gradient_norms(model=None, optimizer=None) -> Dict[str, float]:
    """Per-parameter-group L2 gradient norms.

    With a model, parameters are grouped by the first dotted component of
    their :meth:`~repro.nn.module.Module.named_parameters` name; without
    one, the optimizer's flat list collapses into a single ``"all"`` group.
    """
    groups: Dict[str, float] = {}
    if model is not None and hasattr(model, "named_parameters"):
        for name, param in model.named_parameters():
            if param.grad is None:
                continue
            group = name.split(".", 1)[0]
            groups[group] = groups.get(group, 0.0) + float(
                np.sum(np.square(param.grad))
            )
    elif optimizer is not None:
        total = 0.0
        for param in optimizer.parameters:
            if param.grad is None:
                continue
            total += float(np.sum(np.square(param.grad)))
        groups["all"] = total
    return {name: float(np.sqrt(value)) for name, value in groups.items()}


def emit_epoch(
    method: str,
    epoch: int,
    loss: float,
    *,
    parts: Optional[Dict[str, float]] = None,
    seconds: Optional[float] = None,
    model=None,
    optimizer=None,
    data=None,
    embeddings_fn: Optional[Callable[[], np.ndarray]] = None,
    extra_hooks: Tuple[EpochHook, ...] = (),
) -> None:
    """Dispatch one epoch to every active hook (no-op when there are none)."""
    hooks = active_hooks() + tuple(extra_hooks)
    if not hooks:
        return
    grad_norms: Dict[str, float] = {}
    update_ratio: Optional[float] = None
    if any(getattr(hook, "wants_gradients", False) for hook in hooks):
        grad_norms = gradient_norms(model=model, optimizer=optimizer)
        ratio_fn = getattr(optimizer, "update_to_param_ratio", None)
        if ratio_fn is not None:
            update_ratio = ratio_fn()
    event = EpochEvent(
        method=method,
        epoch=epoch,
        loss=float(loss),
        parts=dict(parts) if parts else {},
        epoch_seconds=seconds,
        grad_norms=grad_norms,
        update_ratio=update_ratio,
        model=model,
        data=data,
        embeddings_fn=embeddings_fn,
    )
    for hook in hooks:
        hook.on_epoch(event)


def emit_counter(name: str, value: float = 1.0, **tags: object) -> None:
    """Increment a named counter on every active hook that keeps counters."""
    for hook in active_hooks():
        record = getattr(hook, "counter", None)
        if record is not None:
            record(name, value, **tags)


def emit_gauge(name: str, value: float, **tags: object) -> None:
    """Set a named gauge on every active hook that keeps gauges."""
    for hook in active_hooks():
        record = getattr(hook, "gauge", None)
        if record is not None:
            record(name, value, **tags)
