"""Reverse-mode automatic differentiation over numpy arrays.

This module provides the :class:`Tensor` class, the computational substrate
for every model in this repository.  A ``Tensor`` wraps a ``numpy.ndarray``
and records the operations applied to it so that :meth:`Tensor.backward` can
propagate gradients to every upstream tensor with ``requires_grad=True``.

Design notes
------------
* Gradients are accumulated (summed) into ``Tensor.grad``, matching the
  semantics of mainstream frameworks.  Call :meth:`Tensor.zero_grad` (or use
  an optimizer) between steps.
* Broadcasting follows numpy rules; gradients are "unbroadcast" (summed over
  the broadcast axes) on the way back.
* Sparse adjacency matrices participate through :func:`spmm` in
  :mod:`repro.nn.functional`; the sparse operand is a constant and the
  gradient flows only into the dense side.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

# Module-object import, as in repro.nn.functional: repro.graph and repro.nn
# import each other.
from ..graph import sparse as graph_sparse
from .arena import matmul_into
from .dtype import as_float_array
from .profiler import profiled_op

Arrayable = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """The grad-mode flag, kept per thread; every new thread starts enabled."""

    enabled = True


_grad_mode = _GradMode()


class no_grad:
    """Context manager (and decorator) that disables graph construction.

    Inside a ``with no_grad():`` block every operation produces constant
    tensors, which makes pure-inference passes cheaper and prevents the
    training graph from retaining evaluation work.  The mode belongs to the
    calling thread, so a serving thread's ``no_grad`` never turns off
    gradient recording in a thread that trains.  Beyond not storing
    parents/backward closures, grad-aware kernels consult
    :func:`is_grad_enabled` at forward time to skip work that only exists
    for the backward pass (e.g. :func:`repro.nn.functional.spmm` resolving
    the cached adjacency transpose) — this is the inference fast path the
    serving layer (:mod:`repro.serve`) rides.

    Usable as a decorator too::

        @no_grad()
        def embed(graph): ...
    """

    def __enter__(self) -> "no_grad":
        self._previous = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _grad_mode.enabled = self._previous

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def is_grad_enabled() -> bool:
    """Return whether operations in this thread record the autograd graph."""
    return _grad_mode.enabled


def _as_array(value: Arrayable) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    # Coercion follows the process dtype policy (repro.nn.dtype): floats
    # narrower than the policy pass through untouched, wider floats are
    # narrowed, and everything else is promoted to the policy dtype.
    return as_float_array(value)


def ensure_tensor(value: Arrayable) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no-op for tensors)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _index_selects_once(index) -> bool:
    """True when a non-integer-array ``index`` selects each element at most once.

    Such indices admit plain assignment in the ``__getitem__`` backward
    instead of ``np.add.at``; unknown shapes conservatively return False.
    Integer arrays are answered by their incidence matrix instead.
    """
    if isinstance(index, np.ndarray):
        return index.dtype == np.bool_
    if isinstance(index, tuple):
        return all(
            isinstance(part, (int, np.integer, slice, type(Ellipsis), type(None)))
            for part in index
        )
    return isinstance(index, (int, np.integer, slice))


class Tensor:
    """A numpy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``.  Integral inputs are
        promoted to the policy dtype (:func:`repro.nn.dtype.default_dtype`,
        ``float64`` unless configured otherwise).
    requires_grad:
        Whether gradients should be accumulated for this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: Arrayable, requires_grad: bool = False) -> None:
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad) and _grad_mode.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=16)}{grad_flag})"

    def item(self) -> float:
        """Return the sole element of a scalar tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, not a copy)."""
        return self.data

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _make(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor wired into the autograd graph."""
        requires = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def detach(self) -> "Tensor":
        """Return a view of this tensor severed from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1.0`` and is only optional for
            scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        order = self._topological_order()
        self._accumulate(grad)
        for node in order:
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free the graph as we go: interior gradients are not needed
                # once their backward hook has fired (leaves keep theirs).
                if node._parents:
                    node.grad = None
            node._backward = None
            node._parents = ()

    def _topological_order(self) -> list:
        order: list = []
        visited: set = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other).__sub__(self)

    def __mul__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        return ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log composition")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: Arrayable) -> "Tensor":
        other = ensure_tensor(other)
        # Bit-identical to ``a @ b``; inside a training loop the output
        # lands in a recycled arena buffer instead of a fresh allocation.
        data = matmul_into(self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data)
                else:
                    self._accumulate(matmul_into(grad, other.data.swapaxes(-1, -2)))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad))
                else:
                    other._accumulate(matmul_into(self.data.swapaxes(-1, -2), grad))

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            g = np.broadcast_to(g, self.shape)
            if g.dtype != self.dtype:
                g = g.astype(self.dtype)
            # Pass the broadcast view directly: _accumulate copies on first
            # write and `+=` broadcasts on its own, so materialising here
            # would just duplicate that work.
            self._accumulate(g)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def std(self, axis: Optional[int] = None, keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        return (self.var(axis=axis, keepdims=keepdims) + eps) ** 0.5

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                d = np.expand_dims(d, axis)
            mask = (self.data == d).astype(self.dtype)
            # Split gradient between ties, matching numpy's subgradient choice.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes)
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            gather = isinstance(index, np.ndarray) and index.dtype.kind in "iu"
            if gather:
                incidence = graph_sparse.cached_incidence(index, len(self.data), self.dtype)
                if not incidence.distinct:
                    # Rows gathered more than once (or through a negative
                    # index) sum their gradients.  The incidence product
                    # adds them in index order, bit for bit as np.add.at.
                    rows = grad.reshape((index.size,) + self.shape[1:])
                    self._accumulate(incidence.sum_rows(rows))
                    return
            full = np.zeros_like(self.data)
            if gather or _index_selects_once(index):
                full[index] = grad
            else:
                # Multi-axis fancy indices (a tuple holding arrays, such as
                # ``logp[rows, labels]``): numpy's own scatter-add.
                np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (primitive forms)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0.0))

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient is passed through inside the interval."""
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * inside)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(data, (self,), backward)


# ---------------------------------------------------------------------------
# Profiler instrumentation
# ---------------------------------------------------------------------------
# Primitive ops are wrapped at class-definition time so that an active
# ``repro.nn.profiler`` session records name / calls / wall time / bytes for
# both the forward computation and (via the backward-closure wrap inside
# ``profiled_op``) the backward pass.  Composites built from these primitives
# (``mean``, ``var``, ``std``, ``sqrt``) are intentionally not listed: their
# cost already lands on the primitives they call.
_PROFILED_METHODS = {
    "__add__": "tensor.add",
    "__radd__": "tensor.add",
    "__sub__": "tensor.sub",
    "__rsub__": "tensor.sub",
    "__mul__": "tensor.mul",
    "__rmul__": "tensor.mul",
    "__truediv__": "tensor.div",
    "__rtruediv__": "tensor.div",
    "__neg__": "tensor.neg",
    "__pow__": "tensor.pow",
    "__matmul__": "tensor.matmul",
    "sum": "tensor.sum",
    "max": "tensor.max",
    "reshape": "tensor.reshape",
    "transpose": "tensor.transpose",
    "__getitem__": "tensor.getitem",
    "exp": "tensor.exp",
    "log": "tensor.log",
    "tanh": "tensor.tanh",
    "sigmoid": "tensor.sigmoid",
    "relu": "tensor.relu",
    "clip": "tensor.clip",
    "abs": "tensor.abs",
}

for _method, _op_name in _PROFILED_METHODS.items():
    setattr(Tensor, _method, profiled_op(_op_name)(getattr(Tensor, _method)))
del _method, _op_name


@profiled_op("tensor.concatenate")
def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tensors, backward)


@profiled_op("tensor.stack")
def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        parts = np.split(grad, len(tensors), axis=axis)
        for tensor, part in zip(tensors, parts):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(part, axis=axis))

    return Tensor._make(data, tensors, backward)
