"""Functional operations built on the autograd :class:`~repro.nn.tensor.Tensor`.

These are the composite and graph-specific operations that models call
directly: sparse-dense matmul for message passing, softmax family, dropout,
normalisation, segment reductions for graph-level readout, and the standard
loss functions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

# Module-object import (not ``from .sparse import name``): repro.graph and
# repro.nn import each other, and binding the module keeps this file
# importable from either direction of that cycle.
from ..graph import sparse as graph_sparse
from .arena import matmul_into
from .kernels import spmm_data
from .profiler import profiled_op
from .tensor import Tensor, ensure_tensor, is_grad_enabled


# ---------------------------------------------------------------------------
# Graph primitives
# ---------------------------------------------------------------------------
@profiled_op("graph.spmm")
def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Fused sparse-constant @ dense-tensor product.

    ``matrix`` is treated as a constant (typically the normalised adjacency),
    so the gradient flows only into ``dense``:  ``d/dX (A @ X) = A^T @ grad``.
    The transpose used by the backward is resolved *at forward time* through
    :func:`repro.graph.sparse.cached_transpose`, so repeated backward passes
    over the same adjacency never re-materialise it.  Under
    :class:`~repro.nn.tensor.no_grad` no backward will ever run, so the
    transpose is neither resolved nor cached — inference over a one-shot
    adjacency (a serving micro-batch) touches only the forward product.

    For adjacencies tagged symmetric (:func:`repro.graph.sparse.mark_symmetric`)
    the "transpose" *is* the forward operand, so the backward reuses it and
    no transpose is ever built.  Products run through
    :func:`repro.nn.kernels.spmm_data` — thread-parallel when
    ``REPRO_NUM_THREADS`` > 1, arena-buffered inside a training loop, and
    bit-identical to the serial scipy product in every configuration.
    """
    if not sp.issparse(matrix):
        raise TypeError(f"spmm expects a scipy sparse matrix, got {type(matrix)!r}")
    dense = ensure_tensor(dense)
    data = spmm_data(matrix, dense.data)
    needs_backward = is_grad_enabled() and dense.requires_grad
    transposed = (
        graph_sparse.cached_transpose(matrix)
        if needs_backward and graph_sparse.cache_is_enabled()
        else None
    )

    def backward(grad: np.ndarray) -> None:
        if dense.requires_grad:
            if transposed is not None:
                dense._accumulate(spmm_data(transposed, grad))
            else:
                dense._accumulate(matrix.T @ grad)

    return Tensor._make(np.asarray(data), (dense,), backward)


@profiled_op("graph.spmm_linear")
def spmm_linear(matrix: sp.spmatrix, dense: Tensor, weight: Tensor) -> Tensor:
    """Fused message passing ``A @ (X W)`` with a single backward.

    This is the hot kernel of every GCN-style layer.  Fusing the projection
    and the sparse aggregation into one autograd node removes the
    intermediate ``X W`` tensor from the graph and shares the expensive
    ``A^T @ grad`` product between the two gradients::

        d/dX = (A^T grad) W^T        d/dW = X^T (A^T grad)

    As in :func:`spmm`, ``matrix`` is a constant and its transpose is cached.
    """
    if not sp.issparse(matrix):
        raise TypeError(f"spmm_linear expects a scipy sparse matrix, got {type(matrix)!r}")
    dense = ensure_tensor(dense)
    weight = ensure_tensor(weight)
    projected = matmul_into(dense.data, weight.data)
    data = spmm_data(matrix, projected)
    needs_backward = is_grad_enabled() and (dense.requires_grad or weight.requires_grad)
    transposed = (
        graph_sparse.cached_transpose(matrix)
        if needs_backward and graph_sparse.cache_is_enabled()
        else None
    )

    def backward(grad: np.ndarray) -> None:
        if not (dense.requires_grad or weight.requires_grad):
            return
        upstream = (
            spmm_data(transposed, grad) if transposed is not None else (matrix.T @ grad)
        )
        if dense.requires_grad:
            dense._accumulate(matmul_into(upstream, weight.data.T))
        if weight.requires_grad:
            weight._accumulate(matmul_into(dense.data.T, upstream))

    return Tensor._make(np.asarray(data), (dense, weight), backward)


def _segment_ids_and_counts(segment_ids: np.ndarray, num_segments: int):
    """Validated int64 segment ids, per-segment counts, and sortedness.

    Sorted ids are the block-diagonal batching case
    (:class:`repro.graph.batch.GraphBatch` builds ``node_to_graph`` in
    ascending order), where the reductions below use contiguous
    ``np.*.reduceat`` slices.  Unsorted ids (GAT's destinations) go through
    their incidence matrix (:func:`repro.graph.sparse.cached_incidence`),
    memoized when the id array is read-only.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.size:
        if int(segment_ids.min()) < 0 or int(segment_ids.max()) >= num_segments:
            raise ValueError(
                f"segment_ids must lie in [0, {num_segments}), got range "
                f"[{int(segment_ids.min())}, {int(segment_ids.max())}]"
            )
    counts = np.bincount(segment_ids, minlength=num_segments)
    is_sorted = segment_ids.size == 0 or bool(
        np.all(segment_ids[1:] >= segment_ids[:-1])
    )
    return segment_ids, counts, is_sorted


def _segment_reduce(ufunc, values: np.ndarray, counts: np.ndarray, fill: float):
    """``ufunc.reduceat`` over contiguous (sorted-id) segments.

    Empty segments receive ``fill`` — ``reduceat`` cannot represent them
    (a repeated index returns the element, not the identity), so the
    reduction runs over the non-empty segments only and is scattered back.
    """
    num_segments = len(counts)
    out = np.full((num_segments,) + values.shape[1:], fill, dtype=values.dtype)
    nonempty = counts > 0
    if values.size and nonempty.any():
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        out[nonempty] = ufunc.reduceat(values, starts[nonempty], axis=0)
    return out


@profiled_op("graph.segment.sum")
def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` grouped by ``segment_ids`` (graph readout).

    Sorted ``segment_ids`` (block-diagonal batches) take a vectorised
    ``np.add.reduceat`` path.  Unsorted ids (e.g. GAT's per-destination
    softmax) multiply by their 0/1 incidence matrix, which adds each
    segment's rows in index order, bit for bit as ``np.add.at`` would.
    Backward is a gather either way.

    The two paths can round the same segment differently: ``reduceat``
    need not add a segment's rows one after another (a 5-row segment of
    1-D values and a 3-row segment of 3-D values came out different in
    the last bits), so the bits of a segment's sum depend on whether the
    whole id array is sorted.
    """
    values = ensure_tensor(values)
    segment_ids, counts, is_sorted = _segment_ids_and_counts(segment_ids, num_segments)
    if is_sorted:
        out = _segment_reduce(np.add, values.data, counts, 0.0)
    else:
        incidence = graph_sparse.cached_incidence(
            segment_ids, num_segments, values.data.dtype
        )
        out = incidence.sum_rows(values.data)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out, (values,), backward)


@profiled_op("graph.segment.mean")
def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean of rows of ``values`` grouped by ``segment_ids``.

    A single fused autograd node: the division by segment size is folded
    into both the forward buffer and the backward gather, instead of the
    separate sum and scale nodes the composite formulation builds.  Empty
    segments yield zero rows.  The sum runs as in :func:`segment_sum`, so
    its bits too depend on whether the whole id array is sorted.
    """
    values = ensure_tensor(values)
    segment_ids, counts, is_sorted = _segment_ids_and_counts(segment_ids, num_segments)
    inv_counts = 1.0 / np.maximum(counts, 1).astype(values.data.dtype)
    if is_sorted:
        out = _segment_reduce(np.add, values.data, counts, 0.0)
    else:
        incidence = graph_sparse.cached_incidence(
            segment_ids, num_segments, values.data.dtype
        )
        out = incidence.sum_rows(values.data)
    out *= inv_counts.reshape((num_segments,) + (1,) * (out.ndim - 1))

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            scale = inv_counts[segment_ids].reshape(
                (len(segment_ids),) + (1,) * (grad.ndim - 1)
            )
            values._accumulate(grad[segment_ids] * scale)

    return Tensor._make(out, (values,), backward)


@profiled_op("graph.segment.max")
def segment_max(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Row-wise max of ``values`` grouped by ``segment_ids``.

    Empty segments yield ``-inf`` rows.  Gradient is routed to every
    element attaining its segment's maximum.  Unsorted ids are first
    grouped by a stable sort (their incidence's ``order``), so the same
    ``np.maximum.reduceat`` pass serves both; a max does not depend on
    the order it visits a segment in.
    """
    values = ensure_tensor(values)
    segment_ids, counts, is_sorted = _segment_ids_and_counts(segment_ids, num_segments)
    if is_sorted:
        out = _segment_reduce(np.maximum, values.data, counts, -np.inf)
    else:
        incidence = graph_sparse.cached_incidence(
            segment_ids, num_segments, values.data.dtype
        )
        grouped = values.data[incidence.order]
        out = _segment_reduce(np.maximum, grouped, counts, -np.inf)

    def backward(grad: np.ndarray) -> None:
        if not values.requires_grad:
            return
        mask = values.data == out[segment_ids]
        values._accumulate(grad[segment_ids] * mask)

    return Tensor._make(out, (values,), backward)


# ---------------------------------------------------------------------------
# Activations and normalisation
# ---------------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return ensure_tensor(x).relu()


@profiled_op("nn.leaky_relu")
def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    x = ensure_tensor(x)
    data = np.where(x.data > 0.0, x.data, negative_slope * x.data)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0.0, 1.0, negative_slope))

    return Tensor._make(data, (x,), backward)


@profiled_op("nn.elu")
def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    x = ensure_tensor(x)
    exp_part = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    data = np.where(x.data > 0.0, x.data, exp_part)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * np.where(x.data > 0.0, 1.0, exp_part + alpha))

    return Tensor._make(data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Tanh approximation of GELU."""
    x = ensure_tensor(x)
    c = np.sqrt(2.0 / np.pi)
    inner = (x * c) * (1.0 + (x * x) * 0.044715)
    return x * 0.5 * (inner.tanh() + 1.0)


@profiled_op("nn.softmax")
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused softmax: one output buffer, in-place shift/exp/normalise.

    The composite formulation (`exp(x - max) / sum`) allocates four
    intermediate tensors and five graph nodes per call; this primitive
    reuses a single buffer for the forward and applies the analytic
    backward ``s * (g - sum(g * s))`` in one step.
    """
    x = ensure_tensor(x)
    out = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            scaled = grad * out
            scaled -= out * scaled.sum(axis=axis, keepdims=True)
            x._accumulate(scaled)

    return Tensor._make(out, (x,), backward)


@profiled_op("nn.log_softmax")
def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Fused log-softmax with analytic backward ``g - softmax * sum(g)``."""
    x = ensure_tensor(x)
    out = x.data - x.data.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad - np.exp(out) * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out, (x,), backward)


@profiled_op("nn.layer_norm")
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer normalisation over the last axis.

    Replaces the ~8-node composite (mean, var, sub, div, mul, add …) the
    :class:`~repro.nn.layers.LayerNorm` module used to build, reusing the
    centred buffer for the normalised output and applying the closed-form
    gradient in a single backward step.
    """
    x = ensure_tensor(x)
    gamma = ensure_tensor(gamma)
    beta = ensure_tensor(beta)
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    variance = np.mean(centered * centered, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(variance + eps)
    x_hat = centered
    x_hat *= inv_std
    out = x_hat * gamma.data + beta.data

    def backward(grad: np.ndarray) -> None:
        reduce_axes = tuple(range(grad.ndim - 1))
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=reduce_axes))
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=reduce_axes))
        if x.requires_grad:
            d_hat = grad * gamma.data
            term_mean = d_hat.mean(axis=-1, keepdims=True)
            term_proj = (d_hat * x_hat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (d_hat - term_mean - x_hat * term_proj))

    return Tensor._make(out, (x, gamma, beta), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by ``1/(1-p)`` at train time."""
    if not training or p <= 0.0:
        return ensure_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must lie in [0, 1), got {p}")
    x = ensure_tensor(x)
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask.astype(x.data.dtype))


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalise rows to unit L2 norm (differentiable)."""
    x = ensure_tensor(x)
    norm = ((x * x).sum(axis=axis, keepdims=True) + eps) ** 0.5
    return x / norm


def cosine_similarity(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Row-wise cosine similarity between equally-shaped tensors."""
    return (l2_normalize(a, axis=axis, eps=eps) * l2_normalize(b, axis=axis, eps=eps)).sum(axis=axis)


def cosine_similarity_matrix(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """All-pairs cosine similarity: result[i, j] = cos(a_i, b_j)."""
    return l2_normalize(a, eps=eps) @ l2_normalize(b, eps=eps).T


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------
def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    prediction = ensure_tensor(prediction)
    target = ensure_tensor(target).detach()
    diff = prediction - target
    return (diff * diff).mean()


def binary_cross_entropy(probabilities: Tensor, targets: Tensor, eps: float = 1e-7) -> Tensor:
    """BCE over probabilities in (0, 1); clamps for numerical stability."""
    probabilities = ensure_tensor(probabilities).clip(eps, 1.0 - eps)
    targets = ensure_tensor(targets).detach()
    loss = -(targets * probabilities.log() + (1.0 - targets) * (1.0 - probabilities).log())
    return loss.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Numerically-stable BCE from raw logits."""
    logits = ensure_tensor(logits)
    targets = ensure_tensor(targets).detach()
    # max(x, 0) - x*z + log(1 + exp(-|x|))
    relu_part = logits.relu()
    abs_part = logits.abs()
    softplus = ((-abs_part).exp() + 1.0).log()
    return (relu_part - logits * targets + softplus).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Softmax cross-entropy with integer class labels."""
    logits = ensure_tensor(logits)
    labels = np.asarray(labels)
    logp = log_softmax(logits, axis=-1)
    rows = np.arange(logits.shape[0])
    return -logp[rows, labels].mean()


def nll_loss(log_probabilities: Tensor, labels: np.ndarray) -> Tensor:
    """Negative log-likelihood given precomputed log-probabilities."""
    log_probabilities = ensure_tensor(log_probabilities)
    labels = np.asarray(labels)
    rows = np.arange(log_probabilities.shape[0])
    return -log_probabilities[rows, labels].mean()
