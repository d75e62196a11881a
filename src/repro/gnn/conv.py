"""Graph convolution layers: GCN, GraphSAGE, GAT, and GIN.

All layers consume a precomputed scipy-sparse structure operand (treated as a
constant by autograd) plus a dense feature :class:`~repro.nn.tensor.Tensor`.
The paper's encoders use GAT (GraphMAE backbone) and GraphSAGE (GCMAE /
MaskGAE, for subgraph mini-batching); GCN and GIN serve the supervised and
graph-classification baselines.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graph.sparse import (
    add_self_loops,
    memoized_on_matrix,
    normalized_adjacency,
    to_csr,
)
from ..nn import functional as F
from ..nn import init
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.profiler import active_session
from ..nn.tensor import Tensor


class GCNConv(Module):
    """Kipf & Welling graph convolution: ``Â X W`` with ``Â`` sym-normalised.

    The layer expects the *normalised* adjacency (with self loops); use
    :meth:`repro.graph.data.Graph.normalized_adjacency`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, norm_adjacency: sp.csr_matrix, x: Tensor) -> Tensor:
        # Fused projection + aggregation: one autograd node for A @ (X W).
        out = F.spmm_linear(norm_adjacency, x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class SAGEConv(Module):
    """GraphSAGE with mean aggregation: ``W_self x + W_neigh mean(A x)``.

    Expects the *row-normalised* adjacency (without self loops) so that the
    sparse product computes the neighbourhood mean.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.weight_self = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.weight_neigh = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, row_norm_adjacency: sp.csr_matrix, x: Tensor) -> Tensor:
        neighbor_mean = F.spmm(row_norm_adjacency, x)
        out = x @ self.weight_self + neighbor_mean @ self.weight_neigh
        if self.bias is not None:
            out = out + self.bias
        return out


class GATConv(Module):
    """Graph attention layer (Velickovic et al.) over a sparse edge set.

    Attention is computed per directed edge (self loops included), softmaxed
    over each destination's in-neighbourhood, and used to aggregate projected
    source features.  Multi-head outputs are concatenated (or averaged when
    ``concat=False``, as in final layers).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int = 1,
        concat: bool = True,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if heads < 1:
            raise ValueError(f"heads must be >= 1, got {heads}")
        rng = rng if rng is not None else np.random.default_rng()
        self.heads = heads
        self.out_features = out_features
        self.concat = concat
        self.negative_slope = negative_slope
        self.weight = Parameter(
            init.xavier_uniform((in_features, heads * out_features), rng)
        )
        self.attn_src = Parameter(init.xavier_uniform((heads, out_features), rng))
        self.attn_dst = Parameter(init.xavier_uniform((heads, out_features), rng))
        self.bias = Parameter(
            init.zeros((heads * out_features,) if concat else (out_features,))
        )

    def forward(self, adjacency: sp.csr_matrix, x: Tensor) -> Tensor:
        """``adjacency`` is the raw (unnormalised) adjacency; self loops are added."""
        n = adjacency.shape[0]
        src, dst = memoized_on_matrix(
            adjacency, "gat-edges", lambda: _self_loop_edges(adjacency)
        )

        h = (x @ self.weight).reshape(n, self.heads, self.out_features)
        # Per-node attention halves: (N, heads)
        alpha_src = (h * self.attn_src).sum(axis=-1)
        alpha_dst = (h * self.attn_dst).sum(axis=-1)
        # Per-edge raw scores: (E, heads)
        scores = F.leaky_relu(alpha_src[src] + alpha_dst[dst], self.negative_slope)

        # Softmax over each destination's incoming edges (per head), shifted
        # by the destination's top score clamped at 0.  The shift is a
        # constant: no gradient flows through it.
        top = F.segment_max(scores.detach(), dst, n).data
        score_max = np.maximum(np.zeros((n, self.heads)), top)
        shifted = scores - Tensor(score_max[dst])
        exp_scores = shifted.exp()
        denom = F.segment_sum(exp_scores, dst, n)
        coefficients = exp_scores / (denom[dst] + 1e-16)

        weighted = h[src] * coefficients.reshape(len(src), self.heads, 1)
        out = F.segment_sum(weighted, dst, n)
        if self.concat:
            out = out.reshape(n, self.heads * self.out_features)
        else:
            out = out.mean(axis=1)
        return out + self.bias


class GINConv(Module):
    """Graph isomorphism layer: ``MLP((1 + eps) x + sum(A x))``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        hidden_features: Optional[int] = None,
        train_eps: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        hidden = hidden_features if hidden_features is not None else out_features
        self.mlp = MLP(in_features, [hidden], out_features, activation="relu", rng=rng)
        self.eps = Parameter(np.zeros(1)) if train_eps else None

    def forward(self, adjacency: sp.csr_matrix, x: Tensor) -> Tensor:
        """``adjacency`` is the raw (binary) adjacency: GIN uses sum aggregation."""
        operand = memoized_on_matrix(adjacency, "gin-csr", lambda: to_csr(adjacency))
        aggregated = F.spmm(operand, x)
        if self.eps is not None:
            combined = x * (1.0 + self.eps) + aggregated
        else:
            combined = x + aggregated
        return self.mlp(combined)


def _self_loop_edges(adjacency: sp.spmatrix):
    """(src, dst) arrays of the adjacency with self loops, for GAT attention.

    Read-only int64, so the segment ops and gathers over them find their
    memoized incidence matrices (:func:`repro.graph.sparse.cached_incidence`)
    instead of rebuilding them every forward.
    """
    coo = sp.coo_matrix(add_self_loops(adjacency))
    edges = (coo.row.astype(np.int64), coo.col.astype(np.int64))
    for ids in edges:
        ids.flags.writeable = False
    return edges


def structure_operand(conv_type: str, adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """The sparse operand each conv type expects, built once per adjacency.

    * ``gcn``  — symmetrically-normalised adjacency with self loops,
    * ``sage`` — row-normalised adjacency (mean aggregation),
    * ``gat`` / ``gin`` — the raw adjacency.

    Results are memoized against the adjacency's identity (see
    :func:`repro.graph.sparse.memoized_on_matrix`), so training loops that
    call the encoder every epoch normalise each adjacency exactly once.
    A profiler session records cache-miss builds under ``graph.structure``.
    """
    if conv_type not in ("gcn", "sage", "gat", "gin"):
        raise ValueError(f"unknown conv type {conv_type!r}; use gcn/sage/gat/gin")

    def build() -> sp.csr_matrix:
        session = active_session()
        start = time.perf_counter() if session is not None else 0.0
        if conv_type == "gcn":
            operand = normalized_adjacency(adjacency, self_loops=True, mode="symmetric")
        elif conv_type == "sage":
            operand = normalized_adjacency(adjacency, self_loops=False, mode="row")
        else:
            operand = to_csr(adjacency)
        if session is not None:
            session.record(
                "graph.structure", time.perf_counter() - start, int(operand.data.nbytes)
            )
        return operand

    return memoized_on_matrix(adjacency, ("operand", conv_type), build)
