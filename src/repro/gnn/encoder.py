"""Configurable multi-layer GNN encoder/decoder stacks.

The same class serves as the shared encoder ``f_E`` and the GNN decoder
``f_D`` of GCMAE (paper Fig. 3) and as the backbone of every baseline; the
conv type, depth, width, activation and dropout are all configurable, which
is what the paper's Figure 6 sweeps.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from ..graph.data import as_node_ids
from ..graph.sparse import (
    cached_transpose,
    csr_row_slots,
    is_marked_symmetric,
    memoized_on_matrix,
)
from ..nn.layers import Dropout, PReLU, resolve_activation
from ..nn.module import Module, ModuleList
from ..nn.tensor import Tensor, no_grad
from ..registry import ENCODERS, register_encoder
from .conv import GATConv, GCNConv, GINConv, SAGEConv, structure_operand


def ensure_features(features) -> Tensor:
    """Coerce a feature matrix (array or tensor) into a constant Tensor."""
    if isinstance(features, Tensor):
        return features
    return Tensor(np.asarray(features))


# Conv-layer builders share one signature:
# ``fn(in_features, out_features, rng, heads, final) -> Module``.
@register_encoder("gcn", order=10)
def _gcn_conv(in_features, out_features, rng, heads=1, final=False):
    return GCNConv(in_features, out_features, rng=rng)


@register_encoder("sage", order=20)
def _sage_conv(in_features, out_features, rng, heads=1, final=False):
    return SAGEConv(in_features, out_features, rng=rng)


@register_encoder("gat", order=30)
def _gat_conv(in_features, out_features, rng, heads=1, final=False):
    # Hidden GAT layers concatenate heads; the final layer averages them.
    if final:
        return GATConv(in_features, out_features, heads=heads, concat=False, rng=rng)
    if out_features % heads != 0:
        raise ValueError(
            f"hidden size {out_features} not divisible by {heads} attention heads"
        )
    return GATConv(in_features, out_features // heads, heads=heads, concat=True, rng=rng)


@register_encoder("gin", order=40)
def _gin_conv(in_features, out_features, rng, heads=1, final=False):
    return GINConv(in_features, out_features, rng=rng)


def _destination_descent(adjacency: sp.csr_matrix) -> np.ndarray:
    """Nodes whose edges leave GAT's destination ids unsorted, or none.

    GAT lists its self-looped edges row by row, each row's destinations
    ascending, so the list is unsorted exactly where some row ``r`` ends
    above where row ``r + 1`` starts.  The first such ``r``, ``r + 1`` and
    those two destinations keep that descent in any block holding them.
    """
    indptr, indices = adjacency.indptr, adjacency.indices
    ids = np.arange(adjacency.shape[0])
    nonempty = np.diff(indptr) > 0
    first, last = ids.copy(), ids.copy()
    first[nonempty] = np.minimum(indices[indptr[:-1][nonempty]], ids[nonempty])
    last[nonempty] = np.maximum(indices[indptr[1:][nonempty] - 1], ids[nonempty])
    descents = np.flatnonzero(last[:-1] > first[1:])
    if descents.size == 0:
        return descents
    row = descents[0]
    return np.unique([row, row + 1, last[row], first[row + 1]])


# Derived from the encoder registry (Figure 6 sweeps these four backbones).
CONV_TYPES = ENCODERS.names()


def _build_conv(
    conv_type: str,
    in_features: int,
    out_features: int,
    rng: np.random.Generator,
    heads: int = 1,
    final: bool = False,
):
    if conv_type not in ENCODERS:
        raise ValueError(f"unknown conv type {conv_type!r}; use one of {CONV_TYPES}")
    return ENCODERS.get(conv_type)(in_features, out_features, rng, heads, final)


class GNNEncoder(Module):
    """A stack of graph convolutions with activation and dropout.

    Parameters
    ----------
    in_features / hidden_features / out_features:
        Layer widths; all hidden layers share ``hidden_features``.
    num_layers:
        Depth (>= 1).  ``num_layers == 1`` maps straight to ``out_features``.
    conv_type:
        One of ``gcn``, ``sage``, ``gat``, ``gin``.
    heads:
        Attention heads (GAT only).
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        num_layers: int = 2,
        conv_type: str = "gcn",
        activation: str = "relu",
        dropout: float = 0.0,
        heads: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        rng = rng if rng is not None else np.random.default_rng()
        self.conv_type = conv_type
        self.out_features = out_features
        if activation == "prelu":
            # PReLU carries a learnable slope, so it must be a registered
            # module rather than a plain function.
            self.activation_module = PReLU()
            self._activation = self.activation_module
        else:
            self.activation_module = None
            self._activation = resolve_activation(activation)
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0.0 else None

        layers = []
        if num_layers == 1:
            layers.append(_build_conv(conv_type, in_features, out_features, rng, heads, final=True))
        else:
            layers.append(_build_conv(conv_type, in_features, hidden_features, rng, heads))
            for _ in range(num_layers - 2):
                layers.append(
                    _build_conv(conv_type, hidden_features, hidden_features, rng, heads)
                )
            layers.append(
                _build_conv(conv_type, hidden_features, out_features, rng, heads, final=True)
            )
        self.layers = ModuleList(layers)

    # ------------------------------------------------------------------
    def structure(self, adjacency: sp.csr_matrix) -> sp.csr_matrix:
        """The sparse operand this encoder's conv type consumes."""
        return structure_operand(self.conv_type, adjacency)

    def forward(self, adjacency: sp.csr_matrix, x: Tensor) -> Tensor:
        """Encode features; ``adjacency`` is the *raw* adjacency."""
        operand = self.structure(adjacency)
        return self.forward_with_operand(operand, x)

    def forward_batch(self, batch, x: Optional[Tensor] = None) -> Tensor:
        """Encode a :class:`~repro.graph.batch.GraphBatch` in one pass.

        Because the batch adjacency is block-diagonal, this is
        mathematically identical to encoding each member graph separately
        and stacking the results — but it costs one fused sparse kernel
        instead of ``num_graphs`` of them.  The structure operand is
        memoized against the batch adjacency's identity, so loaders that
        reuse batch objects across epochs normalise each batch once.
        """
        features = x if x is not None else Tensor(batch.features)
        return self.forward(batch.adjacency, features)

    def forward_with_operand(self, operand: sp.csr_matrix, x: Tensor) -> Tensor:
        """Encode with a precomputed structure operand (avoids renormalising)."""
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            x = layer(operand, x)
            if index < last:
                x = self._activation(x)
                if self.dropout is not None:
                    x = self.dropout(x)
        return x

    def infer(self, adjacency: sp.csr_matrix, features, nodes=None) -> np.ndarray:
        """No-grad inference forward: frozen embeddings as a plain array.

        Switches the stack to eval mode (disabling dropout), runs the
        forward under :class:`~repro.nn.tensor.no_grad` — so no autograd
        tape is built and grad-only work such as adjacency-transpose
        caching is skipped — and restores the previous mode.  The numpy
        values are bit-identical to the grad path's forward outputs in
        eval mode; :mod:`repro.serve` serves embeddings through this.

        With ``nodes`` (integer ids, repeats allowed) only those rows are
        returned, in request order, and the same forward runs over their
        receptive field alone: the ids' ``num_layers``-hop
        in-neighbourhood, on the block it induces in the full graph's
        structure operand.  The block keeps the full graph's
        normalisation, and a row's value at hop distance ``d`` needs only
        the rows within ``num_layers - d`` hops, so the rows equal
        ``infer(adjacency, features)[nodes]`` bit for bit.  A field that
        covers every node runs the full operand.
        """
        was_training = self.training
        self.eval()
        try:
            with no_grad():
                operand = self.structure(adjacency)
                x = ensure_features(features)
                rows = None
                if nodes is not None:
                    rows = as_node_ids(nodes, operand.shape[0])
                    field = self._receptive_field(operand, rows)
                    if field.size < operand.shape[0]:
                        operand = operand[field][:, field]
                        x = Tensor(x.data[field])
                        rows = np.searchsorted(field, rows)
                out = self.forward_with_operand(operand, x).data
        finally:
            if was_training:
                self.train()
        return out if rows is None else out[rows]

    def _receptive_field(self, operand: sp.csr_matrix, nodes: np.ndarray) -> np.ndarray:
        """Sorted ids whose inputs can reach ``nodes`` through the stack.

        Each layer's row reads the rows its operand row names (for GAT,
        whose messages flow along the operand's columns, the rows its
        transpose names), so ``num_layers`` hops over those rows bound
        what the output rows of ``nodes`` depend on.  Sorted ids keep each
        sliced row's entries, and so each row's sum, in the full operand's
        order.  The field holds at least 2 nodes where the graph has them:
        numpy sends a 1-row product down its matrix-vector path, whose sums
        need not match the matrix-matrix kernel the full forward runs.
        """
        incoming = cached_transpose(operand) if self.conv_type == "gat" else operand
        field = frontier = np.unique(nodes)
        for _ in range(len(self.layers)):
            _, slots = csr_row_slots(incoming.indptr, frontier)
            frontier = np.setdiff1d(incoming.indices[slots], field)
            if frontier.size == 0:
                break
            field = np.union1d(field, frontier)
        if self.conv_type == "gat" and not is_marked_symmetric(operand):
            # GAT's segment sums add a segment's edges by np.add.reduceat
            # when the destination ids are sorted and by an incidence
            # product otherwise, and the two can round differently.  Nodes
            # that leave the full graph's destinations unsorted leave the
            # block's unsorted too, so both take the same path.  A
            # symmetric block needs none: it is sorted only when no edge
            # joins two of its nodes, and a one-edge segment sums exactly.
            descent = memoized_on_matrix(
                operand, "gat-descent", lambda: _destination_descent(operand)
            )
            field = np.union1d(field, descent)
        if field.size < 2:
            pad = np.setdiff1d(np.arange(min(3, operand.shape[0])), field)
            field = np.union1d(field, pad[: 2 - field.size])
        return field

    def infer_batch(self, batch) -> np.ndarray:
        """No-grad inference over a :class:`~repro.graph.batch.GraphBatch`.

        One block-diagonal forward for the whole batch; rows line up with
        ``batch.node_to_graph`` so callers can split per member graph.
        """
        return self.infer(batch.adjacency, batch.features)

    def layer_outputs(self, adjacency: sp.csr_matrix, x: Tensor) -> List[Tensor]:
        """All intermediate representations (used by JK-style readouts)."""
        operand = self.structure(adjacency)
        outputs = []
        last = len(self.layers) - 1
        for index, layer in enumerate(self.layers):
            x = layer(operand, x)
            if index < last:
                x = self._activation(x)
                if self.dropout is not None:
                    x = self.dropout(x)
            outputs.append(x)
        return outputs
