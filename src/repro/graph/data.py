"""Graph containers: single attributed graphs and batches of small graphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..nn.dtype import as_float_array
from . import sparse as sparse_utils


def as_node_ids(ids, num_nodes: int) -> np.ndarray:
    """``ids`` as int64 ids of the nodes of a ``num_nodes``-node graph.

    Raises ``TypeError`` for a non-empty input that is not integer (a cast
    would truncate floats and read a boolean mask as ids 0 and 1) and
    ``IndexError`` for an id outside ``[0, num_nodes)``.
    """
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise TypeError(f"node ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
        raise IndexError(f"node ids out of range [0, {num_nodes})")
    return ids


@dataclass
class Graph:
    """A single attributed graph (the node-task datasets of Table 2).

    Attributes
    ----------
    adjacency:
        Binary, symmetric CSR adjacency without self loops.
    features:
        ``(N, d)`` float node-feature matrix.
    labels:
        Optional ``(N,)`` integer class labels.
    train_mask / val_mask / test_mask:
        Optional boolean split masks over nodes.
    name:
        Human-readable dataset name.
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    _norm_cache: Dict[str, sp.csr_matrix] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.adjacency = sparse_utils.remove_self_loops(
            sparse_utils.symmetrize(self.adjacency)
        )
        self.features = as_float_array(self.features)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.features.shape[0] != self.adjacency.shape[0]:
            raise ValueError(
                f"feature rows ({self.features.shape[0]}) do not match "
                f"adjacency size ({self.adjacency.shape[0]})"
            )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.num_nodes,):
                raise ValueError(
                    f"labels must have shape ({self.num_nodes},), got {self.labels.shape}"
                )
        for mask_name in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, mask_name)
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape != (self.num_nodes,):
                    raise ValueError(
                        f"{mask_name} must have shape ({self.num_nodes},), got {mask.shape}"
                    )
                setattr(self, mask_name, mask)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of directed edge entries (both (u,v) and (v,u)), as in Table 2."""
        return int(self.adjacency.nnz)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.labels is None:
            raise ValueError(f"graph {self.name!r} has no labels")
        return int(self.labels.max()) + 1

    def degrees(self) -> np.ndarray:
        """Node degrees (number of neighbours)."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def edges(self, directed: bool = False) -> np.ndarray:
        """Edge list; see :func:`repro.graph.sparse.edge_array`."""
        return sparse_utils.edge_array(self.adjacency, directed=directed)

    def normalized_adjacency(
        self, self_loops: bool = True, mode: str = "symmetric"
    ) -> sp.csr_matrix:
        """Cached normalised adjacency for message passing."""
        key = f"{mode}:{self_loops}"
        if key not in self._norm_cache:
            self._norm_cache[key] = sparse_utils.normalized_adjacency(
                self.adjacency, self_loops=self_loops, mode=mode
            )
        return self._norm_cache[key]

    # ------------------------------------------------------------------
    def subgraph(self, nodes: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Node-induced subgraph; masks and labels are sliced accordingly."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            raise ValueError("cannot take a subgraph over zero nodes")
        sub_adj = self.adjacency[nodes][:, nodes]
        return Graph(
            adjacency=sub_adj,
            features=self.features[nodes],
            labels=None if self.labels is None else self.labels[nodes],
            train_mask=None if self.train_mask is None else self.train_mask[nodes],
            val_mask=None if self.val_mask is None else self.val_mask[nodes],
            test_mask=None if self.test_mask is None else self.test_mask[nodes],
            name=name or f"{self.name}-sub",
        )

    def with_adjacency(self, adjacency: sp.spmatrix) -> "Graph":
        """Copy of this graph with a different edge structure."""
        return Graph(
            adjacency=adjacency,
            features=self.features,
            labels=self.labels,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            name=self.name,
        )

    def with_features(self, features: np.ndarray) -> "Graph":
        """Copy of this graph with different node features."""
        return Graph(
            adjacency=self.adjacency,
            features=features,
            labels=self.labels,
            train_mask=self.train_mask,
            val_mask=self.val_mask,
            test_mask=self.test_mask,
            name=self.name,
        )

    def summary(self) -> Dict[str, object]:
        """Statistics row in the format of the paper's Table 2."""
        row: Dict[str, object] = {
            "dataset": self.name,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "features": self.num_features,
        }
        if self.labels is not None:
            row["classes"] = self.num_classes
        return row


@dataclass
class GraphDataset:
    """A labelled collection of small graphs (one Table 3 dataset)."""

    graphs: List[Graph]
    labels: np.ndarray
    name: str = "graph-dataset"

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.graphs) != len(self.labels):
            raise ValueError(
                f"{len(self.graphs)} graphs but {len(self.labels)} labels"
            )

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def to_batch(self) -> "GraphBatch":
        """The whole dataset as one block-diagonal batch."""
        return GraphBatch.from_graphs(self.graphs, labels=self.labels, name=self.name)

    def loader(self, batch_size: Optional[int] = None) -> "BatchLoader":
        """A :class:`~repro.graph.batch.BatchLoader` over this dataset.

        ``batch_size=None`` puts the whole dataset in one batch (the
        full-batch training the graph-level methods default to).
        """
        return BatchLoader(self, batch_size=batch_size)

    def summary(self) -> Dict[str, object]:
        """Statistics row in the format of the paper's Table 3."""
        return {
            "dataset": self.name,
            "graphs": len(self.graphs),
            "classes": self.num_classes,
            "avg_nodes": float(np.mean([g.num_nodes for g in self.graphs])),
        }


# Re-exported here for compatibility: GraphBatch predates the batching
# subsystem and was originally defined in this module.  The import sits at
# the bottom because batch.py needs Graph/GraphDataset (lazily) itself.
from .batch import BatchLoader, GraphBatch  # noqa: E402
