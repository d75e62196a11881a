"""Persistence for graphs and graph datasets (.npz).

Generated datasets are deterministic in their seed, but persisting them lets
experiments pin an exact artifact (e.g. to share across machines or archive
with results)::

    save_graph(graph, "cora-like.npz")
    graph = load_graph("cora-like.npz")
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np
import scipy.sparse as sp

from .data import Graph, GraphDataset
from .sparse import to_csr

_MISSING = np.array([], dtype=np.int64)


def save_graph(graph: Graph, path: Union[str, Path]) -> Path:
    """Serialise one :class:`Graph` (structure, features, labels, masks)."""
    path = Path(path)
    adjacency = to_csr(graph.adjacency)
    payload = {
        "data": adjacency.data,
        "indices": adjacency.indices,
        "indptr": adjacency.indptr,
        "shape": np.asarray(adjacency.shape),
        "features": graph.features,
        "name": np.frombuffer(graph.name.encode("utf-8"), dtype=np.uint8),
    }
    for key in ("labels", "train_mask", "val_mask", "test_mask"):
        value = getattr(graph, key)
        payload[key] = _MISSING if value is None else np.asarray(value)
    np.savez_compressed(path, **payload)
    return path


def load_graph(path: Union[str, Path]) -> Graph:
    """Restore a :class:`Graph` saved by :func:`save_graph`.

    A damaged file raises :class:`zipfile.BadZipFile` and leaves no handle
    open: the file is opened here, because ``np.load`` does not close its
    own handle when a truncated archive fails to parse.
    """
    with open(path, "rb") as handle, np.load(handle) as payload:
        adjacency = sp.csr_matrix(
            (payload["data"], payload["indices"], payload["indptr"]),
            shape=tuple(payload["shape"]),
        )
        def optional(key):
            value = payload[key]
            return None if value.size == 0 else value

        return Graph(
            adjacency=adjacency,
            features=payload["features"],
            labels=optional("labels"),
            train_mask=optional("train_mask"),
            val_mask=optional("val_mask"),
            test_mask=optional("test_mask"),
            name=bytes(payload["name"]).decode("utf-8"),
        )


def save_graph_dataset(dataset: GraphDataset, directory: Union[str, Path]) -> Path:
    """Serialise a :class:`GraphDataset` as one file per graph plus labels."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for index, graph in enumerate(dataset.graphs):
        save_graph(graph, directory / f"graph-{index:05d}.npz")
    np.savez_compressed(
        directory / "meta.npz",
        labels=dataset.labels,
        name=np.frombuffer(dataset.name.encode("utf-8"), dtype=np.uint8),
    )
    return directory


def load_graph_dataset_dir(directory: Union[str, Path]) -> GraphDataset:
    """Restore a :class:`GraphDataset` saved by :func:`save_graph_dataset`."""
    directory = Path(directory)
    meta_path = directory / "meta.npz"
    if not meta_path.exists():
        raise FileNotFoundError(f"no meta.npz under {directory}")
    with open(meta_path, "rb") as handle, np.load(handle) as meta:
        labels = meta["labels"]
        name = bytes(meta["name"]).decode("utf-8")
    graphs = [
        load_graph(path) for path in sorted(directory.glob("graph-*.npz"))
    ]
    return GraphDataset(graphs=graphs, labels=labels, name=name)
