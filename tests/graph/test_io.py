"""Tests for graph persistence."""

import gc
import warnings
import zipfile

import numpy as np
import pytest

from repro.graph.data import GraphDataset
from repro.graph.generators import (
    CitationGraphSpec,
    add_planted_splits,
    make_citation_graph,
)
from repro.graph.io import (
    load_graph,
    load_graph_dataset_dir,
    save_graph,
    save_graph_dataset,
)


@pytest.fixture()
def graph():
    spec = CitationGraphSpec(60, 12, 3, average_degree=3.0)
    return add_planted_splits(make_citation_graph(spec, seed=0), seed=0)


class TestGraphRoundtrip:
    def test_structure_preserved(self, graph, tmp_path):
        restored = load_graph(save_graph(graph, tmp_path / "g.npz"))
        assert (restored.adjacency != graph.adjacency).nnz == 0
        np.testing.assert_allclose(restored.features, graph.features)

    def test_labels_and_masks_preserved(self, graph, tmp_path):
        restored = load_graph(save_graph(graph, tmp_path / "g.npz"))
        np.testing.assert_array_equal(restored.labels, graph.labels)
        np.testing.assert_array_equal(restored.train_mask, graph.train_mask)
        np.testing.assert_array_equal(restored.test_mask, graph.test_mask)
        assert restored.name == graph.name

    def test_unlabelled_graph(self, graph, tmp_path):
        from repro.graph import Graph
        bare = Graph(adjacency=graph.adjacency, features=graph.features, name="bare")
        restored = load_graph(save_graph(bare, tmp_path / "bare.npz"))
        assert restored.labels is None
        assert restored.train_mask is None


class TestDatasetRoundtrip:
    def test_roundtrip(self, graph, tmp_path):
        dataset = GraphDataset([graph, graph], labels=[0, 1], name="pair")
        directory = save_graph_dataset(dataset, tmp_path / "ds")
        restored = load_graph_dataset_dir(directory)
        assert len(restored) == 2
        np.testing.assert_array_equal(restored.labels, [0, 1])
        assert restored.name == "pair"
        assert (restored.graphs[0].adjacency != graph.adjacency).nnz == 0

    def test_missing_meta(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph_dataset_dir(tmp_path)


class TestDamagedFile:
    def test_truncated_graph_raises_and_closes_its_file(self, graph, tmp_path):
        path = save_graph(graph, tmp_path / "g.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(zipfile.BadZipFile):
                load_graph(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]
