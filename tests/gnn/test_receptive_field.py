"""Node reads over the receptive field: ``infer(..., nodes=)`` rows equal the
full forward's rows bit for bit, and the forward runs on the field alone.

Bit-identity is per BLAS thread count, so CI runs this file under one
OpenBLAS thread as well as at the default.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.gnn import CONV_TYPES, GNNEncoder
from repro.graph.data import Graph
from repro.graph.sparse import adjacency_from_edges, is_marked_symmetric
from repro.nn.dtype import dtype_policy
from repro.serve import EmbeddingService, EncoderSpec, ModelRegistry

FEATURES = 5


def build(conv_type, num_layers=2, activation="elu", seed=0):
    return GNNEncoder(
        FEATURES,
        6,
        4,
        num_layers=num_layers,
        conv_type=conv_type,
        activation=activation,
        heads=2 if conv_type == "gat" else 1,
        rng=np.random.default_rng(seed),
    )


def features(num_nodes, seed=1):
    return np.random.default_rng(seed).normal(size=(num_nodes, FEATURES))


def ring(num_nodes, offset=0):
    return [(offset + i, offset + (i + 1) % num_nodes) for i in range(num_nodes)]


def components_graph():
    """A 9-ring with chords, a 7-path, a triangle and an isolated node (id 19)."""
    edges = ring(9) + [(0, 4), (2, 7), (3, 5)]
    edges += [(9 + i, 10 + i) for i in range(6)]
    edges += ring(3, offset=16)
    return adjacency_from_edges(np.array(edges), 20)


def directed_graph():
    """A sparse random digraph, plus a node (11) whose only in-neighbours are
    10 and 12 while no edge joins 10, 11 and 12 otherwise: GAT's one-layer
    block of node 11 lists sorted destinations and sums a 3-edge segment,
    while the whole graph's destinations are unsorted."""
    rng = np.random.default_rng(7)
    src, dst = rng.integers(0, 30, 45), rng.integers(0, 30, 45)
    keep = (src != dst) & ~np.isin(src, [10, 11, 12]) & ~np.isin(dst, [10, 11, 12])
    edges = np.stack([src[keep], dst[keep]], axis=1)
    edges = np.concatenate([edges, [(10, 11), (12, 11), (20, 10), (12, 25)]])
    adjacency = adjacency_from_edges(edges, 30, symmetric=False)
    assert (adjacency != adjacency.T).nnz
    return adjacency


def single_reads(num_nodes):
    return [[node] for node in range(num_nodes)]


def assert_reads_match(encoder, adjacency, x, reads):
    full = encoder.infer(adjacency, x)
    for ids in reads:
        rows = encoder.infer(adjacency, x, nodes=ids)
        assert rows.dtype == full.dtype
        assert np.array_equal(rows, full[ids]), ids


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("activation", ["elu", "prelu"])
@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("conv_type", CONV_TYPES)
def test_rows_equal_the_full_forward(conv_type, num_layers, activation, dtype):
    with dtype_policy(dtype):
        encoder = build(conv_type, num_layers, activation)
        adjacency = components_graph()
        x = features(20)
        reads = single_reads(20) + [
            [19],  # the isolated node alone
            [4, 4, 1, 4],  # duplicates, out of order
            [17, 3, 12, 19, 8],  # every component
            list(range(20)),  # every node: the full operand runs
        ]
        assert_reads_match(encoder, adjacency, x, reads)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("conv_type", CONV_TYPES)
def test_directed_adjacency(conv_type, num_layers):
    adjacency = directed_graph()
    assert not is_marked_symmetric(adjacency)
    reads = single_reads(30) + [[11, 3, 11], [0, 29, 15, 11]]
    assert_reads_match(build(conv_type, num_layers), adjacency, features(30), reads)


@pytest.mark.parametrize("conv_type", CONV_TYPES)
def test_zero_edge_graph(conv_type):
    adjacency = sp.csr_matrix((6, 6))
    assert_reads_match(
        build(conv_type), adjacency, features(6), single_reads(6) + [[5, 0, 5], []]
    )


@pytest.mark.parametrize("conv_type", CONV_TYPES)
def test_one_node_graph(conv_type):
    adjacency = sp.csr_matrix((1, 1))
    assert_reads_match(build(conv_type), adjacency, features(1), [[0], [0, 0], []])


@pytest.mark.parametrize("conv_type", CONV_TYPES)
def test_a_read_runs_on_its_field_not_the_whole_graph(conv_type, monkeypatch):
    adjacency = adjacency_from_edges(np.array(ring(2000)), 2000)
    x = features(2000)
    encoder = build(conv_type, num_layers=2)
    shapes = []
    forward = GNNEncoder.forward_with_operand

    def recording(self, operand, inputs):
        shapes.append((operand.shape, inputs.shape[0]))
        return forward(self, operand, inputs)

    monkeypatch.setattr(GNNEncoder, "forward_with_operand", recording)
    rows = encoder.infer(adjacency, x, nodes=[1000])
    assert shapes == [((5, 5), 5)]  # nodes 998-1002
    assert np.array_equal(rows, encoder.infer(adjacency, x)[[1000]])


def test_invalid_nodes_raise():
    encoder = build("gcn")
    adjacency, x = components_graph(), features(20)
    with pytest.raises(TypeError):
        encoder.infer(adjacency, x, nodes=[1.0, 2.0])
    with pytest.raises(TypeError):
        encoder.infer(adjacency, x, nodes=np.array([True, False]))
    for ids in ([20], [-1]):
        with pytest.raises(IndexError):
            encoder.infer(adjacency, x, nodes=ids)


def test_service_reads_equal_direct_infer_after_update_and_swap():
    spec = EncoderSpec(in_features=FEATURES, hidden_features=8, out_features=4,
                       num_layers=2, conv_type="gat", heads=2)
    registry = ModelRegistry()
    registry.register("demo", spec.build(seed=1), spec)
    first = Graph(adjacency=components_graph(), features=features(20), name="v1")
    second = Graph(adjacency=directed_graph(), features=features(30, seed=2), name="v2")
    reads = ([3, 17, 3], [19], [11, 0, 12], [5, 8, 13])

    def check(service, graph):
        direct = registry.get("demo").encoder.infer(graph.adjacency, graph.features)
        for ids in reads:
            assert np.array_equal(service.embed_nodes(ids), direct[ids])

    with EmbeddingService(registry, "demo", graph=first, start_queue=False) as service:
        check(service, first)
        service.update_graph(second)
        check(service, second)
        registry.register("demo", spec.build(seed=2), spec)  # hot swap
        check(service, second)
        assert service.stats()["node_forwards"] == 3 * len(reads)
