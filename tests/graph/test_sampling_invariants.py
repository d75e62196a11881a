"""Invariant tests for the sampler/loader stack (`repro.graph.sampling`).

Complements test_sampling.py's behavioural coverage with the contract
details the sampled-training paths rely on: the SamplerInput/SamplerOutput
split, the seed-prefix convention, local remapping checked against a
brute-force induced subgraph, cross-job determinism of the per-epoch RNG,
and the empty-frontier / isolated-node edge cases.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.data import Graph
from repro.graph.datasets import load_node_dataset
from repro.graph.generators import CitationGraphSpec, make_citation_graph
from repro.graph.sampling import (
    LinkNeighborLoader,
    NeighborLoader,
    NeighborSampler,
    SamplerInput,
    SamplerOutput,
    neighbor_block_steps,
)
from repro.graph.sparse import adjacency_from_edges, edge_array

GRAPH = make_citation_graph(
    CitationGraphSpec(200, 16, 4, average_degree=6.0), seed=3
)


def _graph_with_isolates() -> Graph:
    """A hand-built graph: a path 0-1-2-3, a triangle 4-5-6, isolates 7-8."""
    edges = np.array([(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (4, 6)])
    return Graph(
        adjacency=adjacency_from_edges(edges, 9),
        features=np.arange(9 * 2, dtype=float).reshape(9, 2),
    )


class TestSamplerInputOutput:
    def test_input_coerces_and_validates(self):
        request = SamplerInput([3, 1, 2])
        assert request.seeds.dtype == np.int64
        assert request.num_seeds == 3
        np.testing.assert_array_equal(request.seeds, [3, 1, 2])
        with pytest.raises(ValueError):
            SamplerInput([])

    def test_output_carries_per_hop_counts(self):
        sampler = NeighborSampler(GRAPH, fanouts=[3, 2])
        output = sampler.sample(SamplerInput([0, 1]), np.random.default_rng(0))
        assert isinstance(output, SamplerOutput)
        assert len(output.num_sampled_per_hop) == 2
        assert output.num_nodes == output.nodes.size
        assert output.num_seeds == 2

    def test_seed_prefix_preserves_request_order(self):
        sampler = NeighborSampler(GRAPH, fanouts=[2])
        seeds = np.array([17, 3, 42])
        output = sampler.sample(SamplerInput(seeds), np.random.default_rng(1))
        np.testing.assert_array_equal(output.nodes[:3], seeds)
        np.testing.assert_array_equal(output.seed_positions(), [0, 1, 2])
        # The non-seed suffix never repeats a seed.
        assert not np.intersect1d(output.nodes[3:], seeds).size


class TestLocalRemapping:
    def test_matches_brute_force_induced_subgraph(self):
        sampler = NeighborSampler(GRAPH, fanouts=[4, 3])
        for trial in range(5):
            rng = np.random.default_rng(trial)
            seeds = np.sort(rng.choice(GRAPH.num_nodes, size=12, replace=False))
            output = sampler.sample(SamplerInput(seeds), rng)
            brute = GRAPH.adjacency[output.nodes][:, output.nodes].toarray()
            np.testing.assert_allclose(output.adjacency.toarray(), brute)

    def test_scatter_table_resets_between_calls(self):
        # Two overlapping extractions from the same sampler must not leak
        # the reused global->local table across calls.
        sampler = NeighborSampler(GRAPH, fanouts=[3])
        rng = np.random.default_rng(0)
        first = sampler.sample(SamplerInput(np.arange(10)), rng)
        second = sampler.sample(SamplerInput(np.arange(5, 15)), rng)
        for output in (first, second):
            brute = GRAPH.adjacency[output.nodes][:, output.nodes].toarray()
            np.testing.assert_allclose(output.adjacency.toarray(), brute)


class TestDeterminism:
    def test_identical_epochs_across_loader_instances(self):
        # Two "jobs" building their own loader from the same (seed, epoch)
        # must replay identical blocks — nothing is shared between them.
        a = NeighborLoader(GRAPH, fanouts=[3, 2], batch_size=64, seed=7)
        b = NeighborLoader(GRAPH, fanouts=[3, 2], batch_size=64, seed=7)
        for epoch in range(2):
            for left, right in zip(a.epoch(epoch), b.epoch(epoch)):
                np.testing.assert_array_equal(left.nodes, right.nodes)
                np.testing.assert_allclose(
                    left.adjacency.toarray(), right.adjacency.toarray()
                )

    def test_reddit_like_epoch_is_pinned(self):
        # sha256 over one epoch's blocks (nodes, then the adjacency's
        # indptr/indices/data): refactors of the sampling core must leave
        # every block's bytes as they are.
        graph = load_node_dataset("reddit-like", seed=0)
        loader = NeighborLoader(graph, fanouts=(2, 2), batch_size=64, seed=0)
        digest = hashlib.sha256()
        for block in loader.epoch(0):
            adjacency = block.adjacency
            for array in (block.nodes, adjacency.indptr, adjacency.indices, adjacency.data):
                digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest() == (
            "e1aff0acbea190bd1ecc8dd6f442b237e8848baacd2bb0cb27d6dcc60d19f988"
        )

    def test_different_epochs_differ(self):
        loader = NeighborLoader(GRAPH, fanouts=[3], batch_size=64, seed=7)
        seeds0 = np.concatenate([b.seed_nodes for b in loader.epoch(0)])
        seeds1 = np.concatenate([b.seed_nodes for b in loader.epoch(1)])
        assert not np.array_equal(seeds0, seeds1)  # different permutations
        np.testing.assert_array_equal(np.sort(seeds0), np.sort(seeds1))

    def test_epoch_rng_derivation(self):
        loader = NeighborLoader(GRAPH, fanouts=[3], batch_size=64, seed=5)
        expected = np.random.default_rng([5, 2]).permutation(GRAPH.num_nodes)
        got = np.concatenate([b.seed_nodes for b in loader.epoch(2)])
        # Blocks sort their seeds, so compare per-batch sorted slices.
        for start in range(0, GRAPH.num_nodes, 64):
            np.testing.assert_array_equal(
                got[start : start + 64], np.sort(expected[start : start + 64])
            )


class TestEdgeCases:
    def test_isolated_seed_yields_singleton_block(self):
        graph = _graph_with_isolates()
        sampler = NeighborSampler(graph, fanouts=[2, 2])
        block = sampler.sample_block(np.array([7]), np.random.default_rng(0))
        np.testing.assert_array_equal(block.nodes, [7])
        assert block.adjacency.nnz == 0
        np.testing.assert_allclose(block.features, graph.features[[7]])

    def test_mixed_isolated_and_connected_seeds(self):
        graph = _graph_with_isolates()
        sampler = NeighborSampler(graph, fanouts=[2])
        block = sampler.sample_block(np.array([7, 1]), np.random.default_rng(0))
        np.testing.assert_array_equal(block.seed_nodes, [7, 1])
        # Neighbours of 1 (0 and 2) joined; the isolate contributed nothing.
        assert set(block.nodes.tolist()) == {7, 1, 0, 2}
        brute = graph.adjacency[block.nodes][:, block.nodes].toarray()
        np.testing.assert_allclose(block.adjacency.toarray(), brute)

    def test_empty_frontier_stops_expansion(self):
        # All seeds isolated: every hop's frontier is empty and the deep
        # fan-out list must not error.
        graph = _graph_with_isolates()
        sampler = NeighborSampler(graph, fanouts=[3, 3, 3])
        output = sampler.sample(SamplerInput([7, 8]), np.random.default_rng(0))
        np.testing.assert_array_equal(output.nodes, [7, 8])
        assert output.num_sampled_per_hop == (0, 0, 0)

    def test_epoch_covers_isolates(self):
        graph = _graph_with_isolates()
        loader = NeighborLoader(graph, fanouts=[2], batch_size=4, seed=0)
        seeds = np.concatenate([b.seed_nodes for b in loader.epoch(0)])
        np.testing.assert_array_equal(np.sort(seeds), np.arange(9))


class TestLinkNeighborLoader:
    def test_negatives_are_nonedges_and_labels_align(self):
        edges = edge_array(GRAPH.adjacency)
        loader = LinkNeighborLoader(
            GRAPH, edges, fanouts=[2], batch_size=32, num_negatives=2, seed=0
        )
        dense = GRAPH.adjacency.toarray()
        for link_block in loader.epoch(0):
            block = link_block.block
            # Local ids map back to the global endpoints.
            for local_pairs, expect_edge in (
                (link_block.edges, True),
                (link_block.negatives, False),
            ):
                u = block.nodes[local_pairs[:, 0]]
                v = block.nodes[local_pairs[:, 1]]
                assert (u != v).all()
                assert ((dense[u, v] > 0) == expect_edge).all()
            labels = link_block.edge_labels()
            assert labels.sum() == len(link_block.edges)
            assert len(labels) == len(link_block.edges) + len(link_block.negatives)
        assert loader.num_batches() == int(np.ceil(len(edges) / 32))

    def test_every_positive_edge_covered_once(self):
        edges = edge_array(GRAPH.adjacency)
        loader = LinkNeighborLoader(GRAPH, edges, fanouts=[2], batch_size=64, seed=1)
        seen = []
        for link_block in loader.epoch(0):
            block = link_block.block
            u = block.nodes[link_block.edges[:, 0]]
            v = block.nodes[link_block.edges[:, 1]]
            seen.append(np.stack([u, v], axis=1))
        seen = np.concatenate(seen)
        key = seen.min(axis=1) * GRAPH.num_nodes + seen.max(axis=1)
        expected = edges.min(axis=1) * GRAPH.num_nodes + edges.max(axis=1)
        np.testing.assert_array_equal(np.sort(key), np.sort(expected))


class TestNeighborBlockSteps:
    def test_loader_cached_in_state_extras(self):
        class _State:
            def __init__(self):
                self.extras = {}
                self.seed = 4

        state = _State()
        blocks = list(neighbor_block_steps(state, GRAPH, (3,), 64, epoch=0))
        loader = state.extras["neighbor_loader"]
        assert isinstance(loader, NeighborLoader)
        assert loader.seed == 4
        assert len(blocks) == loader.num_batches()
        # Second epoch reuses the cached loader instance.
        list(neighbor_block_steps(state, GRAPH, (3,), 64, epoch=1))
        assert state.extras["neighbor_loader"] is loader
