"""Mini-batch samplers and loaders for large graphs.

Strategies, matching how the paper's methods scale past full-batch
training (Section 4.4 / Table 9):

* :func:`repro.graph.augment.random_subgraph_nodes` (uniform node-induced
  subgraphs) — what GCMAE's trainer uses by default on mid-size graphs,
* :class:`NeighborSampler` — GraphSAGE's layerwise neighbour sampling,
  which yields per-batch computation blocks whose receptive field is
  bounded by the fan-out, independent of graph size,
* :class:`NeighborLoader` / :class:`LinkNeighborLoader` — epoch iterators
  over sampled blocks with deterministic per-epoch RNG streams, telemetry
  counters, and (for the link loader) uniform negative edges.

The sampler itself is loader-agnostic: it maps a :class:`SamplerInput`
(the batch's seed ids) to a :class:`SamplerOutput` (sampled nodes with the
seed-prefix convention, per-hop counts, and the locally-reindexed induced
adjacency), so the same sampling core serves node-level training, link
prediction, and ad-hoc use in tests or notebooks.  Sampling work is
attributed in the profiler under ``graph.sample.*`` ops.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..nn.profiler import active_session
from ..obs.hooks import emit_counter
from .data import Graph
from .sparse import csr_row_slots, mark_symmetric

_NEG_SAMPLING_ROUNDS = 16


@dataclass(frozen=True)
class SamplerInput:
    """What a sampler is asked to expand: the batch's seed node ids.

    Seeds keep their given order (they become the block's node prefix) and
    must not contain duplicates.
    """

    seeds: np.ndarray

    def __post_init__(self) -> None:
        seeds = np.asarray(self.seeds, dtype=np.int64).ravel()
        if seeds.size == 0:
            raise ValueError("need at least one seed node")
        object.__setattr__(self, "seeds", seeds)

    @property
    def num_seeds(self) -> int:
        return int(self.seeds.size)


@dataclass
class SamplerOutput:
    """What one sampling call produced, before features are attached.

    Attributes
    ----------
    nodes:
        Global ids of every participating node, with the input's seeds
        first (the *seed-prefix* convention: local id ``i < num_seeds``
        is seed ``i``).
    num_seeds:
        How many leading entries of ``nodes`` are seeds.
    num_sampled_per_hop:
        Size of the sampled frontier after each fan-out hop (before
        deduplication against earlier hops).
    adjacency:
        Induced subgraph over ``nodes`` in *local* indexing: entry
        ``(i, j)`` equals the global adjacency at ``(nodes[i], nodes[j])``.
    """

    nodes: np.ndarray
    num_seeds: int
    num_sampled_per_hop: Tuple[int, ...]
    adjacency: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    def seed_positions(self) -> np.ndarray:
        """Local indices of the seed nodes inside ``nodes`` (a prefix)."""
        return np.arange(self.num_seeds)


@dataclass
class SampledBlock:
    """One materialised mini-batch: a :class:`SamplerOutput` plus features.

    Attributes
    ----------
    nodes:
        Global ids of every node that participates in the computation, with
        the ``seed_nodes`` first.
    seed_nodes:
        Global ids of the batch's target nodes (a prefix of ``nodes``).
    adjacency:
        Adjacency of the induced subgraph over ``nodes`` (local indexing).
    features:
        Feature rows for ``nodes``.
    """

    nodes: np.ndarray
    seed_nodes: np.ndarray
    adjacency: sp.csr_matrix
    features: np.ndarray

    @property
    def num_seeds(self) -> int:
        return len(self.seed_nodes)

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    def seed_positions(self) -> np.ndarray:
        """Local indices of the seed nodes inside ``nodes`` (a prefix)."""
        return np.arange(self.num_seeds)


class NeighborSampler:
    """Layerwise uniform neighbour sampling (Hamilton et al., 2017).

    For each batch of seed nodes, expands ``fanouts[k]`` sampled neighbours
    per frontier node per hop, then materialises the induced subgraph over
    the union.  All draws are vectorized over the frontier: rows at or
    below the fan-out keep every neighbour via one ragged gather; larger
    rows draw exactly ``fanout`` without replacement through a per-row
    random ranking (random keys + lexsort), so no per-node Python loop
    survives at any scale.
    """

    def __init__(
        self,
        graph: Graph,
        fanouts: Sequence[int],
        batch_size: Optional[int] = None,
    ) -> None:
        fanouts = list(fanouts)
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError(f"fanouts must be positive, got {fanouts}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.graph = graph
        self.fanouts = fanouts
        self.batch_size = batch_size
        adjacency = graph.adjacency
        self._indices = adjacency.indices
        self._indptr = adjacency.indptr
        self._values = adjacency.data
        # Reused global->local scatter table; reset to -1 after every
        # extraction so one O(num_nodes) allocation serves the whole epoch.
        self._local_of = np.full(graph.num_nodes, -1, dtype=np.int64)

    # ------------------------------------------------------------------
    def _sample_neighbors(
        self, nodes: np.ndarray, fanout: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Unique global ids of <= ``fanout`` sampled neighbours per node."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return nodes
        row_ids, slots = csr_row_slots(self._indptr, nodes)
        if slots.size == 0:
            return np.array([], dtype=np.int64)
        degrees = self._indptr[nodes + 1] - self._indptr[nodes]

        small_rows = degrees <= fanout
        small_mask = small_rows[row_ids]
        chosen = [self._indices[slots[small_mask]]]

        big_mask = ~small_mask
        if big_mask.any():
            big_slots = slots[big_mask]
            big_rows_ids = row_ids[big_mask]
            big_degrees = degrees[~small_rows]
            keys = rng.random(big_slots.size)
            order = np.lexsort((keys, big_rows_ids))
            group_offsets = np.concatenate(([0], np.cumsum(big_degrees)[:-1]))
            within = np.arange(big_slots.size) - np.repeat(group_offsets, big_degrees)
            chosen.append(self._indices[big_slots[order[within < fanout]]])
        return np.unique(np.concatenate(chosen))

    def _extract_subgraph(self, nodes: np.ndarray) -> sp.csr_matrix:
        """Induced local adjacency over ``nodes`` without slicing scipy twice.

        Equivalent to ``graph.adjacency[nodes][:, nodes]`` but built from a
        single ragged row gather plus the reused global->local table.
        """
        k = nodes.size
        local_of = self._local_of
        local_of[nodes] = np.arange(k)
        row_ids, slots = csr_row_slots(self._indptr, nodes)
        local_cols = local_of[self._indices[slots]]
        keep = local_cols >= 0
        adjacency = sp.csr_matrix(
            (self._values[slots[keep]], (row_ids[keep], local_cols[keep])),
            shape=(k, k),
        )
        local_of[nodes] = -1
        adjacency.sort_indices()
        # The induced subgraph of a symmetric adjacency is symmetric, which
        # lets encoder backward passes skip the transpose.
        return mark_symmetric(adjacency)

    # ------------------------------------------------------------------
    def sample(self, request: SamplerInput, rng: np.random.Generator) -> SamplerOutput:
        """Expand a :class:`SamplerInput` into one :class:`SamplerOutput`."""
        session = active_session()
        seeds = request.seeds
        start = time.perf_counter()
        frontier = seeds
        collected = [seeds]
        per_hop = []
        for fanout in self.fanouts:
            frontier = self._sample_neighbors(frontier, fanout, rng)
            per_hop.append(int(frontier.size))
            collected.append(frontier)
        union = np.unique(np.concatenate(collected))
        others = np.setdiff1d(union, seeds)
        nodes = np.concatenate([seeds, others])
        sample_seconds = time.perf_counter() - start

        start = time.perf_counter()
        adjacency = self._extract_subgraph(nodes)
        extract_seconds = time.perf_counter() - start
        if session is not None:
            session.record(
                "graph.sample.neighbors", sample_seconds, bytes_touched=8 * nodes.size
            )
            session.record(
                "graph.sample.extract",
                extract_seconds,
                bytes_touched=8 * int(adjacency.nnz),
            )
        return SamplerOutput(
            nodes=nodes,
            num_seeds=request.num_seeds,
            num_sampled_per_hop=tuple(per_hop),
            adjacency=adjacency,
        )

    def sample_block(self, seed_nodes: np.ndarray, rng: np.random.Generator) -> SampledBlock:
        """Expand ``seed_nodes`` by the configured fan-outs into one block."""
        output = self.sample(SamplerInput(seed_nodes), rng)
        return SampledBlock(
            nodes=output.nodes,
            seed_nodes=output.nodes[: output.num_seeds],
            adjacency=output.adjacency,
            features=self.graph.features[output.nodes],
        )

    def batches(self, rng: np.random.Generator) -> Iterator[SampledBlock]:
        """One epoch of blocks covering every node exactly once as a seed."""
        if self.batch_size is None:
            raise ValueError("this sampler was built without a batch_size")
        order = rng.permutation(self.graph.num_nodes)
        for start in range(0, len(order), self.batch_size):
            seeds = np.sort(order[start : start + self.batch_size])
            yield self.sample_block(seeds, rng)

    def num_batches(self) -> int:
        if self.batch_size is None:
            raise ValueError("this sampler was built without a batch_size")
        return int(np.ceil(self.graph.num_nodes / self.batch_size))


class NeighborLoader:
    """Epoch iterator over :class:`SampledBlock` mini-batches.

    Each epoch derives its own RNG stream from ``(seed, epoch)``, so block
    composition is a pure function of the loader's configuration — two jobs
    (or a killed-and-resumed run) replay identical epochs without sharing
    any mutable generator state with the training loop.

    Per-block telemetry rides the ambient :mod:`repro.obs` hooks:
    ``sampler.blocks`` (count), ``sampler.nodes_per_block`` (summed block
    sizes; divide by blocks for the mean), and ``sampler.seconds`` (summed
    sampling wall time; blocks/seconds gives the sampling rate).
    """

    def __init__(
        self,
        graph: Graph,
        fanouts: Sequence[int],
        batch_size: int,
        seed: int = 0,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.sampler = NeighborSampler(graph, fanouts, batch_size)
        self.seed = int(seed)

    @property
    def graph(self) -> Graph:
        return self.sampler.graph

    def num_batches(self) -> int:
        return self.sampler.num_batches()

    def __len__(self) -> int:
        return self.num_batches()

    def epoch_rng(self, epoch: int) -> np.random.Generator:
        """The deterministic generator driving ``epoch``'s blocks."""
        return np.random.default_rng([self.seed, int(epoch)])

    def epoch(self, epoch: int) -> Iterator[SampledBlock]:
        """Yield one epoch of blocks, lazily, with telemetry per block."""
        iterator = self.sampler.batches(self.epoch_rng(epoch))
        while True:
            start = time.perf_counter()
            try:
                block = next(iterator)
            except StopIteration:
                return
            emit_counter("sampler.blocks")
            emit_counter("sampler.nodes_per_block", float(block.num_nodes))
            emit_counter("sampler.seconds", time.perf_counter() - start)
            yield block


def neighbor_block_steps(state, graph: Graph, fanouts, batch_size, epoch):
    """Yield one epoch of sampled blocks for a :meth:`Method.steps` hook.

    Builds a :class:`NeighborLoader` keyed on the run's seed once per run
    (cached in ``state.extras``), so every sampled method shares the exact
    same semantics: each node is a seed once per epoch, block composition
    is a pure function of ``(seed, epoch)`` and therefore identical after
    a checkpoint resume, and the training ``state.rng`` stream is never
    touched by sampling.
    """
    loader = state.extras.get("neighbor_loader")
    if loader is None:
        loader = NeighborLoader(
            graph,
            fanouts,
            batch_size,
            seed=state.seed if state.seed is not None else 0,
        )
        state.extras["neighbor_loader"] = loader
    yield from loader.epoch(epoch)


@dataclass
class LinkBlock:
    """One link-level mini-batch: a sampled block plus local edge indices.

    ``edges`` and ``negatives`` are ``(count, 2)`` arrays of *local* node
    indices into ``block.nodes`` — every endpoint is a seed of the block,
    so encoder outputs can be gathered directly.
    """

    block: SampledBlock
    edges: np.ndarray
    negatives: np.ndarray

    def edge_labels(self) -> np.ndarray:
        """Convenience 1/0 labels for ``edges`` then ``negatives``."""
        return np.concatenate(
            [np.ones(len(self.edges)), np.zeros(len(self.negatives))]
        )


class LinkNeighborLoader:
    """Mini-batch loader for the link-prediction protocol.

    Pairs each batch of positive edges with ``num_negatives`` uniformly
    sampled non-edges, takes the union of all endpoints as the block's
    seeds, and expands them through a :class:`NeighborSampler` — the
    sampled-training analogue of :func:`repro.graph.splits.split_edges`'s
    full-graph negative sampling.
    """

    def __init__(
        self,
        graph: Graph,
        edges: np.ndarray,
        fanouts: Sequence[int],
        batch_size: int,
        num_negatives: int = 1,
        seed: int = 0,
    ) -> None:
        edges = np.asarray(edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError(f"edges must have shape (E, 2), got {edges.shape}")
        if edges.shape[0] == 0:
            raise ValueError("need at least one positive edge")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if num_negatives < 1:
            raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
        self.graph = graph
        self.edges = edges
        self.batch_size = batch_size
        self.num_negatives = num_negatives
        self.seed = int(seed)
        self.sampler = NeighborSampler(graph, fanouts)
        # Sorted linear codes of every directed edge (the adjacency is
        # symmetric, so both orientations are present): membership checks
        # during negative sampling become one searchsorted per round.
        n = graph.num_nodes
        indptr = graph.adjacency.indptr
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        self._edge_codes = np.sort(rows * n + graph.adjacency.indices)

    def num_batches(self) -> int:
        return int(np.ceil(len(self.edges) / self.batch_size))

    def __len__(self) -> int:
        return self.num_batches()

    # ------------------------------------------------------------------
    def _sample_negatives(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Up to ``count`` uniform non-edges (best-effort on dense graphs)."""
        n = self.graph.num_nodes
        keep_u: list = []
        keep_v: list = []
        have = 0
        for _ in range(_NEG_SAMPLING_ROUNDS):
            need = count - have
            if need <= 0:
                break
            u = rng.integers(0, n, size=2 * need + 8)
            v = rng.integers(0, n, size=u.size)
            codes = u * n + v
            pos = np.searchsorted(self._edge_codes, codes)
            pos = np.minimum(pos, self._edge_codes.size - 1)
            is_edge = self._edge_codes[pos] == codes
            ok = (u != v) & ~is_edge
            keep_u.append(u[ok])
            keep_v.append(v[ok])
            have += int(ok.sum())
        negatives = np.stack(
            [np.concatenate(keep_u)[:count], np.concatenate(keep_v)[:count]], axis=1
        )
        return negatives

    def epoch(self, epoch: int) -> Iterator[LinkBlock]:
        """Yield one epoch of link blocks covering every positive edge once."""
        rng = np.random.default_rng([self.seed, int(epoch)])
        order = rng.permutation(len(self.edges))
        for start in range(0, len(order), self.batch_size):
            positives = self.edges[order[start : start + self.batch_size]]
            negatives = self._sample_negatives(
                len(positives) * self.num_negatives, rng
            )
            endpoints = np.concatenate([positives.ravel(), negatives.ravel()])
            seeds = np.unique(endpoints)
            block = self.sampler.sample_block(seeds, rng)
            emit_counter("sampler.blocks")
            emit_counter("sampler.nodes_per_block", float(block.num_nodes))
            # ``seeds`` is sorted, so local ids are positions in it.
            yield LinkBlock(
                block=block,
                edges=np.searchsorted(seeds, positives),
                negatives=np.searchsorted(seeds, negatives),
            )
