"""The benchmark's workloads and the pass that runs one of them.

Every workload is the same user flow, measured end to end:

    generate -> pretrain -> embed -> probe -> deploy -> serve

* *generate* builds the dataset from the seed (``setup_s``, part 1);
* *pretrain -> embed -> probe* is the pipeline (``pipeline_s``,
  ``probe_acc``), repeated for the workload's share of the run;
* *deploy* writes each served encoder with ``save_encoder``, loads it back
  through ``ModelRegistry.load``, opens the services and warms them up
  (``setup_s``, part 2);
* *serve* drives a closed loop from one client thread in windows of about
  ``WINDOW_S`` (``serve_rps``, ``graph_p50_ms``, ``node_p50_ms``);
  ``serve_rps`` is the median over ``READ_EVERY``-op blocks of a block's rate.

The workloads differ in which part dominates and which layers it stresses;
``LAYERS.md`` gives the reason for each.  The serving traffic (request
graphs, node-id draws, write positions) is drawn from the seed before the
clock starts, so the program receives only generated inputs.

A program fault (an exception from a pipeline, a deploy, a serve operation
or a check) is recorded as a failed operation; the pass stops the part it
was in and the run still reports.
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

import repro.eval.classification as classification
import repro.graph.datasets as datasets
from repro.core.config import GCMAEConfig
from repro.core.trainer import GCMAEMethod, train_gcmae
from repro.engine import checkpointing
from repro.graph.batch import GraphBatch
from repro.graph.data import Graph
from repro.obs.recorder import active_recorder
from repro.serve import EmbeddingService, EncoderSpec, ModelRegistry, load_encoder, save_encoder

# Set-up is repeated and its median reported, so work moved into set-up shows.
GENERATE_REPS = 9
DEPLOY_REPS = 5

# Serving traffic (LAYERS.md gives the source of each constant).  Node reads
# draw READ_SIZE ids uniformly and the row cache holds fewer rows than any
# served graph has nodes, so a read almost never finds all its rows cached
# and pays one whole-graph forward.
READ_SIZE = 8
CACHE_ROWS = 256
# Every block of READ_EVERY ops holds one node read, and every block of
# WRITE_EVERY ops one graph write, each at a seeded offset: the positions
# vary with the seed but the mix does not.  The script is a whole number of
# both blocks, so it can wrap around without breaking a block.
READ_EVERY = 9
WRITE_EVERY = 2000
SCRIPT_OPS = 54_000
EGO_GRAPHS = 256
EGO_NODES = 24
RESULT_TIMEOUT_S = 60.0
# Serving runs in windows of whole READ_EVERY-op blocks, each window at
# least this long, alternating with pipelines.  serve_rps is the median
# over blocks of a block's rate: every block holds the whole mix, and a
# stall of the host slows the few blocks it falls in, not the result.
WINDOW_S = 0.5
# Served rows kept for the bit-identity check against direct inference.
VERIFY_GRAPHS = 32
VERIFY_READS = 16

GRAPH_OP, READ_OP, WRITE_OP = 0, 1, 2

Check = Tuple[str, bool]


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """One pipeline's result plus what the benchmark checks afterwards."""

    losses: List[float]
    probe_acc: float
    epoch_seconds: List[float]
    served: Dict[str, Tuple[object, EncoderSpec]]  # "nodes" / "graphs" -> model
    verify: Callable[[], List[Check]] = lambda: []


def _encoder_spec(num_features: int, config: GCMAEConfig) -> EncoderSpec:
    return EncoderSpec(
        in_features=num_features,
        hidden_features=config.hidden_dim,
        out_features=config.embed_dim,
        num_layers=config.num_layers,
        conv_type=config.conv_type,
        activation=config.activation,
        dropout=config.dropout,
        heads=config.heads if config.conv_type == "gat" else 1,
    )


def _config(workload: "Workload", smoke: bool) -> GCMAEConfig:
    return GCMAEConfig(epochs=1 if smoke else workload.epochs, **workload.config)


def _node_pipeline(workload: "Workload", data: dict, seed: int, workdir: str,
                   smoke: bool) -> Outcome:
    """GCMAE on the node dataset, a frozen embed and the linear probe."""
    graph = data["nodes"]
    config = _config(workload, smoke)
    policy: ContextManager = contextlib.nullcontext()
    if workload.checkpoint_every:
        checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=workdir)
        policy = checkpointing(checkpoint_dir, every=workload.checkpoint_every)
    recorder = active_recorder()
    blocks_before = recorder.counters.get("sampler.blocks", 0.0)
    with policy:
        result = train_gcmae(graph, config, seed=seed)
    blocks = recorder.counters.get("sampler.blocks", 0.0) - blocks_before
    embeddings = result.model.embed(graph.adjacency, graph.features)
    probe = classification.evaluate_probe(
        embeddings, graph.labels, graph.train_mask, graph.test_mask
    )
    spec = _encoder_spec(graph.num_features, config)

    def verify() -> List[Check]:
        checks: List[Check] = []
        if config.sampled_fanouts:
            expected = math.ceil(graph.num_nodes / config.sampled_batch_size) * config.epochs
            checks.append((f"{int(blocks)} sampler blocks, expected {expected}",
                           blocks == expected))
        if workload.checkpoint_every:
            paths = [os.path.join(checkpoint_dir, name)
                     for name in os.listdir(checkpoint_dir) if name.endswith(".npz")]
            checks.append((f"{len(paths)} engine checkpoint written, expected 1",
                           len(paths) == 1))
            if len(paths) == 1:
                encoder, _ = load_encoder(paths[0], spec=spec)
                restored = encoder.infer(graph.adjacency, graph.features)
                checks.append(("last checkpoint embeds like the trained model",
                               np.array_equal(restored, embeddings)))
        return checks

    served = {"nodes": (result.model.encoder, spec), "graphs": (result.model.encoder, spec)}
    return Outcome(result.loss_history, 100.0 * probe.accuracy, result.epoch_seconds,
                   served, verify)


def _graph_pipeline(workload: "Workload", data: dict, seed: int, workdir: str,
                    smoke: bool) -> Outcome:
    """GCMAE's graph method, its readout and the 5-fold CV SVM probe."""
    dataset = data["graphs"]
    config = _config(workload, smoke)
    method = GCMAEMethod(config)
    result = method.fit_graphs(dataset, seed=seed)
    accuracy, _ = classification.cross_validated_probe(
        result.embeddings, dataset.labels, num_folds=5, seed=seed
    )
    train = method.last_train_result
    spec = _encoder_spec(dataset.graphs[0].num_features, config)
    served = {"nodes": (train.model.encoder, spec), "graphs": (train.model.encoder, spec)}
    return Outcome(train.loss_history, 100.0 * accuracy, train.epoch_seconds, served)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    node_dataset: Optional[str]   # trained on and/or served to node reads
    graph_dataset: Optional[str]  # trained on and/or served to graph requests
    pipeline: Callable[..., Outcome]
    config: dict                  # GCMAEConfig fields besides ``epochs``
    epochs: int
    train_share: float  # share of --seconds spent repeating the pipeline
    probe_floor: float  # probe_acc (%) below this fails the run
    checkpoint_every: int = 0  # engine checkpoint period (epochs)
    node_edges: int = 0  # stated size of the node graph, in stored edges (0: any)

    def _nodes(self, seed: int, smoke: bool) -> Optional[Graph]:
        name = SMOKE_DATASETS.get(self.node_dataset, self.node_dataset) if smoke \
            else self.node_dataset
        return None if name is None else datasets.load_node_dataset(name, seed=seed)

    def generate(self, seed: int, smoke: bool) -> dict:
        """The datasets, generated from ``seed`` (this is timed as set-up)."""
        graphs = self.graph_dataset
        return {
            "nodes": self._nodes(seed, smoke),
            "graphs": None if graphs is None else datasets.load_graph_dataset(graphs, seed=seed),
        }

    def dataset_seed(self, seed: int, smoke: bool) -> int:
        """The seed the datasets are generated from (searched before the clock starts).

        It is ``seed`` itself, unless the workload states its node graph's
        size: then it is the first of ``seed`` and the seeds derived from it
        whose node graph has ``node_edges`` stored edges, within EDGE_BAND.
        """
        if not self.node_edges:
            return seed
        for attempt in range(DATASET_SEED_TRIES):
            candidate = seed if attempt == 0 else int(
                np.random.SeedSequence([seed, attempt]).generate_state(1)[0]
            )
            edges = self._nodes(candidate, smoke).adjacency.nnz
            if abs(edges / self.node_edges - 1.0) <= EDGE_BAND:
                return candidate
        raise RuntimeError(f"no dataset seed from {seed} gives {self.node_edges} edges "
                           f"within {EDGE_BAND:.1%} in {DATASET_SEED_TRIES} tries")


# The self-test's smallest sizes.
SMOKE_DATASETS = {"reddit-large": "reddit-like"}

# cora-like's size varies with its seed: over seeds 0-199 it stored 2,618
# to 5,978 edges (median 3,132), and within blocks of ten consecutive seeds
# the edge count alone spread by 0.06-0.34 of its median.  The GAT's cost
# follows the edges, so its timings would follow the seed.  cora-fullgraph
# states its size instead, and takes a seed whose graph has it.
CORA_EDGES = 3132
EDGE_BAND = 0.025
DATASET_SEED_TRIES = 1000

# bench-large's sampled config: SCE + InfoNCE only (adjacency reconstruction
# on a sampled reddit-large run ran a 7 GB host out of memory).
REDDIT_CONFIG = dict(
    conv_type="gcn",
    heads=1,
    hidden_dim=32,
    embed_dim=32,
    projector_hidden=16,
    use_structure_reconstruction=False,
    use_discrimination=False,
    sampled_fanouts=(2, 2),
    sampled_batch_size=64,
)
GRAPH_CONFIG = dict(hidden_dim=64, embed_dim=64, conv_type="gin", graph_batch_size=64)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # reddit-sampled's one pipeline outlasts its share of --seconds, so
        # it runs once, and serving takes the other 75%.
        Workload("cora-fullgraph", node_dataset="cora-like", graph_dataset=None,
                 pipeline=_node_pipeline, config={}, epochs=2, train_share=0.5,
                 probe_floor=40.0, checkpoint_every=1, node_edges=CORA_EDGES),
        Workload("reddit-sampled", node_dataset="reddit-large", graph_dataset=None,
                 pipeline=_node_pipeline, config=REDDIT_CONFIG, epochs=1, train_share=0.25,
                 probe_floor=60.0),
        Workload("mutag-graphs", node_dataset=None, graph_dataset="mutag-like",
                 pipeline=_graph_pipeline, config=GRAPH_CONFIG, epochs=2, train_share=0.5,
                 probe_floor=70.0),
    )
}


# ---------------------------------------------------------------------------
# Serving traffic, drawn from the seed before the clock starts
# ---------------------------------------------------------------------------
@dataclass
class Traffic:
    versions: Tuple[Graph, Graph]  # the served graph and its rewritten twin
    requests: List[Graph]          # pool of graphs for embed_graph
    script: np.ndarray             # op kinds, in order
    graph_order: np.ndarray        # request-pool index of each graph op
    reads: np.ndarray              # (reads, READ_SIZE) node ids


def _union_graph(graphs: List[Graph]) -> Graph:
    """The disjoint union of ``graphs``, built without the program's batcher."""
    return Graph(
        adjacency=sp.block_diag([g.adjacency for g in graphs], format="csr"),
        features=np.concatenate([g.features for g in graphs], axis=0),
        name="union",
    )


def _ego_graphs(graph: Graph, rng: np.random.Generator) -> List[Graph]:
    """Breadth-first neighbourhoods of random centres, EGO_NODES at most."""
    csr = sp.csr_matrix(graph.adjacency)
    centres = rng.choice(graph.num_nodes, size=EGO_GRAPHS, replace=False)
    graphs = []
    for centre in centres:
        nodes, frontier = [int(centre)], [int(centre)]
        seen = {int(centre)}
        while frontier and len(nodes) < EGO_NODES:
            nxt = []
            for node in frontier:
                for other in csr.indices[csr.indptr[node]:csr.indptr[node + 1]]:
                    if int(other) not in seen and len(nodes) < EGO_NODES:
                        seen.add(int(other))
                        nodes.append(int(other))
                        nxt.append(int(other))
            frontier = nxt
        graphs.append(graph.subgraph(np.array(nodes, dtype=np.int64), name="ego"))
    return graphs


def make_traffic(data: dict, seed: int) -> Traffic:
    rng = np.random.default_rng([seed, 7])
    served = data["nodes"] if data["nodes"] is not None else _union_graph(data["graphs"].graphs)
    noise = rng.standard_normal(served.features.shape) * 1e-3
    rewritten = Graph(
        adjacency=served.adjacency.copy(),
        features=served.features + noise,
        name=f"{served.name}-v2",
    )
    requests = (
        data["graphs"].graphs if data["graphs"] is not None else _ego_graphs(served, rng)
    )
    script = np.full(SCRIPT_OPS, GRAPH_OP, dtype=np.int8)
    for every, kind in ((READ_EVERY, READ_OP), (WRITE_EVERY, WRITE_OP)):
        blocks = SCRIPT_OPS // every
        script[np.arange(blocks) * every + rng.integers(0, every, size=blocks)] = kind
    num_reads = int((script == READ_OP).sum()) + 1
    return Traffic(
        versions=(served, rewritten),
        requests=list(requests),
        script=script,
        graph_order=rng.integers(0, len(requests), size=SCRIPT_OPS),
        reads=rng.integers(0, served.num_nodes, size=(num_reads, READ_SIZE)),
    )


# ---------------------------------------------------------------------------
# Deploy and serve
# ---------------------------------------------------------------------------
@dataclass
class Services:
    registry: ModelRegistry
    nodes: EmbeddingService
    graphs: EmbeddingService

    def close(self) -> None:
        self.nodes.close()
        self.graphs.close()


def deploy(served: Dict[str, Tuple[object, EncoderSpec]], traffic: Traffic,
           workdir: str) -> Services:
    registry = ModelRegistry()
    for role, (encoder, spec) in served.items():
        path = save_encoder(os.path.join(workdir, f"{role}.npz"), encoder, spec)
        registry.load(role, path)
    nodes = EmbeddingService(
        registry, "nodes", graph=traffic.versions[0],
        cache_capacity=CACHE_ROWS, start_queue=False,
    )
    graphs = EmbeddingService(registry, "graphs")
    services = Services(registry, nodes, graphs)
    try:
        nodes.embed_nodes(traffic.reads[-1])
        graphs.embed_graph(traffic.requests[0], timeout=RESULT_TIMEOUT_S)
    except BaseException:
        services.close()
        raise
    return services


class Server:
    """The closed-loop client: one thread that waits for each reply.

    Graph requests, node reads and graph writes run in the order of the
    seeded script.  :meth:`window` serves whole READ_EVERY-op blocks for at
    least WINDOW_S and records each block's rate.
    """

    def __init__(self, services: Services, traffic: Traffic) -> None:
        self.services = services
        self.traffic = traffic
        self.step = 0
        self.requests = 0
        self.reads = 0
        self.version = 0
        self.ops = 0
        self.errors = 0
        self.block_rates: List[float] = []
        self.graph_latency_s: List[float] = []
        self.node_latency_s: List[float] = []
        self.served_graphs: List[Tuple[int, np.ndarray]] = []
        self.served_reads: List[Tuple[np.ndarray, int, np.ndarray]] = []
        # Service counters at the start, so warm-up reads are left out.
        self.service_start = services.nodes.stats()
        self.queue: Dict[str, float] = {}
        self.service: Dict[str, float] = {}

    @property
    def rps(self) -> float:
        return statistics.median(self.block_rates)

    def _request(self) -> None:
        traffic = self.traffic
        index = int(traffic.graph_order[self.requests % len(traffic.graph_order)])
        self.requests += 1
        began = time.perf_counter()
        try:
            rows = self.services.graphs.embed_graph(
                traffic.requests[index], timeout=RESULT_TIMEOUT_S
            )
        except Exception:
            self.errors += 1
            return
        self.graph_latency_s.append(time.perf_counter() - began)
        if len(self.served_graphs) < VERIFY_GRAPHS:
            self.served_graphs.append((index, rows))

    def _read(self) -> None:
        ids = self.traffic.reads[self.reads % len(self.traffic.reads)]
        self.reads += 1
        began = time.perf_counter()
        try:
            rows = self.services.nodes.embed_nodes(ids)
        except Exception:
            self.errors += 1
            return
        self.node_latency_s.append(time.perf_counter() - began)
        if len(self.served_reads) < VERIFY_READS:
            self.served_reads.append((ids, self.version, rows))

    def _write(self) -> None:
        self.version ^= 1
        try:
            self.services.nodes.update_graph(self.traffic.versions[self.version])
        except Exception:
            self.errors += 1

    def window(self) -> float:
        """Serve one window; returns its length in seconds."""
        began = block_began = time.perf_counter()
        ops = 0
        while True:
            kind = self.traffic.script[self.step % len(self.traffic.script)]
            if kind == GRAPH_OP:
                self._request()
            elif kind == READ_OP:
                self._read()
            else:
                self._write()
            self.step += 1
            ops += 1
            if self.step % READ_EVERY == 0:
                now = time.perf_counter()
                self.block_rates.append(READ_EVERY / (now - block_began))
                block_began = now
                if now - began >= WINDOW_S:
                    break
        seconds = time.perf_counter() - began
        self.ops += ops
        return seconds

    def close(self) -> None:
        """Keep the services' stats, then close them."""
        try:
            self.queue = self.services.graphs.queue.stats()
            self.service = self.services.nodes.stats()
        finally:
            self.services.close()

    def cache_hit_ratio(self) -> float:
        hits = self.service["cache.hits"] - self.service_start["cache.hits"]
        misses = self.service["cache.misses"] - self.service_start["cache.misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    def forwards_per_read(self) -> float:
        forwards = self.service["node_forwards"] - self.service_start["node_forwards"]
        return forwards / self.reads if self.reads else 0.0

    def verify(self) -> List[Check]:
        """Served rows must equal direct ``infer`` / ``infer_batch`` on the same inputs."""
        registry, traffic = self.services.registry, self.traffic
        graph_encoder = registry.get("graphs").encoder
        node_encoder = registry.get("nodes").encoder
        graphs_ok = all(
            np.array_equal(
                rows, graph_encoder.infer_batch(GraphBatch.from_graphs([traffic.requests[index]]))
            )
            for index, rows in self.served_graphs
        )
        direct = [node_encoder.infer(g.adjacency, g.features) for g in traffic.versions]
        reads_ok = all(
            np.array_equal(rows, direct[version][ids])
            for ids, version, rows in self.served_reads
        )
        return [
            (f"{len(self.served_graphs)} served graphs equal infer_batch", graphs_ok),
            (f"{len(self.served_reads)} served reads equal infer", reads_ok),
        ]


# ---------------------------------------------------------------------------
# One pass over a workload
# ---------------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over a workload: its timings, outputs, checks and faults.

    Each step returns False after a program fault, which is kept in
    ``faults`` and printed with its traceback to standard error.
    """

    workload: Workload
    seed: int
    smoke: bool
    workdir: str
    generate_s: List[float] = field(default_factory=list)
    pipeline_s: List[float] = field(default_factory=list)
    outcomes: List[Outcome] = field(default_factory=list)
    deploy_s: List[float] = field(default_factory=list)
    dataset_seed: Optional[int] = None
    data: Optional[dict] = None
    traffic: Optional[Traffic] = None
    server: Optional[Server] = None
    faults: List[str] = field(default_factory=list)

    def _guard(self, what: str, step: Callable[[], object]) -> bool:
        try:
            step()
        except Exception as error:  # a program fault fails the run, not the report
            self.faults.append(f"{what}: {type(error).__name__}: {error}")
            print(f"fault in {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
        return True

    def prepare(self) -> bool:
        """Generate the datasets (repeatedly, timed) and the serving traffic."""
        def step() -> None:
            self.dataset_seed = self.workload.dataset_seed(self.seed, self.smoke)
            for _ in range(1 if self.smoke else GENERATE_REPS):
                began = time.perf_counter()
                self.data = self.workload.generate(self.dataset_seed, self.smoke)
                self.generate_s.append(time.perf_counter() - began)
            self.traffic = make_traffic(self.data, self.seed)
        return self._guard("generate", step)

    def pipeline(self) -> bool:
        def step() -> None:
            began = time.perf_counter()
            outcome = self.workload.pipeline(
                self.workload, self.data, self.seed, self.workdir, self.smoke
            )
            self.pipeline_s.append(time.perf_counter() - began)
            self.outcomes.append(outcome)
        return self._guard(f"pipeline {len(self.outcomes)}", step)

    def deploy(self) -> bool:
        """Deploy the first pipeline's encoders (repeatedly, timed) and open the client."""
        def step() -> None:
            reps = 1 if self.smoke else DEPLOY_REPS
            for rep in range(reps):
                began = time.perf_counter()
                services = deploy(self.outcomes[0].served, self.traffic, self.workdir)
                self.deploy_s.append(time.perf_counter() - began)
                if rep + 1 < reps:
                    services.close()
            self.server = Server(services, self.traffic)
        return self._guard("deploy", step)

    def serve_for(self, seconds: float) -> None:
        """Serve windows for ``seconds`` (at least one), then close the services."""
        def step() -> None:
            served = self.server.window()
            while served < seconds:
                served += self.server.window()
        self._guard("serve", step)
        self._guard("close services", self.server.close)

    def run(self, seconds: float) -> None:
        """The measured flow: set-up, then pipelines and serving for ``seconds``.

        The first pipeline runs before deploy, since deploy serves its
        encoders.  Serving then takes ``1 - train_share`` of ``seconds``.
        An interleaving workload alternates pipelines and serve windows,
        each kept at the same share of its target; the others finish their
        pipelines first.
        """
        if not (self.prepare() and self.pipeline() and self.deploy()):
            return
        train_target = seconds * self.workload.train_share
        serve_target = seconds - train_target

        def step() -> None:
            train_s, serve_s = self.pipeline_s[0], 0.0
            while train_s < train_target or serve_s < serve_target:
                train_turn = train_s < train_target and (
                    serve_s >= serve_target or train_s / train_target <= serve_s / serve_target
                )
                if train_turn:
                    if not self.pipeline():
                        return
                    train_s += self.pipeline_s[-1]
                else:
                    serve_s += self.server.window()
        self._guard("serve", step)
        self._guard("close services", self.server.close)

    def checks(self) -> List[Check]:
        """Correctness checks; run outside any traced scope."""
        checks: List[Check] = []
        floor = self.workload.probe_floor
        for number, outcome in enumerate(self.outcomes):
            tag = f"pipeline {number}"
            first = self.outcomes[0]

            def verify(tag=tag, outcome=outcome) -> None:
                checks.extend((f"{tag}: {name}", ok) for name, ok in outcome.verify())

            checks.append((f"{tag}: losses finite",
                           bool(np.all(np.isfinite(outcome.losses)))))
            checks.append((f"{tag}: probe_acc {outcome.probe_acc:.2f} >= {floor}",
                           outcome.probe_acc >= floor))
            checks.append((f"{tag}: same losses and probe_acc as pipeline 0",
                           outcome.losses == first.losses
                           and outcome.probe_acc == first.probe_acc))
            self._guard(f"{tag}: verify", verify)
        if self.server is not None:
            self._guard("verify served rows", lambda: checks.extend(self.server.verify()))
        return checks
