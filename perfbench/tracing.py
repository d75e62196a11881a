"""Outside-in per-layer tracing: timers wrapped around the program's callables.

Nothing in ``src/`` knows it is being traced.  :class:`Tracer` replaces
public callables with timing wrappers for the duration of a traced pass and
puts the originals back afterwards.  A name a caller got with
``from module import name`` is wrapped in the *caller's* namespace, because
that is where the call resolves it; wrapping the defining module would
record nothing.  :func:`install` holds the layer map and ``LAYERS.md``
explains it.

Every wrapped call records a span (metric name, start, end, parent span)
on a per-thread stack.  Spans stay in memory and are written out when the
run ends.  A span whose metric is already open on the same thread is not
recorded again, so recursion and ``infer_batch -> infer`` count once.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class _Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, parent: Optional["_Span"], thread: int) -> None:
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = time.perf_counter()
        self.end = 0.0


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.arenas: Dict[int, object] = {}
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.open = defaultdict(int)
        return local

    def wrap(
        self,
        owner,
        attr: str,
        metric: str,
        skip_under: Sequence[str] = (),
        prepare: Optional[Callable] = None,
        observe: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``metric`` spans.

        ``prepare(args, kwargs) -> (args, kwargs)`` may rewrite the call
        (the operand probe wraps its builder to see misses);
        ``observe(args, result)`` sees every recorded call's outcome.
        Calls made while a ``skip_under`` metric is open on the thread are
        passed through unrecorded.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            if state.open[metric] or any(state.open[m] for m in skip_under):
                return fn(*args, **kwargs)
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = _Span(
                metric, state.stack[-1] if state.stack else None, threading.get_ident()
            )
            state.stack.append(span)
            state.open[metric] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                state.stack.pop()
                state.open[metric] -= 1
                tracer.spans.append(span)
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def calls(self, metric: str) -> int:
        return sum(1 for span in self.spans if span.name == metric)

    def seconds(self, metric: str) -> float:
        return sum(span.end - span.start for span in self.spans if span.name == metric)

    def self_seconds(self, metric: str) -> float:
        """Duration of ``metric`` spans minus the time their children cover.

        Children run on the parent's thread and are sequential, so the
        covered time is the sum of their durations.
        """
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.parent.name == metric:
                covered[id(span.parent)] += span.end - span.start
        return sum(
            (span.end - span.start) - covered[id(span)]
            for span in self.spans
            if span.name == metric
        )

    def write(self, path: str) -> None:
        """Dump every span as ``[name, start, end, parent index, thread]``."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [
                span.name,
                span.start,
                span.end,
                index.get(id(span.parent), -1),
                span.thread,
            ]
            for span in self.spans
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent", "thread"],
                       "spans": rows}, handle)


# ---------------------------------------------------------------------------
# The layer map
# ---------------------------------------------------------------------------
def install(tracer: Tracer) -> None:
    """Wrap every probed callable (see ``LAYERS.md`` for the why of each)."""
    import repro.core.gcmae as gcmae
    import repro.core.losses as losses
    import repro.engine.loop as loop
    import repro.eval.classification as classification
    import repro.gnn.conv as conv
    import repro.gnn.readout as readout
    import repro.graph.datasets as datasets
    import repro.nn.functional as functional
    from repro.engine import TrainLoop
    from repro.gnn.encoder import GNNEncoder
    from repro.graph.batch import GraphBatch
    from repro.graph.sampling import NeighborSampler
    from repro.nn.arena import BufferArena
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor
    from repro.obs.recorder import MetricsRecorder

    def flag_operand_miss(args, kwargs):
        matrix, key, builder = args

        def build():
            tracer.values["graph.operand_misses"].append(1.0)
            return builder()

        return (matrix, key, build), kwargs

    def checkpoint_size(args, result) -> None:
        tracer.values["engine.checkpoint_bytes"].append(float(os.path.getsize(result)))

    def block_size(args, result) -> None:
        tracer.values["graph.block_nodes"].append(float(result.num_nodes))

    def keep_arena(args, result) -> None:
        tracer.arenas[id(args[0])] = args[0]

    w = tracer.wrap
    w(datasets, "load_node_dataset", "graph.generate_s")
    w(datasets, "load_graph_dataset", "graph.generate_s")
    w(NeighborSampler, "sample", "graph.sample_s", observe=block_size)
    w(gcmae, "mask_node_features", "graph.augment_s")
    w(gcmae, "drop_nodes", "graph.augment_s")
    w(conv, "memoized_on_matrix", "graph.operand_s", prepare=flag_operand_miss)
    w(GraphBatch, "from_graphs", "graph.batch_s")
    w(Tensor, "backward", "nn.backward_s")
    w(Adam, "step", "nn.optim_s")
    for name in ("segment_sum", "segment_mean", "segment_max"):
        w(functional, name, "nn.segment_s")
    w(BufferArena, "advance", "nn.arena_advance", observe=keep_arena)
    w(GNNEncoder, "forward", "gnn.forward_s", skip_under=("gnn.infer_s",))
    w(GNNEncoder, "infer", "gnn.infer_s")
    w(GNNEncoder, "infer_batch", "gnn.infer_s")
    w(readout, "batch_readout", "gnn.readout_s")
    w(gcmae.GCMAE, "training_loss", "core.loss_s")
    w(gcmae, "sce_loss", "core.sce_s")
    w(gcmae, "info_nce", "core.infonce_s")
    w(gcmae, "adjacency_reconstruction_loss", "core.structure_s")
    w(gcmae, "discrimination_loss", "core.disc_s")
    w(losses, "sample_nonedges", "core.nonedge_s")
    w(TrainLoop, "run", "engine.run")
    w(loop, "emit_epoch", "engine.hooks_s")
    w(loop, "save_checkpoint", "engine.checkpoint_s", observe=checkpoint_size)
    w(classification, "evaluate_probe", "eval.probe_s")
    w(classification, "cross_validated_probe", "eval.probe_s")
    for name in ("counter", "gauge", "span", "on_epoch"):
        w(MetricsRecorder, name, "obs.record_s")


# Wrapped metrics and the workloads on which each must record calls; on
# every other workload it must record none.  A wrapper placed where no
# caller resolves the name records nothing, which this map catches.
ALL = ("cora-fullgraph", "reddit-sampled", "mutag-graphs")
EXPECTED_ACTIVE: Dict[str, Tuple[str, ...]] = {
    "graph.generate_s": ALL,
    "graph.sample_s": ("reddit-sampled",),
    "graph.augment_s": ALL,
    "graph.operand_s": ALL,
    "graph.batch_s": ALL,
    "nn.backward_s": ALL,
    "nn.optim_s": ALL,
    "nn.segment_s": ("cora-fullgraph", "mutag-graphs"),
    "nn.arena_advance": ALL,
    "gnn.forward_s": ALL,
    "gnn.infer_s": ALL,
    "gnn.readout_s": ("mutag-graphs",),
    "core.loss_s": ALL,
    "core.sce_s": ALL,
    "core.infonce_s": ALL,
    "core.structure_s": ("cora-fullgraph", "mutag-graphs"),
    "core.disc_s": ("cora-fullgraph", "mutag-graphs"),
    "core.nonedge_s": ("cora-fullgraph", "mutag-graphs"),
    "engine.run": ALL,
    "engine.hooks_s": ALL,
    "engine.checkpoint_s": ("cora-fullgraph",),
    "eval.probe_s": ALL,
    "obs.record_s": ALL,
}


def coverage_errors(tracer: Tracer, workload: str) -> List[str]:
    """Wrappers whose call count contradicts :data:`EXPECTED_ACTIVE`."""
    errors = []
    for metric, active_on in EXPECTED_ACTIVE.items():
        calls = tracer.calls(metric)
        if workload in active_on and calls == 0:
            errors.append(f"{metric}: no calls recorded, expected some")
        elif workload not in active_on and calls > 0:
            errors.append(f"{metric}: {calls} calls recorded, expected none")
    return errors
