"""The registered eval protocols a run spec can name.

Each protocol bundles what one paper table's evaluation needs: which
dataset family it loads (``node`` vs ``graph``, which also selects the
method registry protocol), the embedding-cache key prefix (protocols that
score the same pretraining share one prefix, so Tables 4 and 6 share
cached pretrainings), the metric column suffixes, and the per-cell
evaluation function.

* ``classification``       — Tables 4 and 10, the design ablation, the
  extension comparison and Figure 6: linear probe accuracy (supervised
  rows evaluate end-to-end instead of probing).
* ``clustering``           — Table 6: k-means NMI/ARI over frozen
  embeddings.
* ``linkpred``             — Table 5: AUC/AP of a fine-tuned edge scorer
  on held-out edges.
* ``graph-classification`` — Table 7: 5-fold-CV linear probe accuracy
  over pooled graph embeddings (OOM cells are voided and counted).

Cell functions return ``("ok", value)`` — a float, or a tuple aligned with
``metric_suffixes`` — or ``("oom", None)``; the runner folds per-seed
outcomes into table cells and voids any (row, dataset) with an OOM.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, List, Optional, Tuple

from ..registry import register_protocol
from .model import Variant


@dataclasses.dataclass(frozen=True)
class CellContext:
    """Per-run constants the cell functions need: naming and caching."""

    spec_name: str
    profile: Any
    prefix: str

    def key(self, variant: Variant, dataset: str, seed: int) -> str:
        """The embedding-cache key for one cell.

        For a variant whose label is its method name at the profile-default
        config this reduces to ``{prefix}{method}-{dataset}-{seed}-{profile}``,
        so every spec that runs that method at its defaults shares one cache
        entry; renamed or overridden variants get a label and/or
        config-digest suffix and never collide with them.
        """
        label = f"-{variant.label}" if variant.label != variant.method else ""
        return (
            f"{self.prefix}{variant.method}{label}-{dataset}-{seed}"
            f"-{self.profile.name}{variant.digest_suffix}"
        )

    def span(self, variant: Variant, dataset: str, seed: int) -> str:
        return f"{self.spec_name}/{variant.label}/{dataset}/seed{seed}"


@dataclasses.dataclass(frozen=True)
class EvalProtocol:
    """One downstream evaluation: dataset kind, caching, metrics, cell fn."""

    name: str
    kind: str  # "node" | "graph": dataset loader and method protocol
    cache_prefix: str
    metric_suffixes: Tuple[str, ...]
    supports_supervised: bool
    cell: Callable[[Variant, str, int, CellContext], Tuple[str, Optional[Any]]]
    default_datasets: Callable[[Any], List[str]]


def _node_datasets(profile) -> List[str]:
    from ..experiments.registry import node_task_datasets

    return node_task_datasets(profile)


def _graph_datasets(profile) -> List[str]:
    from ..experiments.registry import graph_task_datasets

    return graph_task_datasets(profile)


def _fit_cached(variant: Variant, graph, dataset: str, seed: int, ctx: CellContext):
    """Pretrain (or reload) one variant's embeddings for one node graph."""
    from ..experiments.cache import cached_fit
    from ..obs.spans import trace_span

    with trace_span(ctx.span(variant, dataset, seed)):
        return cached_fit(
            ctx.key(variant, dataset, seed),
            lambda: variant.build().fit(graph, seed=seed),
        )


def _classification_cell(variant, dataset, seed, ctx):
    from ..eval.classification import evaluate_probe
    from ..graph.datasets import load_node_dataset

    graph = load_node_dataset(dataset, seed=seed)
    if variant.supervised:
        outcome = variant.build().evaluate(graph, seed=seed)
        return ("ok", outcome.test_accuracy * 100.0)
    result = _fit_cached(variant, graph, dataset, seed, ctx)
    probe = evaluate_probe(
        result.embeddings, graph.labels, graph.train_mask, graph.test_mask
    )
    return ("ok", probe.accuracy * 100.0)


def _clustering_cell(variant, dataset, seed, ctx):
    from ..eval.clustering import evaluate_clustering
    from ..graph.datasets import load_node_dataset

    graph = load_node_dataset(dataset, seed=seed)
    result = _fit_cached(variant, graph, dataset, seed, ctx)
    scores = evaluate_clustering(result.embeddings, graph.labels, seed=seed)
    return ("ok", (scores.nmi * 100.0, scores.ari * 100.0))


def _linkpred_cell(variant, dataset, seed, ctx):
    from ..eval.linkpred import evaluate_link_prediction
    from ..graph.datasets import load_node_dataset
    from ..graph.splits import split_edges

    graph = load_node_dataset(dataset, seed=seed)
    split = split_edges(graph, seed=seed)
    result = _fit_cached(variant, split.train_graph, dataset, seed, ctx)
    scores = evaluate_link_prediction(
        result.embeddings, split, method="finetune", seed=seed
    )
    return ("ok", (scores.auc * 100.0, scores.ap * 100.0))


def _graph_classification_cell(variant, dataset, seed, ctx):
    from ..eval.classification import cross_validated_probe
    from ..experiments.cache import cached_fit
    from ..graph.datasets import load_graph_dataset
    from ..obs.hooks import emit_counter
    from ..obs.spans import trace_span

    data = load_graph_dataset(dataset, seed=seed)
    try:
        with trace_span(ctx.span(variant, dataset, seed)):
            result = cached_fit(
                ctx.key(variant, dataset, seed),
                lambda: variant.build().fit_graphs(data, seed=seed),
            )
    except MemoryError:
        # An OOM on any seed voids the (method, dataset) cell — a mean over
        # the surviving seeds would silently misreport the method.  The
        # counter makes every voided cell auditable from the persisted run.
        emit_counter(
            f"{ctx.spec_name}.oom",
            method=variant.label,
            dataset=dataset,
            seed=seed,
        )
        return ("oom", None)
    mean_accuracy, _ = cross_validated_probe(
        result.embeddings, data.labels, num_folds=5, seed=seed
    )
    return ("ok", mean_accuracy * 100.0)


register_protocol(
    "classification",
    EvalProtocol(
        name="classification",
        kind="node",
        cache_prefix="",
        metric_suffixes=(),
        supports_supervised=True,
        cell=_classification_cell,
        default_datasets=_node_datasets,
    ),
    order=10,
)
register_protocol(
    "linkpred",
    EvalProtocol(
        name="linkpred",
        kind="node",
        cache_prefix="lp-",
        metric_suffixes=("AUC", "AP"),
        supports_supervised=False,
        cell=_linkpred_cell,
        default_datasets=_node_datasets,
    ),
    order=20,
)
register_protocol(
    "clustering",
    EvalProtocol(
        name="clustering",
        kind="node",
        cache_prefix="",
        metric_suffixes=("NMI", "ARI"),
        supports_supervised=False,
        cell=_clustering_cell,
        default_datasets=_node_datasets,
    ),
    order=30,
)
register_protocol(
    "graph-classification",
    EvalProtocol(
        name="graph-classification",
        kind="graph",
        cache_prefix="gc-",
        metric_suffixes=(),
        supports_supervised=False,
        cell=_graph_classification_cell,
        default_datasets=_graph_datasets,
    ),
    order=40,
)
