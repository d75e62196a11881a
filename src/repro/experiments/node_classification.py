"""Table 4: node classification accuracy across methods and datasets."""

from __future__ import annotations

from typing import List, Optional

from ..engine import EmbeddingResult
from ..graph.datasets import load_node_dataset
from ..obs.spans import trace_span
from .cache import cached_fit
from .profiles import Profile, current_profile
from .registry import (
    CONTRASTIVE_NODE,
    MAE_NODE,
    MVGRL_OOM,
    node_ssl_methods,
    node_task_datasets,
    supervised_methods,
)
from .results import ExperimentTable

def fit_node_method(
    method_name: str,
    dataset_name: str,
    seed: int,
    profile: Profile,
) -> EmbeddingResult:
    """Pretrain one SSL method on one dataset (cached across tables)."""
    factories = node_ssl_methods(profile)
    key = f"{method_name}-{dataset_name}-{seed}-{profile.name}"
    with trace_span(f"table4/{method_name}/{dataset_name}/seed{seed}"):
        return cached_fit(
            key, lambda: factories[method_name]().fit(load_node_dataset(dataset_name, seed=seed), seed=seed)
        )


def table4_spec(
    profile: Profile,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    include_supervised: bool = True,
):
    """The Table 4 run spec: supervised rows first, then the SSL methods.

    ``examples/spec_table4.yaml`` is this spec serialized; running either
    through :func:`repro.spec.run_spec` gives the same table.
    """
    from ..spec import parse_spec

    datasets = datasets if datasets is not None else node_task_datasets(profile)
    methods = methods if methods is not None else list(node_ssl_methods(profile))
    rows: List[str] = []
    if include_supervised:
        rows.extend(supervised_methods(profile))
    rows.extend(methods)
    return parse_spec(
        {
            "name": "table4",
            "title": "Table 4 — node classification accuracy (%)",
            "protocol": "classification",
            "datasets": list(datasets),
            "methods": rows,
            "skip": [MVGRL_OOM],
        }
    )


def run_table4(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    include_supervised: bool = True,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 4: SSL pretrain -> linear probe -> test accuracy.

    Emits :func:`table4_spec` and executes it through
    :func:`repro.spec.run_spec`.  ``jobs`` defaults to ``REPRO_JOBS``.
    """
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = table4_spec(
        profile,
        datasets=datasets,
        methods=methods,
        include_supervised=include_supervised,
    )
    table = run_spec(spec, profile=profile, jobs=jobs)
    _annotate_table4(table, list(spec.datasets))
    return table


def _annotate_table4(table: ExperimentTable, datasets: List[str]) -> None:
    table.note_best()
    contrast = [m for m in CONTRASTIVE_NODE if m in table.rows]
    maes = [m for m in MAE_NODE if m in table.rows]
    if "GCMAE" in table.rows and contrast and maes:
        for dataset_name in datasets:
            gcmae = table.get("GCMAE", dataset_name)
            if gcmae is None:
                continue
            best_contrastive = max(
                (table.get(m, dataset_name).mean for m in contrast
                 if table.get(m, dataset_name) is not None),
                default=float("nan"),
            )
            best_mae = max(
                (table.get(m, dataset_name).mean for m in maes
                 if table.get(m, dataset_name) is not None),
                default=float("nan"),
            )
            table.notes.append(
                f"{dataset_name}: GCMAE {gcmae.mean:.2f} vs best contrastive "
                f"{best_contrastive:.2f}, best MAE {best_mae:.2f}"
            )
