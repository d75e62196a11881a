"""Table 6: node clustering NMI/ARI across methods and datasets."""

from __future__ import annotations

from typing import List, Optional

from .profiles import Profile, current_profile
from .registry import (
    MVGRL_OOM,
    clustering_methods,
    node_ssl_methods,
    node_task_datasets,
)
from .results import ExperimentTable


def table6_spec(
    profile: Profile,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    include_clustering_specialists: bool = True,
):
    """The Table 6 run spec: SSL rows, then the clustering specialists."""
    from ..spec import parse_spec

    datasets = datasets if datasets is not None else node_task_datasets(profile)
    methods = methods if methods is not None else [
        m for m in node_ssl_methods(profile) if m != "SeeGera"  # Table 6 omits SeeGera
    ]
    rows = list(methods)
    if include_clustering_specialists:
        rows.extend(clustering_methods(profile))
    return parse_spec(
        {
            "name": "table6",
            "title": "Table 6 — node clustering (NMI / ARI, %)",
            "protocol": "clustering",
            "datasets": list(datasets),
            "methods": rows,
            "skip": [MVGRL_OOM],
        }
    )


def run_table6(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    include_clustering_specialists: bool = True,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 6: k-means over frozen embeddings, scored by NMI/ARI.

    The SSL rows share Table 4's cached pretrainings, which is exactly the
    paper's protocol (one pretraining per method/dataset, all downstream
    tasks evaluated from it).
    """
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = table6_spec(
        profile,
        datasets=datasets,
        methods=methods,
        include_clustering_specialists=include_clustering_specialists,
    )
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.note_best()
    return table
