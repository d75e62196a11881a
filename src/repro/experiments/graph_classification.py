"""Table 7: graph classification accuracy across methods and datasets."""

from __future__ import annotations

from typing import List, Optional

from .profiles import Profile, current_profile
from .registry import graph_ssl_methods, graph_task_datasets
from .results import ExperimentTable


def table7_spec(
    profile: Profile,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
):
    """The Table 7 run spec (graph-classification protocol)."""
    from ..spec import parse_spec

    datasets = datasets if datasets is not None else graph_task_datasets(profile)
    methods = methods if methods is not None else list(graph_ssl_methods(profile))
    return parse_spec(
        {
            "name": "table7",
            "title": "Table 7 — graph classification accuracy (%)",
            "protocol": "graph-classification",
            "datasets": list(datasets),
            "methods": list(methods),
        }
    )


def run_table7(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 7: graph-level SSL -> 5-fold-CV linear SVM accuracy.

    SeeGera and MaskGAE are absent, matching the paper ("source code
    unavailable" for graph classification).  Emits :func:`table7_spec`
    and executes it through :func:`repro.spec.run_spec`, which voids a
    cell as "OOM" when any seed runs out of memory.
    """
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = table7_spec(profile, datasets=datasets, methods=methods)
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.note_best()
    return table
