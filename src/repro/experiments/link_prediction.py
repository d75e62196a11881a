"""Table 5: link prediction AUC/AP across methods and datasets.

Protocol (following MaskGAE, which the paper adopts): hold out 5% of edges
for validation and 10% for test, pretrain every method on the residual
training graph, then fine-tune a logistic edge scorer on Hadamard features
and report AUC/AP on the held-out test edges.
"""

from __future__ import annotations

from typing import List, Optional

from .profiles import Profile, current_profile
from .registry import MVGRL_OOM, node_ssl_methods, node_task_datasets
from .results import ExperimentTable


def table5_spec(
    profile: Profile,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
):
    """The Table 5 run spec (``linkpred`` protocol, no supervised rows)."""
    from ..spec import parse_spec

    datasets = datasets if datasets is not None else node_task_datasets(profile)
    methods = methods if methods is not None else list(node_ssl_methods(profile))
    return parse_spec(
        {
            "name": "table5",
            "title": "Table 5 — link prediction (AUC / AP, %)",
            "protocol": "linkpred",
            "datasets": list(datasets),
            "methods": list(methods),
            "skip": [MVGRL_OOM],
        }
    )


def run_table5(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 5 (no supervised rows, as in the paper)."""
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = table5_spec(profile, datasets=datasets, methods=methods)
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.note_best()
    if "GraphMAE" in table.rows and "MaskGAE" in table.rows:
        table.notes.append(
            "paper claim: GraphMAE (feature-only reconstruction) trails the "
            "edge-objective methods; MaskGAE is the strongest baseline"
        )
    return table
