"""Table 10: component ablation of GCMAE.

Rows: the full model, minus contrastive loss ("w/o Con."), minus adjacency
reconstruction ("w/o Stru. Rec."), minus discrimination loss ("w/o Disc."),
and the GraphMAE backbone as the floor.
"""

from __future__ import annotations

from typing import List, Optional

from .profiles import Profile, current_profile
from .registry import citation_datasets
from .results import ExperimentTable

# Each removal row is GCMAE with one loss-term switch off
# (``GCMAEConfig.ablated``).
_REMOVALS = {
    "w/o Con.": "use_contrastive",
    "w/o Stru. Rec.": "use_structure_reconstruction",
    "w/o Disc.": "use_discrimination",
}
ABLATION_ROWS = ("GCMAE", *_REMOVALS, "GraphMAE")


def table10_spec(
    profile: Profile,
    datasets: Optional[List[str]] = None,
    rows: Optional[List[str]] = None,
):
    """The Table 10 run spec: one labelled method line per ablation row."""
    from ..spec import parse_spec

    lines = {
        "GCMAE": {"name": "GCMAE"},
        **{
            row: {"name": "GCMAE", "label": row, "overrides": {switch: False}}
            for row, switch in _REMOVALS.items()
        },
        # The floor trains at the shared width and epoch budget, not at
        # GraphMAE's longer Table 4 budget.
        "GraphMAE": {
            "name": "GraphMAE",
            "overrides": {"hidden_dim": profile.hidden_dim, "epochs": profile.epochs},
        },
    }
    datasets = datasets if datasets is not None else citation_datasets(profile)
    rows = list(rows) if rows is not None else list(ABLATION_ROWS)
    unknown = [row for row in rows if row not in lines]
    if unknown:
        raise ValueError(f"unknown ablation rows {unknown}; use {list(ABLATION_ROWS)}")
    return parse_spec(
        {
            "name": "table10",
            "title": "Table 10 — component ablation, node classification accuracy (%)",
            "protocol": "classification",
            "datasets": list(datasets),
            "methods": [lines[row] for row in rows],
        }
    )


def run_table10(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    rows: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 10 on the three citation datasets."""
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = table10_spec(profile, datasets=datasets, rows=rows)
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.notes.append(
        "paper claims: every removal hurts; removing structure reconstruction "
        "hurts most; even 'w/o Con.' still beats GraphMAE"
    )
    return table
