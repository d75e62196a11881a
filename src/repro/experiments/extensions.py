"""Design-choice ablations beyond the paper's Table 10.

DESIGN.md calls out four implementation-level design choices the paper
inherits or introduces without individual ablation; this runner measures
each on node classification:

* the GraphMAE-style **re-mask before decoding**,
* the three sub-terms of the adjacency-reconstruction loss ``L_E``
  (Eqs. 16-18): MSE-only, BCE-only, no relative-distance term,
* the **InfoNCE temperature**.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .profiles import Profile, current_profile
from .results import ExperimentTable

DESIGN_VARIANTS = {
    "full model": {},
    "no re-mask": {"remask_before_decode": False},
    "L_E: bce only": {"structure_terms": ("bce",)},
    "L_E: no dist": {"structure_terms": ("mse", "bce")},
    "tau=0.2": {"temperature": 0.2},
}


_DESIGN_NOTE = (
    "extension study: these choices are inherited (re-mask, from GraphMAE) "
    "or introduced without individual ablation (L_E sub-terms, tau) in the paper"
)


def design_ablation_spec(
    datasets: Optional[List[str]] = None,
    variants: Optional[Dict[str, dict]] = None,
):
    """The design-ablation run spec: one labelled GCMAE row per variant."""
    from ..spec import parse_spec

    datasets = datasets if datasets is not None else ["cora-like"]
    variants = variants if variants is not None else DESIGN_VARIANTS
    methods = []
    for row, overrides in variants.items():
        methods.append(
            {
                "name": "GCMAE",
                "label": row,
                # Specs are JSON/YAML-shaped: tuples become lists (the
                # config layer coerces them back on resolution).
                "overrides": {
                    key: list(value) if isinstance(value, tuple) else value
                    for key, value in overrides.items()
                },
            }
        )
    return parse_spec(
        {
            "name": "design_ablation",
            "title": "Design ablation (extension) — node classification accuracy (%)",
            "protocol": "classification",
            "datasets": list(datasets),
            "methods": methods,
        }
    )


def run_design_ablation(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    variants: Optional[Dict[str, dict]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Accuracy of each design variant on node classification.

    Emits :func:`design_ablation_spec` and executes it through
    :func:`repro.spec.run_spec`.  Variant rows whose config differs from
    the profile default cache under config-digest keys.
    """
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = design_ablation_spec(datasets=datasets, variants=variants)
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.notes.append(_DESIGN_NOTE)
    return table
