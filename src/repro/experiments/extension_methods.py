"""Extension comparison: related-work methods the paper cites but omits.

BGRL, GCA (contrastive, Section 6.1) and GraphMAE2 (generative, Section 6.2)
are discussed in the paper's related work without appearing in its tables.
This runner slots them into the Table 4 protocol next to GCMAE, answering
"would the paper's conclusion survive newer baselines?".
"""

from __future__ import annotations

from typing import List, Optional

from ..registry import METHODS
from .profiles import Profile, current_profile
from .results import ExperimentTable


def extension_comparison_spec(datasets: Optional[List[str]] = None):
    """The extension run spec: the registry's ``extension`` methods, then GCMAE.

    The rows are the node methods tagged ``extension`` (BGRL, GCA,
    GraphMAE2), with GCMAE appended as the anchor they are compared against.
    """
    from ..spec import parse_spec

    return parse_spec(
        {
            "name": "extension_comparison",
            "title": "Extension — related-work methods vs GCMAE (accuracy, %)",
            "protocol": "classification",
            "datasets": list(datasets) if datasets is not None else ["cora-like"],
            "methods": [*METHODS.names("node", tags=("extension",)), "GCMAE"],
        }
    )


def run_extension_comparison(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Node classification accuracy of the extension methods vs GCMAE."""
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = extension_comparison_spec(datasets=datasets)
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.note_best()
    return table
