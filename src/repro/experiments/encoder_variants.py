"""Table 8: the encoder-sharing study (MAE / Con. / Fusion / Shared)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.variants import fit_encoder_variant
from ..eval.classification import evaluate_probe
from ..graph.datasets import load_node_dataset
from ..parallel import run_cells
from .cache import cached_fit
from .profiles import Profile, current_profile
from .registry import citation_datasets, gcmae_config
from .results import ExperimentTable

VARIANT_ROWS = {
    "MAE Encoder": "mae",
    "Con. Encoder": "contrastive",
    "Fusion Encoder": "fusion",
    "Shared Encoder": "shared",
}


def run_table8(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 8 on the three citation datasets."""
    profile = profile if profile is not None else current_profile()
    datasets = datasets if datasets is not None else citation_datasets(profile)
    table = ExperimentTable(
        name="Table 8 — encoder designs, node classification accuracy (%)",
        rows=list(VARIANT_ROWS),
        columns=list(datasets),
    )
    config = gcmae_config(profile)
    cells: List[Tuple[str, str, int]] = [
        (row, dataset_name, seed)
        for row in VARIANT_ROWS
        for dataset_name in datasets
        for seed in profile.seeds
    ]

    def run_cell(cell: Tuple[str, str, int]) -> float:
        row, dataset_name, seed = cell
        variant = VARIANT_ROWS[row]
        graph = load_node_dataset(dataset_name, seed=seed)
        key = f"enc-{variant}-{dataset_name}-{seed}-{profile.name}"
        result = cached_fit(
            key,
            lambda: fit_encoder_variant(graph, variant, config, seed=seed),
        )
        probe = evaluate_probe(
            result.embeddings, graph.labels, graph.train_mask, graph.test_mask
        )
        return probe.accuracy * 100.0

    scores = run_cells(cells, run_cell, jobs=jobs, label="table8")
    grouped: dict = {}
    for (row, dataset_name, _seed), score in zip(cells, scores):
        grouped.setdefault((row, dataset_name), []).append(score)
    for (row, dataset_name), values in grouped.items():
        table.set(row, dataset_name, values)

    table.notes.append(
        "paper claims: Shared > MAE > Fusion > Con.; the contrastive-only "
        "encoder collapses under the high mask ratio"
    )
    return table
