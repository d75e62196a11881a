"""Figure runners: Figures 1, 4, 5 and 6 of the paper.

* Figure 1 — t-SNE of Cora embeddings with NMI for GCMAE / GraphMAE /
  CCA-SSG (clustering-quality visual).
* Figure 4 — cosine similarity between nodes and their exactly-5-hop
  neighbours across training epochs, GraphMAE vs GCMAE (the "global
  information" probe).
* Figure 5 — node-classification F1 over the ``p_mask`` x ``p_drop`` grid.
* Figure 6 — accuracy as a function of hidden width and encoder depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..baselines import CCASSG, GraphMAE
from ..core import GCMAEMethod, train_gcmae
from ..eval.classification import evaluate_probe
from ..eval.clustering import evaluate_clustering
from ..eval.tsne import TSNE
from ..graph.data import Graph
from ..graph.datasets import load_node_dataset
from ..graph.sparse import k_hop_neighbors
from ..obs.hooks import LambdaHook
from ..parallel import run_cells
from .cache import cached_fit
from .profiles import Profile, current_profile
from .registry import gcmae_config
from .results import SeriesResult


# ---------------------------------------------------------------------------
# Figure 1 — t-SNE + NMI
# ---------------------------------------------------------------------------
@dataclass
class Figure1Panel:
    """One panel of Figure 1: 2-D coordinates, labels, and the NMI score."""

    method: str
    coordinates: np.ndarray
    labels: np.ndarray
    nmi: float


def run_figure1(
    profile: Optional[Profile] = None,
    dataset: str = "cora-like",
    seed: int = 0,
    tsne_iterations: int = 300,
    jobs: Optional[int] = None,
) -> List[Figure1Panel]:
    """Reproduce Figure 1: embeddings of GCMAE, GraphMAE and CCA-SSG."""
    profile = profile if profile is not None else current_profile()
    graph = load_node_dataset(dataset, seed=seed)
    methods = [
        ("GCMAE", GCMAEMethod(gcmae_config(profile))),
        ("GraphMAE", GraphMAE(hidden_dim=profile.hidden_dim, epochs=profile.epochs)),
        ("CCA-SSG", CCASSG(hidden_dim=profile.hidden_dim, epochs=min(profile.epochs, 60))),
    ]

    def run_cell(item: Tuple[str, object]) -> Figure1Panel:
        name, method = item
        key = f"fig1-{name}-{dataset}-{seed}-{profile.name}"
        result = cached_fit(key, lambda: method.fit(graph, seed=seed))
        scores = evaluate_clustering(result.embeddings, graph.labels, seed=seed)
        coordinates = TSNE(
            num_iterations=tsne_iterations, seed=seed
        ).fit_transform(result.embeddings)
        return Figure1Panel(
            method=name,
            coordinates=coordinates,
            labels=graph.labels,
            nmi=scores.nmi,
        )

    return run_cells(methods, run_cell, jobs=jobs, label="figure1")


# ---------------------------------------------------------------------------
# Figure 4 — similarity to distant (5-hop) nodes across epochs
# ---------------------------------------------------------------------------
def _distant_pairs(
    graph: Graph, hops: int, num_targets: int, rng: np.random.Generator
) -> List[Tuple[int, np.ndarray]]:
    """Sample target nodes that actually have exactly-``hops``-away peers."""
    pairs = []
    candidates = rng.permutation(graph.num_nodes)
    for node in candidates:
        distant = k_hop_neighbors(graph.adjacency, int(node), hops)
        if distant.size:
            pairs.append((int(node), distant))
        if len(pairs) >= num_targets:
            break
    if not pairs:
        raise RuntimeError(f"no node has {hops}-hop neighbours; graph too small/dense")
    return pairs


def _mean_distant_similarity(
    embeddings: np.ndarray, pairs: Sequence[Tuple[int, np.ndarray]]
) -> float:
    norms = np.linalg.norm(embeddings, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    unit = embeddings / norms
    similarities = [
        float(unit[distant] @ unit[node]) if distant.size == 1
        else float((unit[distant] @ unit[node]).mean())
        for node, distant in pairs
    ]
    return float(np.mean(similarities))


def run_figure4(
    profile: Optional[Profile] = None,
    dataset: str = "cora-like",
    seed: int = 0,
    hops: int = 5,
    num_targets: int = 20,
    probe_every: int = 10,
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Reproduce Figure 4: distant-node similarity vs training epoch.

    "GraphMAE" here is GCMAE's MAE-only backbone configuration (identical
    architecture, no contrastive/structure/discrimination terms), which makes
    the comparison a controlled experiment on the GCMAE additions.
    """
    profile = profile if profile is not None else current_profile()
    graph = load_node_dataset(dataset, seed=seed)
    rng = np.random.default_rng(seed)
    pairs = _distant_pairs(graph, hops, num_targets, rng)

    figure = SeriesResult(
        name=f"Figure 4 — similarity to {hops}-hop neighbours ({dataset})",
        x_label="epoch",
        y_label="mean cosine similarity",
    )
    config = gcmae_config(profile)
    variants = {
        "GCMAE": config,
        "GraphMAE": config.with_overrides(
            use_contrastive=False,
            use_structure_reconstruction=False,
            use_discrimination=False,
        ),
    }
    items = list(variants.items())

    def run_cell(item: Tuple[str, object]) -> List[Tuple[int, float]]:
        _name, variant_config = item
        points: List[Tuple[int, float]] = []

        def probe(event) -> None:
            if event.epoch % probe_every == 0 or event.epoch == variant_config.epochs - 1:
                embeddings = event.model.embed(graph.adjacency, graph.features)
                points.append(
                    (event.epoch, _mean_distant_similarity(embeddings, pairs))
                )

        train_gcmae(graph, variant_config, seed=seed, hooks=(LambdaHook(probe),))
        return points

    series = run_cells(items, run_cell, jobs=jobs, label="figure4")
    for (name, _config), points in zip(items, series):
        for epoch, similarity in points:
            figure.add_point(name, epoch, similarity)

    final_gcmae = max(figure.series["GCMAE"].items())[1]
    final_mae = max(figure.series["GraphMAE"].items())[1]
    figure.notes.append(
        f"final similarity — GCMAE: {final_gcmae:.3f}, GraphMAE: {final_mae:.3f} "
        "(paper: GCMAE rises into 0.4-0.6 and stabilises; GraphMAE stays low)"
    )
    return figure


# ---------------------------------------------------------------------------
# Figure 5 — mask-rate x drop-rate sweep
# ---------------------------------------------------------------------------
def run_figure5(
    profile: Optional[Profile] = None,
    dataset: str = "cora-like",
    mask_rates: Sequence[float] = (0.2, 0.5, 0.8),
    drop_rates: Sequence[float] = (0.0, 0.2, 0.4),
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Reproduce Figure 5: macro-F1 over the ``p_mask`` x ``p_drop`` grid.

    Each drop rate yields one series over mask rates (a 2-D slice of the
    paper's 3-D surface).
    """
    profile = profile if profile is not None else current_profile()
    graph = load_node_dataset(dataset, seed=seed)
    figure = SeriesResult(
        name=f"Figure 5 — p_mask x p_drop sweep ({dataset})",
        x_label="mask rate p_mask",
        y_label="macro F1 (%)",
    )
    cells = [
        (drop_rate, mask_rate)
        for drop_rate in drop_rates
        for mask_rate in mask_rates
    ]

    def run_cell(cell: Tuple[float, float]) -> float:
        drop_rate, mask_rate = cell
        config = gcmae_config(profile, mask_rate=mask_rate, drop_rate=drop_rate)
        key = f"fig5-m{mask_rate:g}-d{drop_rate:g}-{dataset}-{seed}-{profile.name}"
        result = cached_fit(key, lambda: GCMAEMethod(config).fit(graph, seed=seed))
        probe = evaluate_probe(
            result.embeddings, graph.labels, graph.train_mask, graph.test_mask
        )
        return probe.macro_f1 * 100.0

    for (drop_rate, mask_rate), f1 in zip(
        cells, run_cells(cells, run_cell, jobs=jobs, label="figure5")
    ):
        figure.add_point(f"p_drop={drop_rate:g}", mask_rate, f1)
    figure.notes.append(
        "paper claims: performance stays high for p_mask in 0.5-0.8; p_mask "
        "dominates while p_drop causes only mild variation"
    )
    return figure


# ---------------------------------------------------------------------------
# Figure 6 — width and depth sweeps
# ---------------------------------------------------------------------------
def figure6_spec(
    dataset: str = "cora-like",
    widths: Sequence[int] = (32, 64, 128, 256),
    depths: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
):
    """The Figure 6 run spec: one labelled GCMAE line per width, then per depth."""
    from ..spec import parse_spec

    methods = [
        {"name": "GCMAE", "label": f"width={w}", "overrides": {"hidden_dim": w, "embed_dim": w}}
        for w in widths
    ]
    methods += [
        {"name": "GCMAE", "label": f"depth={d}", "overrides": {"num_layers": d}}
        for d in depths
    ]
    return parse_spec(
        {
            "name": "figure6",
            "title": f"Figure 6 — width / depth sweep ({dataset})",
            "protocol": "classification",
            "datasets": [dataset],
            "seeds": [seed],
            "methods": methods,
        }
    )


def run_figure6(
    profile: Optional[Profile] = None,
    dataset: str = "cora-like",
    widths: Sequence[int] = (32, 64, 128, 256),
    depths: Sequence[int] = (1, 2, 4, 8),
    seed: int = 0,
    jobs: Optional[int] = None,
) -> SeriesResult:
    """Reproduce Figure 6: accuracy vs hidden width and encoder depth."""
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = figure6_spec(dataset=dataset, widths=widths, depths=depths, seed=seed)
    table = run_spec(spec, profile=profile, jobs=jobs)
    figure = SeriesResult(
        name=table.name,
        x_label="hidden width (width series) or depth (depth series)",
        y_label="accuracy (%)",
    )
    for series, values in (("width", widths), ("depth", depths)):
        for value in values:
            figure.add_point(series, value, table.get(f"{series}={value}", dataset).mean)
    figure.notes.append(
        "paper claims: wider is better up to a point; 2 layers is optimal and "
        "accuracy degrades as depth grows"
    )
    return figure
