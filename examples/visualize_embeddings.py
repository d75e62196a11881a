"""Reproduce Figure 1: t-SNE views of embeddings from three paradigms.

Trains GCMAE, GraphMAE and CCA-SSG on the cora-like graph, projects their
embeddings to 2-D with the built-in t-SNE, and writes an ASCII scatter per
method (no plotting dependencies needed) along with the NMI each embedding
achieves under k-means — the paper's Figure 1 in terminal form.

    python examples/visualize_embeddings.py
"""

import numpy as np

from repro.experiments import run_figure1
from repro.experiments.profiles import FAST


def ascii_scatter(coordinates: np.ndarray, labels: np.ndarray, width=68, height=22) -> str:
    """Render labelled 2-D points as a character grid."""
    glyphs = "0123456789abcdefghijklmnop"
    x, y = coordinates[:, 0], coordinates[:, 1]
    x = (x - x.min()) / max(np.ptp(x), 1e-9)
    y = (y - y.min()) / max(np.ptp(y), 1e-9)
    grid = [[" "] * width for _ in range(height)]
    for xi, yi, label in zip(x, y, labels):
        row = min(height - 1, int(yi * (height - 1)))
        col = min(width - 1, int(xi * (width - 1)))
        grid[row][col] = glyphs[label % len(glyphs)]
    return "\n".join("".join(row) for row in grid)


def main() -> None:
    panels = run_figure1(profile=FAST, dataset="cora-like", seed=0, tsne_iterations=300)
    for panel in panels:
        print(f"\n=== {panel.method}  (k-means NMI = {panel.nmi:.3f}) ===")
        print(ascii_scatter(panel.coordinates, panel.labels))
    best = max(panels, key=lambda p: p.nmi)
    print(
        f"\nbest-separated embedding: {best.method} "
        "(the paper's Figure 1 shows GCMAE with the cleanest clusters)"
    )


if __name__ == "__main__":
    main()
