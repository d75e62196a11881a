"""Quickstart: pretrain GCMAE on a citation graph and evaluate all four tasks.

Runs in about a minute on a laptop CPU:

    python examples/quickstart.py
"""

import numpy as np

from repro.core import GCMAEConfig, GCMAEMethod
from repro.eval import evaluate_clustering, evaluate_link_prediction, evaluate_probe
from repro.graph import load_node_dataset, split_edges


def main() -> None:
    # 1. Load a dataset.  "cora-like" is a deterministic synthetic stand-in
    #    for Cora: 600 nodes, 7 classes, homophilous, sparse binary features.
    graph = load_node_dataset("cora-like", seed=0)
    print(f"dataset: {graph.summary()}")

    # 2. Pretrain GCMAE (no labels involved).  The config mirrors the paper:
    #    feature masking for the MAE view, node dropping for the contrastive
    #    view, and the four-term objective of Eq. 8.
    config = GCMAEConfig(hidden_dim=128, embed_dim=128, epochs=100)
    method = GCMAEMethod(config)
    result = method.fit(graph, seed=0)
    model = method.last_train_result.model  # step 5 refits, so keep this one
    print(
        f"pretrained in {result.train_seconds:.1f}s; "
        f"loss {result.loss_history[0]:.3f} -> {result.loss_history[-1]:.3f}"
    )

    # 3. Node classification: freeze the embeddings, fit a linear probe on the
    #    few labelled training nodes, report test accuracy.
    probe = evaluate_probe(
        result.embeddings, graph.labels, graph.train_mask, graph.test_mask
    )
    print(f"node classification accuracy: {probe.accuracy:.3f}")

    # 4. Node clustering: k-means on the same embeddings, scored with NMI/ARI.
    clusters = evaluate_clustering(result.embeddings, graph.labels, seed=0)
    print(f"node clustering: NMI={clusters.nmi:.3f} ARI={clusters.ari:.3f}")

    # 5. Link prediction needs a dedicated split: hold out edges, retrain on
    #    the residual graph, then score the held-out edges.
    split = split_edges(graph, seed=0)
    lp_result = method.fit(split.train_graph, seed=0)
    scores = evaluate_link_prediction(lp_result.embeddings, split, seed=0)
    print(f"link prediction: AUC={scores.auc:.3f} AP={scores.ap:.3f}")

    # 6. Checkpointing: persist the pretrained model and reload it later.
    from repro.core import load_gcmae, save_gcmae

    path = save_gcmae(model, "gcmae-quickstart.npz")
    restored = load_gcmae(path)
    roundtrip = restored.embed(graph.adjacency, graph.features)
    assert np.allclose(roundtrip, result.embeddings)
    print(f"checkpoint round-trip OK ({path})")


if __name__ == "__main__":
    main()
