"""Method factories for the experiment layer, derived from ``repro.registry``.

The table runners iterate these factories so that adding a method to the
comparison never requires touching the harness.  Since PR 9 the category
tuples and factory dicts below are *derived* from the method registry's
tags and listing order — a baseline that registers itself (see
``repro.registry.register_method``) appears here automatically; nothing in
this module is hand-maintained.
"""

from __future__ import annotations

from typing import Callable, Dict, List

# Importing the baselines and the GCMAE trainer is what populates the
# registry: every method registers itself at import.
from .. import baselines  # noqa: F401
from ..core import GCMAEConfig  # importing repro.core pulls in the trainer
from ..registry import METHODS, MethodEntry
from .profiles import Profile

# The tags whose methods the SSL comparison tables iterate (clustering
# specialists have their own Table 6; extensions sit outside the paper).
_TABLE_TAGS = ("contrastive", "mae", "hybrid")


def _category(protocol: str, tag: str) -> tuple:
    """Table rows of one paradigm, excluding related-work extensions."""
    return METHODS.names(protocol, tags=(tag,), exclude_tags=("extension",))


# Category labels used in the tables (paper Section 5.1), in the paper's
# editorial row order (the registry's ``order`` values encode it).
CONTRASTIVE_NODE = _category("node", "contrastive")
MAE_NODE = _category("node", "mae")
CLUSTERING_METHODS = _category("node", "clustering")
CONTRASTIVE_GRAPH = _category("graph", "contrastive")
MAE_GRAPH = _category("graph", "mae")


def method_entries(protocol: str = "node") -> List[MethodEntry]:
    """The SSL methods of one protocol's comparison table, in row order."""
    return METHODS.entries(
        protocol, any_tags=_TABLE_TAGS, exclude_tags=("extension", "clustering")
    )


def _factories(entries: List[MethodEntry], profile: Profile) -> Dict[str, Callable]:
    return {e.name: e.factory(profile) for e in entries}


def gcmae_config(profile: Profile, **overrides) -> GCMAEConfig:
    """The GCMAE configuration for a profile, with optional overrides.

    GCMAE keeps its tuned width (256, the scaled analogue of the paper's
    512) in every profile — Figure 6 shows width is decisive for it — while
    the profile controls epochs and seeds.
    """
    return METHODS.get("GCMAE", "node").config(profile, overrides)


def node_ssl_methods(profile: Profile) -> Dict[str, Callable[[], object]]:
    """Factories for every node-level SSL method, keyed by display name."""
    return _factories(method_entries("node"), profile)


def supervised_methods(profile: Profile) -> Dict[str, Callable[[], object]]:
    """GCN and GAT supervised baselines (node classification only)."""
    return _factories(METHODS.entries("node", tags=("supervised",)), profile)


def clustering_methods(profile: Profile) -> Dict[str, Callable[[], object]]:
    """The three deep-clustering specialists of Table 6."""
    return _factories(METHODS.entries("node", tags=("clustering",)), profile)


def graph_ssl_methods(profile: Profile) -> Dict[str, Callable[[], object]]:
    """Factories for every graph-level SSL method (Table 7)."""
    return _factories(method_entries("graph"), profile)


# MVGRL's dense diffusion exceeds memory on the large graph: Tables 4-6
# pre-mark those cells, as the paper does.
MVGRL_OOM = {"method": "MVGRL", "dataset": "reddit-like", "mark": "OOM"}


def node_task_datasets(profile: Profile) -> List[str]:
    """Dataset names for the node-level tables, respecting the profile.

    The fast profile covers the two hardest citation graphs; the full
    profile adds pubmed-like and reddit-like (all four of Table 2).
    """
    if profile.name == "fast":
        return ["cora-like", "citeseer-like"]
    names = ["cora-like", "citeseer-like", "pubmed-like"]
    if profile.include_reddit:
        names.append("reddit-like")
    return names


def citation_datasets(profile: Profile) -> List[str]:
    """The citation graphs of Tables 8 and 10 (pubmed-like unless ``fast``)."""
    names = ["cora-like", "citeseer-like", "pubmed-like"]
    return names[:2] if profile.name == "fast" else names


def graph_task_datasets(profile: Profile) -> List[str]:
    """Dataset names for the graph-classification table."""
    if profile.name == "fast":
        return ["imdb-b-like", "mutag-like", "reddit-b-like"]
    return [
        "imdb-b-like", "imdb-m-like", "collab-like",
        "mutag-like", "reddit-b-like", "nci1-like",
    ]
