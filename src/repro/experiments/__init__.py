"""Experiment runners reproducing every table and figure of the paper."""

from .ablation import ABLATION_ROWS, run_table10, table10_spec
from .cache import cached_fit, clear_cache
from .efficiency import (
    TIMED_METHODS,
    profile_gcmae_components,
    run_table9,
    run_table9_breakdown,
)
from .encoder_variants import VARIANT_ROWS, run_table8
from .extension_methods import extension_comparison_spec, run_extension_comparison
from .extensions import DESIGN_VARIANTS, design_ablation_spec, run_design_ablation
from .figures import (
    Figure1Panel,
    figure6_spec,
    run_figure1,
    run_figure4,
    run_figure5,
    run_figure6,
)
from .graph_classification import run_table7, table7_spec
from .link_prediction import run_table5, table5_spec
from .node_classification import fit_node_method, run_table4, table4_spec
from .node_clustering import run_table6, table6_spec
from .profiles import FAST, FULL, PROFILES, Profile, current_profile
from .registry import (
    clustering_methods,
    gcmae_config,
    graph_ssl_methods,
    graph_task_datasets,
    node_ssl_methods,
    node_task_datasets,
    supervised_methods,
)
from .report import generate_report
from .results import Cell, ExperimentTable, SeriesResult
from .summary import run_table1

__all__ = [
    "ABLATION_ROWS",
    "Cell",
    "ExperimentTable",
    "FAST",
    "FULL",
    "Figure1Panel",
    "PROFILES",
    "Profile",
    "SeriesResult",
    "TIMED_METHODS",
    "VARIANT_ROWS",
    "DESIGN_VARIANTS",
    "cached_fit",
    "clear_cache",
    "extension_comparison_spec",
    "run_design_ablation",
    "run_extension_comparison",
    "clustering_methods",
    "current_profile",
    "figure6_spec",
    "fit_node_method",
    "generate_report",
    "gcmae_config",
    "graph_ssl_methods",
    "graph_task_datasets",
    "node_ssl_methods",
    "node_task_datasets",
    "run_figure1",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_table1",
    "run_table10",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "profile_gcmae_components",
    "run_table9",
    "run_table9_breakdown",
    "supervised_methods",
    "design_ablation_spec",
    "table10_spec",
    "table4_spec",
    "table5_spec",
    "table6_spec",
    "table7_spec",
]
