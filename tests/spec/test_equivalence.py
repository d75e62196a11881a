"""The spec-driven table runners reproduce the pre-spec runners bit-for-bit.

``run_table4``/``run_table7``/``run_design_ablation`` emit a spec and
execute it through :func:`repro.spec.run_spec`.  Their 2-seed outputs are
pinned in ``tests/golden_tables.json``, recorded by running the in-line
runners these wrappers replaced: same cell order, same determinism label,
same per-cell derived seeds — so every cell (mean and std), every mark,
and every note must match exactly.
"""

import pytest

from repro.experiments.extensions import run_design_ablation
from repro.experiments.graph_classification import run_table7
from repro.experiments.node_classification import run_table4
from repro.experiments.profiles import Profile
from tests.golden_tables import assert_golden

# Two seeds so per-cell stds (seed derivation) are exercised, not just means.
MICRO2 = Profile(
    name="micro",
    hidden_dim=16,
    epochs=2,
    gcmae_epochs=2,
    num_seeds=2,
    graph_epochs=2,
    include_reddit=False,
)


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def test_table4_matches_legacy():
    table = run_table4(
        profile=MICRO2,
        datasets=["cora-like"],
        methods=["DGI", "GCMAE"],
        include_supervised=True,
    )
    assert_golden("table4-2seed", table)


def test_table7_matches_legacy():
    table = run_table7(
        profile=MICRO2, datasets=["mutag-like"], methods=["GraphCL", "GCMAE"]
    )
    assert_golden("table7-2seed", table)


def test_design_ablation_matches_legacy():
    variants = {
        "GCMAE (full)": {},
        "no contrast": {"use_contrastive": False},
        "L_E: bce only": {"structure_terms": ("bce",)},
    }
    table = run_design_ablation(
        profile=MICRO2, datasets=["cora-like"], variants=variants
    )
    assert_golden("design_ablation-2seed", table)
