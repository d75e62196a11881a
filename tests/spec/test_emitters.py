"""The paper-runner specs at the real profiles, expanded without training.

The golden tables run a micro profile with explicit datasets and methods,
so they never reach the defaults that depend on the profile.  Here each
spec emitter is expanded with :func:`repro.spec.expand_spec` at ``FAST``
and ``FULL``, and its rows, columns, marks and per-variant configs are held
to what the hand-rolled runners built.
"""

import pytest

from repro.experiments import (
    FAST,
    FULL,
    extension_comparison_spec,
    figure6_spec,
    gcmae_config,
    table5_spec,
    table6_spec,
    table10_spec,
)
from repro.experiments.registry import node_ssl_methods, node_task_datasets
from repro.registry import METHODS
from repro.spec import CellContext, expand_spec

PROFILES = pytest.mark.parametrize("profile", [FAST, FULL], ids=lambda p: p.name)


def rows(plan):
    return [variant.label for variant in plan.variants]


def assert_registry_defaults(plan, profile):
    """Every variant trains at its method's profile-default config."""
    for variant in plan.variants:
        assert variant.config == METHODS.get(variant.method, "node").config(profile)


def reddit_oom(profile, metrics):
    """MVGRL x reddit-like is pre-marked OOM; only ``FULL`` has reddit-like."""
    if profile is not FULL:
        return set()
    return {("MVGRL", f"reddit-like:{metric}", "OOM") for metric in metrics}


@PROFILES
def test_table5_defaults(profile):
    plan = expand_spec(table5_spec(profile), profile)
    assert plan.spec.name == "table5"
    assert rows(plan) == list(node_ssl_methods(profile))
    assert list(plan.columns) == [
        f"{dataset}:{metric}"
        for dataset in node_task_datasets(profile)
        for metric in ("AUC", "AP")
    ]
    assert set(plan.marks) == reddit_oom(profile, ("AUC", "AP"))
    assert_registry_defaults(plan, profile)


@PROFILES
def test_table6_defaults(profile):
    plan = expand_spec(table6_spec(profile), profile)
    assert plan.spec.name == "table6"
    assert "SeeGera" not in rows(plan)
    ssl_rows = [m for m in node_ssl_methods(profile) if m != "SeeGera"]
    assert rows(plan) == ssl_rows + ["GC-VGE", "SCGC", "GCC"]
    assert list(plan.columns) == [
        f"{dataset}:{metric}"
        for dataset in node_task_datasets(profile)
        for metric in ("NMI", "ARI")
    ]
    assert set(plan.marks) == reddit_oom(profile, ("NMI", "ARI"))
    assert_registry_defaults(plan, profile)


@PROFILES
def test_table10_defaults(profile):
    plan = expand_spec(table10_spec(profile), profile)
    assert plan.spec.name == "table10"
    assert rows(plan) == ["GCMAE", "w/o Con.", "w/o Stru. Rec.", "w/o Disc.", "GraphMAE"]
    expected = ["cora-like", "citeseer-like"]
    if profile is not FAST:
        expected.append("pubmed-like")
    assert list(plan.columns) == expected
    assert plan.marks == ()

    configs = {variant.label: variant.config for variant in plan.variants}
    full = gcmae_config(profile)
    assert configs["GCMAE"] == full
    assert configs["w/o Con."] == full.ablated("contrastive")
    assert configs["w/o Stru. Rec."] == full.ablated("structure")
    assert configs["w/o Disc."] == full.ablated("discrimination")
    graphmae = configs["GraphMAE"]
    assert (graphmae.epochs, graphmae.hidden_dim) == (profile.epochs, profile.hidden_dim)
    assert graphmae == METHODS.get("GraphMAE", "node").config(
        profile, {"epochs": profile.epochs, "hidden_dim": profile.hidden_dim}
    )


def test_table10_rejects_unknown_rows():
    with pytest.raises(ValueError, match="unknown ablation rows"):
        table10_spec(FAST, rows=["GCMAE", "w/o Everything"])


@PROFILES
def test_extension_comparison_defaults(profile):
    plan = expand_spec(extension_comparison_spec(), profile)
    assert plan.spec.name == "extension_comparison"
    assert rows(plan) == ["BGRL", "GCA", "GraphMAE2", "GCMAE"]
    assert list(plan.columns) == ["cora-like"]
    assert plan.marks == ()
    assert_registry_defaults(plan, profile)


@PROFILES
def test_figure6_defaults(profile):
    plan = expand_spec(figure6_spec(), profile)
    assert plan.spec.name == "figure6"
    widths, depths = (32, 64, 128, 256), (1, 2, 4, 8)
    assert rows(plan) == [f"width={w}" for w in widths] + [f"depth={d}" for d in depths]
    expected = [gcmae_config(profile, hidden_dim=w, embed_dim=w) for w in widths]
    expected += [gcmae_config(profile, num_layers=d) for d in depths]
    assert [variant.config for variant in plan.variants] == expected
    # One cell per point: a single dataset and seed, widths before depths.
    assert list(plan.cells) == [(vi, "cora-like", 0) for vi in range(len(expected))]


@PROFILES
def test_profile_default_gcmae_rows_share_table4_pretraining(profile):
    """Table 10's and the extension study's GCMAE rows hit Table 4's cache key."""
    table4_key = f"GCMAE-cora-like-0-{profile.name}"
    for spec in (table10_spec(profile), extension_comparison_spec()):
        plan = expand_spec(spec, profile)
        gcmae = next(v for v in plan.variants if v.label == "GCMAE")
        ctx = CellContext(spec_name=spec.name, profile=profile, prefix="")
        assert ctx.key(gcmae, "cora-like", 0) == table4_key
