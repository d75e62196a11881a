"""Integration tests: every table/figure runner executes end-to-end.

These use micro profiles (tiny dims, 1-2 epochs) — they validate plumbing,
shapes, and annotations, not accuracy (the benchmarks do that).  Every
deterministic result is compared whole with its entry in
``tests/golden_tables.json``; the 2-seed calls pin per-cell stds too.
"""

import dataclasses

import pytest

from repro.experiments import (
    Profile,
    run_extension_comparison,
    run_figure1,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table10,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
)
from tests.golden_tables import assert_golden

MICRO = Profile(
    name="micro",
    hidden_dim=16,
    epochs=2,
    gcmae_epochs=2,
    num_seeds=1,
    graph_epochs=2,
    include_reddit=False,
)
MICRO2 = dataclasses.replace(MICRO, num_seeds=2)


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestTableRunners:
    def test_table4(self):
        table = run_table4(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI", "GCMAE"],
            include_supervised=True,
        )
        assert_golden("table4", table)

    def test_table4_without_supervised(self):
        table = run_table4(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI"],
            include_supervised=False,
        )
        assert_golden("table4-no-supervised", table)

    def test_table5(self):
        table = run_table5(
            profile=MICRO2, datasets=["cora-like"], methods=["MaskGAE", "GCMAE"]
        )
        assert_golden("table5", table)

    def test_table6(self):
        table = run_table6(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI", "GCMAE"],
            include_clustering_specialists=False,
        )
        assert_golden("table6", table)

    def test_table6_with_specialists(self):
        table = run_table6(
            profile=MICRO2,
            datasets=["cora-like"],
            methods=["DGI"],
            include_clustering_specialists=True,
        )
        assert_golden("table6-specialists", table)

    def test_table7(self):
        table = run_table7(
            profile=MICRO, datasets=["mutag-like"], methods=["GraphCL", "GCMAE"]
        )
        assert_golden("table7", table)

    def test_table7_oom_on_later_seed_voids_cell(self, monkeypatch):
        """An OOM on any seed marks the whole cell OOM — earlier seeds'
        scores must not be reported as a partial mean."""
        from repro.registry import METHODS, MethodEntry, derive_config_class

        class FlakyMethod:
            calls = 0

            def fit_graphs(self, dataset, seed=0):
                type(self).calls += 1
                if seed > 0:
                    raise MemoryError("simulated OOM on the second seed")
                import numpy as np
                from repro.core.base import EmbeddingResult
                rng = np.random.default_rng(seed)
                return EmbeddingResult(
                    rng.normal(size=(len(dataset), 4)), 0.0, [1.0]
                )

            name = "Flaky"

        monkeypatch.setitem(
            METHODS._entries,
            ("Flaky", "graph"),
            MethodEntry(
                name="Flaky",
                protocol="graph",
                tags=("contrastive",),
                order=999.0,
                seq=999,
                cls=FlakyMethod,
                config_cls=derive_config_class(FlakyMethod),
                defaults=None,
                builder=lambda cfg: FlakyMethod(),
            ),
        )
        table = run_table7(
            profile=MICRO2, datasets=["mutag-like"], methods=["Flaky"]
        )
        assert FlakyMethod.calls == 2  # first seed scored, second OOMed
        assert table.get("Flaky", "mutag-like") is None
        assert table.missing[("Flaky", "mutag-like")] == "OOM"

    def test_table8(self):
        table = run_table8(profile=MICRO, datasets=["cora-like"])
        assert_golden("table8", table)

    def test_table9(self):
        table = run_table9(
            profile=MICRO, datasets=["cora-like"], methods=["CCA-SSG", "GCMAE"]
        )
        cell = table.get("GCMAE", "cora-like")
        assert cell is not None and cell.mean > 0

    def test_table10(self):
        table = run_table10(profile=MICRO2, datasets=["cora-like"])
        assert_golden("table10", table)

    def test_extension_comparison(self):
        table = run_extension_comparison(profile=MICRO, datasets=["cora-like"])
        assert_golden("extension_comparison", table)


class TestFigureRunners:
    def test_figure1_panels(self):
        panels = run_figure1(profile=MICRO, tsne_iterations=30)
        assert [p.method for p in panels] == ["GCMAE", "GraphMAE", "CCA-SSG"]
        for panel in panels:
            assert panel.coordinates.shape[1] == 2
            assert 0.0 <= panel.nmi <= 1.0

    def test_figure4_series(self):
        figure = run_figure4(profile=MICRO, num_targets=5, probe_every=1)
        assert set(figure.series) == {"GCMAE", "GraphMAE"}
        for points in figure.series.values():
            assert len(points) == MICRO.gcmae_epochs

    def test_figure5_grid(self):
        figure = run_figure5(
            profile=MICRO, mask_rates=(0.3, 0.6), drop_rates=(0.0, 0.2)
        )
        assert set(figure.series) == {"p_drop=0", "p_drop=0.2"}
        assert all(len(points) == 2 for points in figure.series.values())

    def test_figure6_sweeps(self):
        figure = run_figure6(profile=MICRO, widths=(8, 16), depths=(1, 2))
        assert_golden("figure6", figure)
