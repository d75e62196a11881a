"""Tests for the experiment harness: results, profiles, cache, runners."""

import gc
import warnings

import numpy as np
import pytest

from repro.experiments import (
    Cell,
    ExperimentTable,
    FAST,
    FULL,
    Profile,
    SeriesResult,
    cached_fit,
    clear_cache,
    current_profile,
    gcmae_config,
    graph_ssl_methods,
    node_ssl_methods,
    run_table1,
)
from repro.core.base import EmbeddingResult


MICRO = Profile(
    name="micro",
    hidden_dim=16,
    epochs=2,
    gcmae_epochs=2,
    num_seeds=1,
    graph_epochs=2,
    include_reddit=False,
)


class TestCell:
    def test_from_values(self):
        cell = Cell.from_values([1.0, 2.0, 3.0])
        assert cell.mean == pytest.approx(2.0)
        assert cell.std == pytest.approx(np.std([1, 2, 3]))

    def test_empty(self):
        with pytest.raises(ValueError):
            Cell.from_values([])

    def test_str_format(self):
        assert str(Cell(88.82, 0.11)) == "88.82±0.11"


class TestExperimentTable:
    def _table(self):
        table = ExperimentTable("t", rows=["A", "B"], columns=["x", "y"])
        table.set("A", "x", [1.0])
        table.set("B", "x", [2.0])
        table.set("A", "y", [5.0])
        table.mark("B", "y", "OOM")
        return table

    def test_best_row(self):
        assert self._table().best_row("x") == "B"

    def test_best_row_with_exclusion(self):
        assert self._table().best_row("x", exclude=["B"]) == "A"

    def test_best_row_empty_column(self):
        table = ExperimentTable("t", rows=["A"], columns=["x"])
        assert table.best_row("x") is None

    def test_to_text_contains_markers(self):
        text = self._table().to_text()
        assert "OOM" in text
        assert "1.00±0.00" in text

    def test_get_missing(self):
        assert self._table().get("B", "y") is None


class TestSeriesResult:
    def test_add_and_render(self):
        figure = SeriesResult("f", "x", "y")
        figure.add_point("s", 1.0, 2.0)
        figure.add_point("s", 0.5, 1.0)
        text = figure.to_text()
        assert "0.5: 1.000" in text and "1: 2.000" in text


class TestProfiles:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert current_profile() is FAST

    def test_env_selects_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert current_profile() is FULL

    def test_unknown_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "turbo")
        with pytest.raises(ValueError):
            current_profile()

    def test_fast_lighter_than_full(self):
        assert FAST.hidden_dim < FULL.hidden_dim
        assert FAST.num_seeds < FULL.num_seeds


class TestRegistry:
    def test_node_methods_complete(self):
        methods = node_ssl_methods(MICRO)
        for name in ("DGI", "MVGRL", "GRACE", "CCA-SSG", "GraphMAE",
                     "SeeGera", "S2GAE", "MaskGAE", "GCMAE"):
            assert name in methods

    def test_graph_methods_complete(self):
        methods = graph_ssl_methods(MICRO)
        for name in ("Infograph", "GraphCL", "JOAO", "MVGRL", "InfoGCL",
                     "GraphMAE", "S2GAE", "GCMAE"):
            assert name in methods

    def test_factories_build_fresh_instances(self):
        factory = node_ssl_methods(MICRO)["DGI"]
        assert factory() is not factory()

    def test_gcmae_config_overrides(self):
        config = gcmae_config(MICRO, mask_rate=0.3)
        # GCMAE keeps its tuned width; the profile controls epochs.
        assert config.epochs == MICRO.gcmae_epochs
        assert config.mask_rate == 0.3


class TestCache:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        calls = []

        def fit():
            calls.append(1)
            return EmbeddingResult(np.ones((3, 2)), 1.5, [0.5, 0.4])

        first = cached_fit("key1", fit)
        second = cached_fit("key1", fit)
        assert len(calls) == 1
        np.testing.assert_allclose(second.embeddings, first.embeddings)
        assert second.train_seconds == pytest.approx(1.5)
        assert second.loss_history == [0.5, 0.4]

    def test_distinct_keys_do_not_collide(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cached_fit("a", lambda: EmbeddingResult(np.ones((2, 2)), 1.0))
        other = cached_fit("b", lambda: EmbeddingResult(np.zeros((2, 2)), 1.0))
        np.testing.assert_allclose(other.embeddings, 0.0)

    def test_disabled_cache_always_refits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []

        def fit():
            calls.append(1)
            return EmbeddingResult(np.ones((2, 2)), 1.0)

        cached_fit("k", fit)
        cached_fit("k", fit)
        assert len(calls) == 2

    def test_clear_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cached_fit("x", lambda: EmbeddingResult(np.ones((2, 2)), 1.0))
        assert clear_cache() == 1
        assert clear_cache() == 0

    def test_truncated_entry_misses_and_closes_its_file(self, tmp_path, monkeypatch):
        from repro.experiments.cache import _load_entry

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        cached_fit("t", lambda: EmbeddingResult(np.ones((40, 8)), 1.0, [0.5]))
        (path,) = tmp_path.glob("*.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _load_entry(path) is None
            gc.collect()
        assert not path.exists()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


class TestTable1Summary:
    def _fake_table(self, columns, rows_values):
        table = ExperimentTable("fake", rows=list(rows_values), columns=columns)
        for row, value in rows_values.items():
            for column in columns:
                table.set(row, column, [value])
        return table

    def test_improvements_computed(self):
        node = self._fake_table(
            ["d1"], {"GCMAE": 90.0, "GRACE": 80.0, "GraphMAE": 85.0,
                     "GCN": 75.0, "GAT": 74.0},
        )
        link = self._fake_table(
            ["d1:AUC"], {"GCMAE": 99.0, "GRACE": 95.0, "MaskGAE": 97.0},
        )
        cluster = self._fake_table(
            ["d1:NMI"], {"GCMAE": 60.0, "DGI": 50.0, "MaskGAE": 58.0, "GCC": 55.0},
        )
        graph = self._fake_table(
            ["g1"], {"GCMAE": 80.0, "GraphCL": 75.0, "GraphMAE": 78.0},
        )
        summary = run_table1(node, link, cluster, graph)
        cls_vs_contrastive = summary.get("Node classification", "vs. Contrastive")
        assert cls_vs_contrastive.mean == pytest.approx((90 - 80) / 80 * 100)
        assert summary.get("Link prediction", "Others") is None  # marked "-"
        assert summary.missing[("Link prediction", "Others")] == "-"
