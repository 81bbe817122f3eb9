"""Tests for the experiment harness: configs, runner, tables, grid."""

import numpy as np
import pytest

from repro.exp import (CAUSER_TUNED, BenchmarkSettings, GridSearchResult,
                       build_model, grid_search_causer, quick_settings,
                       render_metric_matrix, render_series, render_table,
                       run_models)
from repro.data import load_dataset
from repro.lineup import LINEUP


class TestSettings:
    def test_train_config_budget(self):
        settings = BenchmarkSettings(num_epochs=7)
        assert settings.train_config().num_epochs == 7

    def test_quick_cuts_epochs(self):
        settings = BenchmarkSettings(num_epochs=20, quick=True)
        assert settings.train_config().num_epochs == 2
        assert settings.causer_config("baby").num_epochs == 2

    def test_causer_config_uses_tuned_values(self):
        settings = BenchmarkSettings()
        for dataset, tuned in CAUSER_TUNED.items():
            config = settings.causer_config(dataset)
            assert config.num_clusters == tuned["num_clusters"]
            assert config.epsilon == tuned["epsilon"]

    def test_causer_config_overrides(self):
        settings = BenchmarkSettings()
        config = settings.causer_config("baby", epsilon=0.77)
        assert config.epsilon == 0.77

    def test_unknown_dataset_falls_back(self):
        settings = BenchmarkSettings()
        config = settings.causer_config("mystery")
        assert config.num_clusters == CAUSER_TUNED["baby"]["num_clusters"]


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(("a", "long_header"), [(1, 2.5), (30, 4.0)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_render_table_title(self):
        text = render_table(("x",), [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_render_metric_matrix(self):
        text = render_metric_matrix(
            ["m1", "m2"], ["d1"], {"m1": {"d1": 1.234}, "m2": {}},
            stars={"m1": {"d1": "*"}})
        assert "1.23*" in text
        assert "-" in text  # missing cell

    def test_render_series(self):
        text = render_series("K", [2, 4], {"baby": [1.0, 2.0]})
        assert "K" in text and "baby" in text


class TestRunner:
    def test_unknown_model(self):
        settings = quick_settings()
        dataset = load_dataset("baby", scale=0.02, seed=1)
        with pytest.raises(KeyError):
            build_model("DeepFM", dataset, settings)

    @pytest.mark.parametrize("name", ["Pop", "GRU4Rec", "Causer (GRU)"])
    def test_run_model_end_to_end(self, name):
        settings = quick_settings()
        dataset = load_dataset("baby", scale=0.02, seed=1)
        (run,) = run_models((name,), dataset, settings)
        assert run.model_name == name
        assert 0.0 <= run.f1 <= 100.0
        assert 0.0 <= run.ndcg <= 100.0
        assert run.fit_seconds > 0

    def test_all_model_names_buildable(self):
        settings = quick_settings()
        dataset = load_dataset("baby", scale=0.02, seed=1)
        for name in LINEUP:
            model = build_model(name, dataset, settings)
            assert model is not None


class TestGridSearch:
    def test_grid_search_scores_all_combos(self):
        settings = quick_settings()
        dataset = load_dataset("baby", scale=0.02, seed=1)
        result = grid_search_causer(dataset,
                                    {"epsilon": [0.1, 0.3],
                                     "num_clusters": [4]},
                                    settings=settings)
        assert len(result.scores) == 2
        best_config, best_score = result.best
        assert best_config["epsilon"] in (0.1, 0.3)
        assert best_score >= result.top(2)[-1][1]
