"""Tests for dataset profiles, raw features and statistics."""

import numpy as np
import pytest

from repro.data import stats as data_stats
from repro.data import (DATASET_NAMES, PAPER_STATISTICS, compute_statistics,
                        dataset_config, gps_like_features, load_dataset,
                        sequence_length_histogram, text_like_features)


class TestDatasetProfiles:
    def test_all_five_profiles_exist(self):
        assert set(DATASET_NAMES) == {"epinions", "foursquare", "patio",
                                      "baby", "video"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            dataset_config("netflix")

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            dataset_config("baby", scale=0.0)

    def test_scale_changes_size(self):
        small = dataset_config("video", scale=0.02)
        large = dataset_config("video", scale=0.2)
        assert large.num_users > small.num_users
        assert large.num_items > small.num_items

    def test_relative_sizes_track_paper(self):
        """At a real scale, the profile order matches Table II's order."""
        configs = {name: dataset_config(name, scale=0.3)
                   for name in DATASET_NAMES}
        assert configs["video"].num_users > configs["baby"].num_users
        assert configs["baby"].num_users > configs["patio"].num_users
        assert configs["video"].num_items > configs["baby"].num_items

    def test_foursquare_uses_gps(self):
        assert dataset_config("foursquare").feature_kind == "gps"
        assert dataset_config("baby").feature_kind == "text"

    def test_load_dataset_end_to_end(self):
        ds = load_dataset("patio", scale=0.02, seed=3)
        assert ds.name == "patio"
        assert ds.corpus.num_users >= 30
        assert ds.features.shape[0] == ds.num_items + 1


class TestFeatures:
    def test_text_coherence(self):
        rng = np.random.default_rng(0)
        clusters = np.array([-1] + [i % 4 for i in range(40)])
        clusters_safe = clusters * (clusters >= 0)
        feats = text_like_features(clusters_safe, 8, rng)
        unit = feats[1:] / np.linalg.norm(feats[1:], axis=1, keepdims=True)
        sims = unit @ unit.T
        same = clusters[1:, None] == clusters[None, 1:]
        off_diag = ~np.eye(len(sims), dtype=bool)
        within = sims[same & off_diag].mean()
        between = sims[~same].mean()
        assert within > between + 0.3

    def test_gps_shape(self):
        rng = np.random.default_rng(1)
        clusters = np.array([0, 0, 1, 1, 2])
        feats = gps_like_features(clusters, rng)
        assert feats.shape == (5, 2)
        np.testing.assert_allclose(feats[0], 0.0)

    def test_padding_row_zero(self):
        rng = np.random.default_rng(2)
        feats = text_like_features(np.array([0, 1, 2]), 4, rng)
        np.testing.assert_allclose(feats[0], 0.0)


class TestStatistics:
    def test_table2_row(self, tiny_dataset):
        stats = compute_statistics("tiny", tiny_dataset.corpus)
        row = stats.as_row()
        assert row[0] == "tiny"
        assert row[1] == tiny_dataset.corpus.num_users
        assert row[5].endswith("%")

    def test_histogram_total(self, tiny_dataset):
        hist = sequence_length_histogram(tiny_dataset.corpus)
        assert sum(hist.values()) == tiny_dataset.corpus.num_users

    def test_histogram_buckets_disjoint(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(data_stats, "LENGTH_BINS", (1, 3, 5, 10**9))
        hist = sequence_length_histogram(tiny_dataset.corpus)
        assert sum(hist.values()) == tiny_dataset.corpus.num_users
        assert set(hist) == {"1-2", "3-4", "5+"}

    def test_compare_to_paper(self):
        ds = load_dataset("baby", scale=0.05, seed=1)
        stats = compute_statistics("baby", ds.corpus)
        paper = PAPER_STATISTICS["baby"]
        assert 0.0 < stats.num_users / paper["users"] < 0.2
        assert 0.5 < stats.average_sequence_length / paper["seqlen"] < 3.0
