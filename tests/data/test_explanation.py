"""Tests for the derived explanation-label dataset."""

import numpy as np
import pytest

from repro.data import average_causes_per_sample, build_explanation_dataset


@pytest.fixture(scope="module")
def labeled(tiny_dataset):
    return build_explanation_dataset(tiny_dataset, max_samples=100)


class TestBuildExplanationDataset:
    def test_nonempty(self, labeled):
        assert len(labeled) > 0

    def test_causes_capped_at_three(self, labeled):
        assert all(1 <= len(s.cause_items) <= 3 for s in labeled)

    def test_causes_come_from_history(self, labeled):
        for s in labeled:
            history = set(s.history_items)
            assert set(s.cause_items) <= history

    def test_singleton_filter(self, labeled):
        for s in labeled:
            assert all(len(b) == 1 for b in s.history)

    def test_causes_are_true_causes(self, labeled, tiny_dataset):
        graph = tiny_dataset.cluster_graph
        clusters = tiny_dataset.cluster_of_item
        for s in labeled:
            target_cluster = clusters[s.target_item]
            for cause in s.cause_items:
                assert graph[clusters[cause], target_cluster] == 1

    def test_max_samples_respected(self, tiny_dataset):
        limited = build_explanation_dataset(tiny_dataset, max_samples=3)
        assert len(limited) <= 3

    def test_average_causes(self, labeled):
        avg = average_causes_per_sample(labeled)
        assert 1.0 <= avg <= 3.0

    def test_average_causes_empty(self):
        assert average_causes_per_sample([]) == 0.0

