"""Reproducibility: identical seeds must give bit-identical results."""

import numpy as np
import pytest

from repro.core import Causer, CauserConfig
from repro.data import SimulatorConfig, generate_dataset, leave_one_out_split
from repro.models import GRU4Rec, NARM, TrainConfig


def small_dataset(seed=3):
    return generate_dataset(SimulatorConfig(num_users=60, num_items=30,
                                            num_clusters=4, seed=seed))


class TestDataDeterminism:
    def test_profiles_reproducible(self):
        from repro.data import load_dataset
        a = load_dataset("patio", scale=0.02, seed=9)
        b = load_dataset("patio", scale=0.02, seed=9)
        assert [s.baskets for s in a.corpus] == [s.baskets for s in b.corpus]

    def test_split_deterministic(self):
        dataset = small_dataset()
        a = leave_one_out_split(dataset.corpus)
        b = leave_one_out_split(dataset.corpus)
        assert list(a.test) == list(b.test)


class TestModelDeterminism:
    @pytest.mark.parametrize("model_cls", [GRU4Rec, NARM])
    def test_baseline_training_deterministic(self, model_cls):
        dataset = small_dataset()
        split = leave_one_out_split(dataset.corpus)
        cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                          batch_size=32, seed=11)
        runs = []
        for _ in range(2):
            model = model_cls(dataset.corpus.num_users, dataset.num_items,
                              cfg)
            model.fit(split.train)
            runs.append(model.score_samples(split.test[:5]))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_causer_training_deterministic(self):
        dataset = small_dataset()
        split = leave_one_out_split(dataset.corpus)
        cfg = CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                           batch_size=32, num_clusters=4, epsilon=0.2,
                           eta=0.5, seed=11)
        runs = []
        for _ in range(2):
            model = Causer(dataset.corpus.num_users, dataset.num_items,
                           dataset.features, cfg)
            model.fit(split.train)
            runs.append(model.score_samples(split.test[:5]))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_different_seeds_differ(self):
        dataset = small_dataset()
        split = leave_one_out_split(dataset.corpus)
        scores = []
        for seed in (1, 2):
            cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                              batch_size=32, seed=seed)
            model = GRU4Rec(dataset.corpus.num_users, dataset.num_items, cfg)
            model.fit(split.train)
            scores.append(model.score_samples(split.test[:5]))
        assert not np.array_equal(scores[0], scores[1])


class TestEvaluatorDeterminism:
    """The batched evaluator must stay bit-reproducible.

    ``Recommender.recommend`` now ranks candidates with vectorized
    argpartition + stable argsort, and ``evaluate_rankings`` derives all six
    metrics from one membership pass; neither may introduce run-to-run
    (or tie-breaking) nondeterminism.
    """

    def _fitted_model(self, dataset, split):
        cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=1,
                          batch_size=32, seed=7)
        model = GRU4Rec(dataset.corpus.num_users, dataset.num_items, cfg)
        model.fit(split.train)
        return model

    def test_recommend_deterministic(self):
        dataset = small_dataset()
        split = leave_one_out_split(dataset.corpus)
        model = self._fitted_model(dataset, split)
        a = model.recommend(split.test[:10], z=5)
        b = model.recommend(split.test[:10], z=5)
        assert a == b

    def test_evaluate_model_deterministic(self):
        from repro.eval import evaluate_model
        dataset = small_dataset()
        split = leave_one_out_split(dataset.corpus)
        model = self._fitted_model(dataset, split)
        a = evaluate_model(model, split.test[:10], z=5)
        b = evaluate_model(model, split.test[:10], z=5)
        assert a.per_user == b.per_user

    def test_tie_scores_ranked_stably(self):
        """All-equal scores are the worst case for tie-breaking stability."""
        from repro.eval import evaluate_rankings
        from repro.models.base import Recommender

        class Constant(Recommender):
            def __init__(self, num_items):
                self.num_items = num_items

            def score_samples(self, samples):
                return np.zeros((len(samples), self.num_items + 1))

        dataset = small_dataset()
        split = leave_one_out_split(dataset.corpus)
        model = Constant(dataset.num_items)
        first = model.recommend(split.test[:4], z=5)
        assert first == model.recommend(split.test[:4], z=5)
        result = evaluate_rankings(first, split.test[:4], z=5)
        repeat = evaluate_rankings(first, split.test[:4], z=5)
        assert result.per_user == repeat.per_user

