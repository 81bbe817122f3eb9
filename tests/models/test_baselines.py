"""Tests for the Table IV baseline models on the shared interface."""

import numpy as np
import pytest

from repro.eval import evaluate_model
from repro.exp import BASELINE_NAMES
from repro.models import (BPR, GRU4Rec, MMSARec, NARM, NCF,
                          PopularityRecommender, SASRec, STAMP, TrainConfig,
                          VTRNN)

QUICK = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                    batch_size=64, max_history=8, seed=0)


def build(name, dataset):
    num_users = dataset.corpus.num_users
    num_items = dataset.num_items
    builders = {
        "Pop": lambda: PopularityRecommender(num_items),
        "BPR": lambda: BPR(num_users, num_items, QUICK),
        "NCF": lambda: NCF(num_users, num_items, QUICK),
        "GRU4Rec": lambda: GRU4Rec(num_users, num_items, QUICK),
        "NARM": lambda: NARM(num_users, num_items, QUICK),
        "STAMP": lambda: STAMP(num_users, num_items, QUICK),
        "SASRec": lambda: SASRec(num_users, num_items, QUICK),
        "VTRNN": lambda: VTRNN(num_users, num_items, dataset.features, QUICK),
        "MMSARec": lambda: MMSARec(num_users, num_items, dataset.features,
                                   QUICK),
    }
    return builders[name]()


#: The experiment runner's baseline lineup.
ALL = list(BASELINE_NAMES)


@pytest.fixture(scope="module")
def fitted_models(tiny_dataset, tiny_split):
    models = {}
    for name in ALL:
        model = build(name, tiny_dataset)
        models[name] = (model, model.fit(tiny_split.train))
    return models


class TestSharedInterface:
    @pytest.mark.parametrize("name", ALL)
    def test_fit_records_losses(self, fitted_models, name):
        _, fit = fitted_models[name]
        assert len(fit.epoch_losses) >= 1
        assert np.isfinite(fit.final_loss)

    @pytest.mark.parametrize("name", ALL)
    def test_score_shape(self, fitted_models, tiny_dataset, tiny_split, name):
        model, _ = fitted_models[name]
        scores = model.score_samples(tiny_split.test[:4])
        assert scores.shape == (4, tiny_dataset.num_items + 1)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("name", ALL)
    def test_recommend_valid_items(self, fitted_models, tiny_split, name):
        model, _ = fitted_models[name]
        rankings = model.recommend(tiny_split.test[:4], z=5)
        for ranking in rankings:
            assert len(ranking) == 5
            assert len(set(ranking)) == 5
            assert 0 not in ranking  # padding never recommended

    @pytest.mark.parametrize("name", ALL)
    def test_recommend_respects_scores(self, fitted_models, tiny_split, name):
        model, _ = fitted_models[name]
        scores = model.score_samples(tiny_split.test[:2])
        rankings = model.recommend(tiny_split.test[:2], z=3)
        for row, ranking in enumerate(rankings):
            row_scores = scores[row].copy()
            row_scores[0] = -np.inf
            best = int(np.argmax(row_scores))
            assert ranking[0] == best


class TestTrainingImproves:
    @pytest.mark.parametrize("name", ["GRU4Rec", "NARM", "STAMP", "NCF"])
    def test_loss_decreases(self, tiny_dataset, tiny_split, name):
        cfg = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=4,
                          batch_size=64, seed=0)
        if name == "NCF":
            model = NCF(tiny_dataset.corpus.num_users,
                        tiny_dataset.num_items, cfg)
        else:
            cls = {"GRU4Rec": GRU4Rec, "NARM": NARM, "STAMP": STAMP}[name]
            model = cls(tiny_dataset.corpus.num_users,
                        tiny_dataset.num_items, cfg)
        fit = model.fit(tiny_split.train)
        assert fit.epoch_losses[-1] < fit.epoch_losses[0]

    def test_sequential_beats_random_ranking(self, tiny_dataset, tiny_split):
        cfg = TrainConfig(embedding_dim=16, hidden_dim=16, num_epochs=6,
                          batch_size=64, seed=0)
        model = GRU4Rec(tiny_dataset.corpus.num_users,
                        tiny_dataset.num_items, cfg)
        model.fit(tiny_split.train)
        result = evaluate_model(model, tiny_split.test, z=5)
        random_hit = 5 / tiny_dataset.num_items
        assert result.mean("hit") > 2 * random_hit


class TestModelSpecifics:
    def test_pop_scores_are_counts(self, tiny_dataset, tiny_split):
        model = PopularityRecommender(tiny_dataset.num_items)
        model.fit(tiny_split.train)
        scores = model.score_samples(tiny_split.test[:2])
        np.testing.assert_allclose(scores[0], scores[1])
        counts = tiny_split.train.item_popularity()
        np.testing.assert_allclose(scores[0], counts)

    def test_bpr_personalizes(self, fitted_models, tiny_split):
        model, _ = fitted_models["BPR"]
        scores = model.score_samples(tiny_split.test[:2])
        assert not np.allclose(scores[0], scores[1])

    def test_vtrnn_feature_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            VTRNN(10, tiny_dataset.num_items,
                  tiny_dataset.features[:-2], QUICK)

    def test_mmsarec_feature_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            MMSARec(10, tiny_dataset.num_items,
                    tiny_dataset.features[:-2], QUICK)

    def test_bpr_empty_corpus_rejected(self, tiny_dataset):
        from repro.data import SequenceCorpus
        model = BPR(5, tiny_dataset.num_items, QUICK)
        with pytest.raises(ValueError):
            model.fit(SequenceCorpus(num_items=tiny_dataset.num_items))
