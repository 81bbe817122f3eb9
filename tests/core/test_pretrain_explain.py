"""Tests for graph pre-training and the explanation machinery."""

import numpy as np
import pytest

from repro.core import Causer, CauserConfig, explanation_breakdown, make_explainer
from repro.core import pretrain
from repro.core.pretrain import (estimate_cluster_transitions,
                                 pretrain_cluster_graph, transition_lift)
from repro.data import EvalSample, ExplanationSample, build_explanation_dataset


def make_samples():
    """Planted transitions: cluster 0 -> cluster 1 and cluster 2 -> cluster 0.

    Items 1-2 belong to cluster 0, items 3-4 to cluster 1, items 5-6 to
    cluster 2.  The mixture provides the base-rate contrast ratio lift needs.
    """
    samples = []
    for _ in range(20):
        samples.append(EvalSample(user_id=0, history=((1,), (2,)),
                                  target=(3,)))
        samples.append(EvalSample(user_id=1, history=((5,),), target=(1,)))
    return samples


HARD = np.array([0, 0, 0, 1, 1, 2, 2])


class TestTransitionEstimation:
    def test_counts_direction(self):
        counts = estimate_cluster_transitions(make_samples(), HARD, 3)
        assert counts[0, 1] > counts[1, 0]
        assert counts[0, 1] > counts[0, 0]

    def test_decay_weighting(self, monkeypatch):
        monkeypatch.setattr(pretrain, "DECAY", 0.5)
        sample = [EvalSample(user_id=0, history=((1,), (2,)), target=(3,))]
        counts = estimate_cluster_transitions(sample, np.array([0, 0, 1, 2]),
                                              3)
        # item 2 (gap 1) weighted 1.0, item 1 (gap 2) weighted 0.5
        assert counts[1, 2] == pytest.approx(1.0)
        assert counts[0, 2] == pytest.approx(0.5)

    def test_lift_prefers_planted_edge(self):
        counts = estimate_cluster_transitions(make_samples(), HARD, 3)
        lift = transition_lift(counts)
        assert lift[0, 1] > lift[1, 0]

    def test_seed_dense_and_bounded(self):
        seed = pretrain_cluster_graph(make_samples(), HARD, 3)
        off_diag = seed[~np.eye(3, dtype=bool)]
        assert (off_diag >= 0.35 - 1e-9).all()
        assert (off_diag <= 0.7 + 1e-9).all()
        np.testing.assert_allclose(np.diag(seed), 0.0)

    def test_seed_orders_by_lift(self):
        seed = pretrain_cluster_graph(make_samples(), HARD, 3)
        assert seed[0, 1] > seed[1, 0]


@pytest.fixture(scope="module")
def trained_with_explanations(tiny_dataset, tiny_split):
    config = CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=3,
                          batch_size=64, max_history=8, num_clusters=4,
                          epsilon=0.2, eta=0.5, seed=0)
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    model.fit(tiny_split.train)
    samples = build_explanation_dataset(tiny_dataset, max_samples=30)
    return model, samples


class TestExplanations:
    def test_breakdown_alignment(self, trained_with_explanations):
        model, samples = trained_with_explanations
        sample = samples[0]
        breakdown = explanation_breakdown(model, sample)
        steps = len(sample.history)
        assert len(breakdown.history_items) == steps
        assert breakdown.causal_effect.shape == (steps,)
        assert breakdown.attention.shape == (steps,)
        np.testing.assert_allclose(
            breakdown.combined,
            breakdown.causal_effect * breakdown.attention)

    def test_breakdown_requires_singletons(self, trained_with_explanations):
        model, _ = trained_with_explanations
        bad = ExplanationSample(user_id=0, history=((1, 2),), target_item=3,
                                cause_items=(1,))
        with pytest.raises(ValueError):
            explanation_breakdown(model, bad)

    @pytest.mark.parametrize("mode", ["full", "causal", "attention"])
    def test_explainer_modes(self, trained_with_explanations, mode):
        model, samples = trained_with_explanations
        explainer = make_explainer(model, mode)
        scores = explainer(samples[0])
        assert scores.shape == (len(samples[0].history_items),)
        assert np.isfinite(scores).all()

    def test_unknown_mode(self, trained_with_explanations):
        model, _ = trained_with_explanations
        with pytest.raises(ValueError):
            make_explainer(model, "gradcam")

    def test_causal_mode_ignores_attention(self, trained_with_explanations):
        model, samples = trained_with_explanations
        sample = samples[0]
        breakdown = explanation_breakdown(model, sample)
        causal_scores = make_explainer(model, "causal")(sample)
        np.testing.assert_allclose(causal_scores, breakdown.causal_effect)

    def test_case_study_format(self, trained_with_explanations):
        from repro.core import format_case_study
        model, samples = trained_with_explanations
        text = format_case_study(model, samples[0])
        assert "target:" in text
        assert "true causes:" in text
        assert "W_hat" in text
