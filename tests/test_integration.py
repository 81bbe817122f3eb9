"""End-to-end integration tests crossing all subsystem boundaries."""

import numpy as np
import pytest

from repro.causal import evaluate_structure, is_dag
from repro.core import Causer, CauserConfig, make_explainer
from repro.data import (SimulatorConfig, build_explanation_dataset,
                        generate_dataset, leave_one_out_split)
from repro.eval import evaluate_explanations, evaluate_model, paired_t_test
from repro.models import GRU4Rec, TrainConfig


@pytest.fixture(scope="module")
def pipeline():
    """Generate → split → train Causer + baseline → evaluate, once."""
    config = SimulatorConfig(num_users=200, num_items=60, num_clusters=4,
                             edge_prob=0.5, mean_sequence_length=6.0,
                             causal_follow_prob=0.8, noise_prob=0.1, seed=5)
    dataset = generate_dataset(config, name="integration")
    split = leave_one_out_split(dataset.corpus)
    causer = Causer(dataset.corpus.num_users, dataset.num_items,
                    dataset.features,
                    CauserConfig(embedding_dim=16, hidden_dim=16,
                                 num_epochs=6, batch_size=128,
                                 num_clusters=4, epsilon=0.2, eta=0.5,
                                 lambda_l1=0.001, seed=0))
    causer_fit = causer.fit(split.train)
    baseline = GRU4Rec(dataset.corpus.num_users, dataset.num_items,
                       TrainConfig(embedding_dim=16, hidden_dim=16,
                                   num_epochs=6, batch_size=128, seed=0))
    baseline.fit(split.train)
    return dataset, split, causer, causer_fit, baseline


class TestEndToEnd:
    def test_causer_learns(self, pipeline):
        dataset, split, causer, fit, _ = pipeline
        assert fit.epoch_losses[-1] < fit.epoch_losses[0]
        result = evaluate_model(causer, split.test, z=5)
        random_hit = 5 / dataset.num_items
        assert result.mean("hit") > 2 * random_hit

    def test_causer_competitive_with_baseline(self, pipeline):
        _, split, causer, _, baseline = pipeline
        causer_result = evaluate_model(causer, split.test, z=5)
        baseline_result = evaluate_model(baseline, split.test, z=5)
        # Shape claim at tiny scale: Causer is at least competitive.
        assert causer_result.mean("ndcg") > 0.6 * baseline_result.mean("ndcg")

    def test_significance_machinery_runs(self, pipeline):
        _, split, causer, _, baseline = pipeline
        a = evaluate_model(causer, split.test, z=5)
        b = evaluate_model(baseline, split.test, z=5)
        test = paired_t_test(a.per_user["ndcg"], b.per_user["ndcg"])
        assert 0.0 <= test.p_value <= 1.0

    def test_learned_graph_is_dag_after_training(self, pipeline):
        _, _, causer, fit, _ = pipeline
        assert is_dag(causer.learned_cluster_graph(threshold=0.1))
        assert fit.extra["h"][-1] < 0.5

    def test_learned_graph_correlates_with_truth(self, pipeline):
        """The learned item-level W should separate true causal pairs."""
        dataset, _, causer, _, _ = pipeline
        truth = dataset.item_causal_matrix()[1:, 1:]
        rows, cols = causer.causal_factors()
        learned = (rows @ cols.T)[1:, 1:]
        causal_pairs = learned[truth == 1]
        non_causal = learned[truth == 0]
        if causal_pairs.size and non_causal.size:
            assert causal_pairs.mean() > non_causal.mean()

    def test_explanations_beat_random(self, pipeline):
        dataset, _, causer, _, _ = pipeline
        samples = build_explanation_dataset(dataset, max_samples=60)
        if len(samples) < 10:
            pytest.skip("not enough singleton-history samples at this scale")
        outcome = evaluate_explanations(samples,
                                        make_explainer(causer, "causal"), k=3)
        rng = np.random.default_rng(0)
        random_outcome = evaluate_explanations(
            samples,
            lambda s: rng.random(len(s.history_items)), k=3)
        # F1@3 saturates on short histories (any 3 picks cover most causes);
        # NDCG@3 is the discriminating metric here.
        assert outcome.ndcg > random_outcome.ndcg

    def test_structure_metrics_on_learned_graph(self, pipeline):
        """Wire the causal metrics to the learned cluster graph."""
        dataset, _, causer, _, _ = pipeline
        learned = causer.learned_cluster_graph(threshold=0.25)
        metrics = evaluate_structure(dataset.cluster_graph, learned)
        assert metrics.shd >= 0  # machinery runs end-to-end
        assert 0.0 <= metrics.skeleton_f1 <= 1.0
