"""Tests for ranking metrics against hand-computed values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import EvalSample
from repro.eval import (dcg_at_z, evaluate_rankings, f1_at_z, ideal_dcg,
                        mean_metric, ndcg_at_z, precision_at_z, recall_at_z)


def per_user(metric, rankings, targets):
    samples = [EvalSample(user_id=0, history=((1,),), target=(target,))
               for target in targets]
    return evaluate_rankings(rankings, samples, z=5).per_user[metric]


class TestPrecisionRecallF1:
    def test_perfect(self):
        assert precision_at_z([1, 2], {1, 2}) == 1.0
        assert recall_at_z([1, 2], {1, 2}) == 1.0
        assert f1_at_z([1, 2], {1, 2}) == 1.0

    def test_half_precision(self):
        assert precision_at_z([1, 9], {1}) == 0.5

    def test_partial_recall(self):
        assert recall_at_z([1], {1, 2, 3, 4}) == 0.25

    def test_f1_formula(self):
        # P = 1/5, R = 1/2 -> F1 = 2PR/(P+R)
        recommended = [1, 8, 9, 10, 11]
        relevant = {1, 2}
        p, r = 0.2, 0.5
        assert f1_at_z(recommended, relevant) == pytest.approx(
            2 * p * r / (p + r))

    def test_no_overlap(self):
        assert f1_at_z([7, 8], {1}) == 0.0

    def test_empty_inputs(self):
        assert precision_at_z([], {1}) == 0.0
        assert recall_at_z([1], set()) == 0.0


class TestNDCG:
    def test_hit_at_top(self):
        assert ndcg_at_z([1, 8, 9], {1}) == pytest.approx(1.0)

    def test_hit_at_position_two(self):
        expected = (1 / np.log2(3)) / 1.0
        assert ndcg_at_z([8, 1, 9], {1}) == pytest.approx(expected)

    def test_dcg_accumulates(self):
        value = dcg_at_z([1, 2], {1, 2})
        assert value == pytest.approx(1.0 + 1 / np.log2(3))

    def test_ideal_dcg_caps_at_z(self):
        assert ideal_dcg(10, 2) == pytest.approx(1.0 + 1 / np.log2(3))

    def test_ndcg_normalization(self):
        # Two relevant items in a 5-slot list, both found at top.
        assert ndcg_at_z([1, 2, 8, 9, 10], {1, 2}) == pytest.approx(1.0)

    def test_no_relevant(self):
        assert ndcg_at_z([1, 2], set()) == 0.0


class TestHitAndMRR:
    """The per-user ``hit`` and ``mrr`` traces of :func:`evaluate_rankings`."""

    def test_hit(self):
        assert per_user("hit", [[3, 4], [3, 4]], [4, 5]) == [1.0, 0.0]

    def test_mrr(self):
        assert per_user("mrr", [[9, 8, 1], [9]], [1, 1]) == pytest.approx(
            [1 / 3, 0.0])


class TestMeanMetric:
    def test_mean(self):
        assert mean_metric([0.0, 1.0]) == 0.5

    def test_empty(self):
        assert mean_metric([]) == 0.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000), z=st.integers(1, 10))
def test_metric_bounds_property(seed, z):
    rng = np.random.default_rng(seed)
    recommended = list(rng.choice(np.arange(1, 50), size=z, replace=False))
    relevant = set(rng.choice(np.arange(1, 50),
                              size=int(rng.integers(1, 6)),
                              replace=False).tolist())
    for metric in (precision_at_z, recall_at_z, f1_at_z, ndcg_at_z):
        value = metric(recommended, relevant)
        assert 0.0 <= value <= 1.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_ndcg_rewards_earlier_hits(seed):
    rng = np.random.default_rng(seed)
    target = int(rng.integers(1, 20))
    others = [i for i in range(20, 26)]
    early = [target] + others[:4]
    late = others[:4] + [target]
    assert ndcg_at_z(early, {target}) >= ndcg_at_z(late, {target})
