"""Tests for the evaluation harness, t-tests and explanation scoring."""

from collections import Counter
from collections.abc import Sequence

import numpy as np
import pytest

from repro.data import EvalSample, ExplanationSample
from repro.eval import (evaluate_explanations, evaluate_model,
                        evaluate_rankings, paired_t_test,
                        top_k_history_items)


def sample(target):
    return EvalSample(user_id=0, history=((1,),), target=tuple(target))


class _CountingSamples(Sequence):
    """A sample sequence that counts how often each index is read."""

    def __init__(self, samples):
        self.samples = samples
        self.reads = Counter()

    def __len__(self):
        return len(self.samples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        self.reads[index] += 1
        return self.samples[index]


class _FixedRanker:
    def recommend(self, samples, z):
        return [[(s.user_id + k) % 7 + 1 for k in range(z)] for s in samples]


class TestEvaluateModel:
    def test_reads_each_sample_once(self):
        samples = [EvalSample(user_id=u, history=((1,),), target=(u % 7 + 1,))
                   for u in range(11)]
        counting = _CountingSamples(samples)
        result = evaluate_model(_FixedRanker(), counting, z=3, batch_size=4)
        assert counting.reads == Counter(range(len(samples)))
        want = evaluate_rankings(_FixedRanker().recommend(samples, 3),
                                 samples, z=3)
        assert result.per_user == want.per_user


class TestEvaluateRankings:
    def test_perfect_rankings(self):
        samples = [sample([2]), sample([3])]
        result = evaluate_rankings([[2, 9, 8], [3, 9, 8]], samples, z=3)
        assert result.mean("ndcg") == pytest.approx(1.0)
        assert result.mean("hit") == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_rankings([[1]], [], z=5)

    def test_truncates_to_z(self):
        samples = [sample([5])]
        # Hit is at position 4, beyond z=3 -> no credit.
        result = evaluate_rankings([[1, 2, 3, 5]], samples, z=3)
        assert result.mean("hit") == 0.0

    def test_percentages(self):
        result = evaluate_rankings([[2]], [sample([2])], z=1)
        assert 100.0 * result.mean("f1") == pytest.approx(100.0)

    def test_per_user_traces_kept(self):
        samples = [sample([2]), sample([9])]
        result = evaluate_rankings([[2], [1]], samples, z=1)
        assert result.per_user["hit"] == [1.0, 0.0]


class TestPairedTTest:
    def test_clear_difference(self):
        a = [0.9] * 30
        b = [0.1] * 30
        rng = np.random.default_rng(0)
        a = list(np.array(a) + rng.normal(0, 0.01, 30))
        b = list(np.array(b) + rng.normal(0, 0.01, 30))
        test = paired_t_test(a, b)
        assert test.significant()
        assert test.star == "*"

    def test_identical_vectors(self):
        test = paired_t_test([0.5] * 10, [0.5] * 10)
        assert test.p_value == 1.0
        assert test.star == ""

    def test_negative_difference_no_star(self):
        rng = np.random.default_rng(1)
        a = list(rng.normal(0.1, 0.01, 30))
        b = list(rng.normal(0.9, 0.01, 30))
        test = paired_t_test(a, b)
        assert test.significant()
        assert test.star == ""  # significant but worse

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [1.0, 2.0])

    def test_short_input(self):
        test = paired_t_test([1.0], [0.0])
        assert test.p_value == 1.0


class TestExplanationEvaluation:
    def make_sample(self):
        return ExplanationSample(user_id=0,
                                 history=((4,), (5,), (6,)),
                                 target_item=9, cause_items=(5,))

    def test_top_k_selection(self):
        s = self.make_sample()
        picked = top_k_history_items(s, np.array([0.1, 0.9, 0.5]), k=2)
        assert picked == [5, 6]

    def test_top_k_dedupes_items(self):
        s = ExplanationSample(user_id=0, history=((4,), (5,), (4,)),
                              target_item=9, cause_items=(4,))
        picked = top_k_history_items(s, np.array([0.2, 0.1, 0.9]), k=2)
        assert picked == [4, 5]

    def test_score_length_mismatch(self):
        with pytest.raises(ValueError):
            top_k_history_items(self.make_sample(), np.array([1.0]), k=1)

    def test_evaluate_explanations_perfect(self):
        s = self.make_sample()
        result = evaluate_explanations(
            [s], lambda sample: np.array([0.0, 1.0, 0.0]), k=1)
        assert result.f1 == pytest.approx(1.0)
        assert result.ndcg == pytest.approx(1.0)

    def test_evaluate_explanations_miss(self):
        s = self.make_sample()
        result = evaluate_explanations(
            [s], lambda sample: np.array([1.0, 0.0, 0.5]), k=1)
        assert result.f1 == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            evaluate_explanations([], lambda s: np.zeros(1))

    def test_percentages(self):
        s = self.make_sample()
        result = evaluate_explanations(
            [s], lambda sample: np.array([0.0, 1.0, 0.0]), k=1)
        assert 100.0 * result.ndcg == pytest.approx(100.0)
