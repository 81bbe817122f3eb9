"""Tests for the interaction data model and splitting."""

import numpy as np
import pytest

from repro.data import (EvalSample, SequenceCorpus, UserSequence,
                        leave_one_out_split, training_prefixes)


def seq(user_id, *baskets):
    return UserSequence(user_id=user_id,
                        baskets=tuple(tuple(b) for b in baskets))


class TestUserSequence:
    def test_rejects_padding_item(self):
        with pytest.raises(ValueError):
            seq(0, [0])

    def test_rejects_empty_basket(self):
        with pytest.raises(ValueError):
            seq(0, [])

    def test_lengths(self):
        s = seq(0, [1], [2, 3], [4])
        assert s.length == 3
        assert sum(len(b) for b in s.baskets) == 4
        assert s.items() == [1, 2, 3, 4]


class TestSequenceCorpus:
    def test_vocabulary_validated(self):
        with pytest.raises(ValueError):
            SequenceCorpus(num_items=3, sequences=[seq(0, [5])])

    def test_statistics(self):
        corpus = SequenceCorpus(num_items=4, sequences=[
            seq(0, [1], [2]), seq(1, [3], [4], [1], [2])])
        assert corpus.num_users == 2
        assert corpus.num_interactions == 6
        assert corpus.average_sequence_length == pytest.approx(3.0)
        assert corpus.sparsity == pytest.approx(1 - 6 / (2 * 4))

    def test_item_popularity(self):
        corpus = SequenceCorpus(num_items=3, sequences=[
            seq(0, [1], [1]), seq(1, [2])])
        pop = corpus.item_popularity()
        assert pop[0] == 0
        assert pop[1] == 2
        assert pop[2] == 1
        assert pop[3] == 0

    def test_empty_corpus(self):
        corpus = SequenceCorpus(num_items=5)
        assert corpus.average_sequence_length == 0.0
        assert corpus.sparsity == 1.0

    def test_user_ids_must_increase(self):
        for ids in ((3, 3), (4, 2)):
            with pytest.raises(ValueError, match=f"got {ids[1]} after "
                                                 f"{ids[0]}"):
                SequenceCorpus(num_items=2, sequences=[seq(ids[0], [1]),
                                                       seq(ids[1], [2])])

    def test_iteration(self):
        corpus = SequenceCorpus(num_items=2, sequences=[seq(0, [1])])
        assert len(corpus) == 1
        assert list(corpus)[0].user_id == 0


class TestLeaveOneOutSplit:
    def test_holdout_positions(self):
        corpus = SequenceCorpus(num_items=5, sequences=[
            seq(0, [1], [2], [3], [4])])
        split = leave_one_out_split(corpus)
        assert split.test[0].target == (4,)
        assert split.test[0].history == ((1,), (2,), (3,))
        assert split.validation[0].target == (3,)
        assert split.validation[0].history == ((1,), (2,))
        assert list(split.train)[0].baskets == ((1,), (2,))

    def test_short_sequences_stay_in_train(self):
        corpus = SequenceCorpus(num_items=5, sequences=[seq(0, [1], [2])])
        split = leave_one_out_split(corpus)
        assert not split.test
        assert list(split.train)[0].length == 2

    def test_split_sizes(self, tiny_dataset):
        split = leave_one_out_split(tiny_dataset.corpus)
        assert len(split.test) == len(split.validation)
        assert split.train.num_users == tiny_dataset.corpus.num_users
        # Held-out baskets removed from training.
        assert (split.train.num_interactions
                < tiny_dataset.corpus.num_interactions)


class TestTrainingPrefixes:
    def test_expansion_count(self):
        corpus = SequenceCorpus(num_items=5, sequences=[
            seq(0, [1], [2], [3])])
        samples = training_prefixes(corpus)
        assert len(samples) == 2
        assert samples[0].history == ((1,),)
        assert samples[0].target == (2,)
        assert samples[1].history == ((1,), (2,))
        assert samples[1].target == (3,)

    def test_max_history_truncates(self):
        corpus = SequenceCorpus(num_items=9, sequences=[
            seq(0, [1], [2], [3], [4], [5])])
        samples = training_prefixes(corpus, max_history=2)
        last = samples[-1]
        assert len(last.history) == 2
        assert last.history == ((3,), (4,))

    def test_single_step_sequence_yields_nothing(self):
        corpus = SequenceCorpus(num_items=2, sequences=[seq(0, [1])])
        assert list(training_prefixes(corpus)) == []
