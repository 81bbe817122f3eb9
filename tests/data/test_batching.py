"""Tests for padding, negative sampling and batch iteration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (EvalSample, iterate_batches, pad_samples,
                        sample_negatives)


def sample(user, history, target):
    return EvalSample(user_id=user,
                      history=tuple(tuple(b) for b in history),
                      target=tuple(target))


class TestPadSamples:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_samples([])

    def test_shapes(self):
        batch = pad_samples([
            sample(0, [[1], [2, 3]], [4]),
            sample(1, [[5]], [6, 7]),
        ])
        assert batch.items.shape == (2, 2, 2)
        assert batch.positives.shape == (2, 2)
        assert batch.step_mask.tolist() == [[True, True], [True, False]]

    def test_contents(self):
        batch = pad_samples([sample(3, [[1], [2, 4]], [5])])
        assert batch.users[0] == 3
        assert batch.items[0, 0, 0] == 1
        assert set(batch.items[0, 1]) == {2, 4}
        assert batch.positives[0, 0] == 5
        assert batch.basket_mask[0, 0].sum() == 1
        assert batch.basket_mask[0, 1].sum() == 2

    def test_max_history_truncation(self):
        batch = pad_samples([sample(0, [[1], [2], [3], [4]], [5])],
                            max_history=2)
        assert batch.items.shape[1] == 2
        assert batch.items[0, :, 0].tolist() == [3, 4]

    def test_flat_history_sets(self):
        batch = pad_samples([sample(0, [[1], [2, 3]], [4]),
                             sample(1, [[5]], [6])])
        sets = batch.flat_history_sets()
        assert sets[0] == {1, 2, 3}
        assert sets[1] == {5}


class TestSampleNegatives:
    def test_shape_and_storage(self):
        batch = pad_samples([sample(0, [[1]], [2])])
        neg = sample_negatives(batch, num_items=50, num_negatives=3,
                               rng=np.random.default_rng(0))
        assert neg.shape == (1, 1, 3)
        assert batch.negatives is neg

    def test_never_collides_with_positives(self):
        rng = np.random.default_rng(1)
        batch = pad_samples([sample(0, [[1]], [2, 3]),
                             sample(1, [[4]], [5])])
        neg = sample_negatives(batch, num_items=10, num_negatives=8, rng=rng)
        collisions = (neg[:, :, :, None] ==
                      batch.positives[:, None, None, :]).any()
        assert not collisions

    def test_never_collides_with_history(self):
        # Negatives a user actually interacted with are not negative
        # evidence: draws are rejected against the flattened history too.
        batch = pad_samples([sample(0, [[1, 2], [3]], [4]),
                             sample(1, [[5], [6, 7]], [8])])
        for seed in range(10):
            neg = sample_negatives(batch, num_items=9, num_negatives=6,
                                   rng=np.random.default_rng(seed))
            for row, history in enumerate(batch.flat_history_sets()):
                assert not history.intersection(neg[row].ravel().tolist())

    def test_range(self):
        batch = pad_samples([sample(0, [[1]], [2])])
        neg = sample_negatives(batch, num_items=7, num_negatives=20,
                               rng=np.random.default_rng(2))
        assert neg.min() >= 1
        assert neg.max() <= 7

    def test_too_few_items_rejected(self):
        batch = pad_samples([sample(0, [[1]], [1])])
        with pytest.raises(ValueError):
            sample_negatives(batch, num_items=1, num_negatives=1,
                             rng=np.random.default_rng(0))

    def test_tiny_catalog_resolved_exactly(self):
        # History + positives cover 3 of 4 items, so rejection sampling
        # alone would almost surely leave collisions after 8 passes; the
        # exact complement fallback must fill every slot with the only
        # legal item.
        batch = pad_samples([sample(0, [[3]], [1, 2])])
        for seed in range(20):
            neg = sample_negatives(batch, num_items=4, num_negatives=6,
                                   rng=np.random.default_rng(seed))
            assert (neg == 4).all()

    def test_tiny_catalog_mixed_rows(self):
        # One dense row (single legal negative) next to a sparse row.
        batch = pad_samples([sample(0, [[3]], [1, 2]),
                             sample(1, [[1]], [2])])
        neg = sample_negatives(batch, num_items=4, num_negatives=5,
                               rng=np.random.default_rng(7))
        assert (neg[0] == 4).all()
        collisions = (neg[:, :, :, None] ==
                      batch.positives[:, None, None, :]).any()
        assert not collisions

    def test_all_items_excluded_raises(self):
        # History {1} plus targets {1, 2} cover the whole catalog.
        batch = pad_samples([sample(0, [[1]], [1, 2])])
        with pytest.raises(ValueError, match="no negative exists"):
            sample_negatives(batch, num_items=2, num_negatives=1,
                             rng=np.random.default_rng(0))


class TestIterateBatches:
    def test_covers_all_samples(self):
        samples = [sample(i, [[1]], [2]) for i in range(10)]
        batches = list(iterate_batches(samples, 3,
                                       np.random.default_rng(0)))
        assert sum(b.batch_size for b in batches) == 10
        users = sorted(u for b in batches for u in b.users)
        assert users == list(range(10))

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(iterate_batches([sample(0, [[1]], [2])], 0))

    def test_shuffle_without_rng_rejected(self):
        samples = [sample(i, [[1]], [2]) for i in range(4)]
        with pytest.raises(ValueError, match="explicit rng"):
            list(iterate_batches(samples, 2))

    def test_same_rng_seed_same_order(self):
        samples = [sample(i, [[1]], [2]) for i in range(9)]
        orders = [
            [u for b in iterate_batches(samples, 4,
                                        np.random.default_rng(5))
             for u in b.users.tolist()]
            for _ in range(2)
        ]
        assert orders[0] == orders[1]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       num_samples=st.integers(1, 12),
       max_hist=st.integers(1, 6))
def test_padding_roundtrip_property(seed, num_samples, max_hist):
    """Every original item lands in the padded arrays exactly once."""
    rng = np.random.default_rng(seed)
    samples = []
    for user in range(num_samples):
        history = []
        for _ in range(int(rng.integers(1, max_hist + 1))):
            basket = list(rng.choice(np.arange(1, 30), replace=False,
                                     size=int(rng.integers(1, 4))))
            history.append(basket)
        samples.append(sample(user, history, [int(rng.integers(1, 30))]))
    batch = pad_samples(samples)
    for row, original in enumerate(samples):
        flat_original = sorted(i for b in original.history for i in b)
        mask = batch.basket_mask[row].astype(bool)
        flat_padded = sorted(batch.items[row][mask].tolist())
        assert flat_original == flat_padded
        # Padding positions hold item 0.
        assert (batch.items[row][~mask] == 0).all()
