"""Tests for the differentiable item clustering module (eqs. 6-8)."""

import numpy as np
import pytest

from repro.core.clustering import ItemClusterModule
from repro.nn import Adam


def _assignment_entropy(module):
    """Mean entropy of the item assignments: 0 means fully hard clusters."""
    probs = np.clip(module.assignments().data[1:], 1e-12, 1.0)
    return float(-(probs * np.log(probs)).sum(axis=-1).mean())


@pytest.fixture
def features():
    """Three well-separated feature clusters over 30 items + padding."""
    rng = np.random.default_rng(0)
    centroids = rng.normal(0, 3.0, size=(3, 6))
    rows = [np.zeros(6)]
    for i in range(30):
        rows.append(centroids[i % 3] + rng.normal(0, 0.2, size=6))
    return np.stack(rows)


@pytest.fixture
def module(features):
    return ItemClusterModule(features, num_clusters=3, embedding_dim=5,
                             hidden_dim=8, eta=0.5,
                             rng=np.random.default_rng(1))


class TestShapes:
    def test_encode(self, module):
        assert module.encode().shape == (31, 5)

    def test_assignments_simplex(self, module):
        assign = module.assignments().data
        assert assign.shape == (31, 3)
        np.testing.assert_allclose(assign.sum(axis=-1), np.ones(31),
                                   rtol=1e-9)
        assert (assign > 0).all()

    def test_decode_shape(self, module):
        decoded = module.decode(module.encode())
        assert decoded.shape == (31, 6)

    def test_rejects_bad_features(self):
        with pytest.raises(ValueError):
            ItemClusterModule(np.zeros(5), 2, 4, 4, 1.0,
                              np.random.default_rng(0))


class TestSeeding:
    def test_kmeans_seeding_recovers_clusters(self, module, features):
        """Farthest-point + Lloyd seeding should match the planted clusters."""
        hard = module.hard_assignments()[1:]
        truth = np.array([i % 3 for i in range(30)])
        # Compute purity under the best label permutation implicitly:
        purity = 0
        for k in range(3):
            members = truth[hard == k]
            if len(members):
                purity += np.bincount(members).max()
        assert purity / 30 >= 0.95

    def test_temperature_controls_hardness(self, features):
        sharp = ItemClusterModule(features, 3, 5, 8, eta=0.1,
                                  rng=np.random.default_rng(1))
        soft = ItemClusterModule(features, 3, 5, 8, eta=100.0,
                                 rng=np.random.default_rng(1))
        assert _assignment_entropy(sharp) < _assignment_entropy(soft)

    def test_extreme_temperature_near_uniform(self, features):
        very_soft = ItemClusterModule(features, 3, 5, 8, eta=1e8,
                                      rng=np.random.default_rng(1))
        assign = very_soft.assignments().data
        np.testing.assert_allclose(assign, 1.0 / 3, atol=1e-4)


class TestLosses:
    def test_losses_are_scalars(self, module):
        embeddings = module.encode()
        assert module.clustering_loss(embeddings).data.shape == ()
        assert module.reconstruction_loss(embeddings).data.shape == ()

    def test_training_reduces_losses(self, module):
        optimizer = Adam(module.parameters(), lr=0.01)
        first = None
        for step in range(60):
            optimizer.zero_grad()
            embeddings = module.encode()
            loss = (module.clustering_loss(embeddings)
                    + module.reconstruction_loss(embeddings))
            loss.backward()
            optimizer.step()
            if first is None:
                first = loss.item()
        assert loss.item() < first * 0.7

    def test_padding_row_excluded(self, features):
        module = ItemClusterModule(features, 3, 5, 8, 0.5,
                                   np.random.default_rng(2))
        embeddings = module.encode()
        base = module.clustering_loss(embeddings).item()
        # Perturbing the padding row's features cannot change the loss.
        module.raw_features[0] = 100.0
        perturbed = module.clustering_loss(module.encode()).item()
        assert perturbed == pytest.approx(base)
