"""Tests for random DAG generation and linear SEM sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.causal import sem
from repro.causal import (is_dag, random_dag, simulate_linear_sem,
                          standardize, weighted_dag)


class TestRandomDag:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10),
           p=st.floats(0.0, 1.0))
    def test_always_acyclic(self, seed, n, p):
        dag = random_dag(n, p, np.random.default_rng(seed))
        assert is_dag(dag)

    def test_edge_prob_extremes(self):
        rng = np.random.default_rng(0)
        assert random_dag(5, 0.0, rng).sum() == 0
        full = random_dag(5, 1.0, rng)
        assert full.sum() == 10  # complete DAG on 5 nodes

    def test_invalid_edge_prob(self):
        with pytest.raises(ValueError):
            random_dag(4, 1.5, np.random.default_rng(0))


class TestWeightedDag:
    def test_weights_in_range(self):
        rng = np.random.default_rng(2)
        adj = random_dag(6, 0.5, rng)
        weights = weighted_dag(adj, rng)
        nonzero = np.abs(weights[adj == 1])
        assert (nonzero >= 0.5).all() and (nonzero <= 2.0).all()
        assert (weights[adj == 0] == 0).all()

    def test_invalid_range(self, monkeypatch):
        monkeypatch.setattr(sem, "WEIGHT_RANGE", (0.0, 1.0))
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            weighted_dag(np.zeros((2, 2)), rng)


class TestSimulateLinearSem:
    def test_shape(self):
        rng = np.random.default_rng(5)
        adj = weighted_dag(random_dag(5, 0.4, rng), rng)
        data = simulate_linear_sem(adj, 100, rng)
        assert data.shape == (100, 5)

    def test_root_variance_matches_noise(self):
        rng = np.random.default_rng(6)
        weights = np.zeros((2, 2))
        weights[0, 1] = 2.0
        data = simulate_linear_sem(weights, 20_000, rng)
        assert data[:, 0].std() == pytest.approx(1.0, rel=0.05)
        # child = 2 * parent + noise -> std = sqrt(4 + 1)
        assert data[:, 1].std() == pytest.approx(np.sqrt(5.0), rel=0.05)

    def test_child_correlates_with_parent(self):
        rng = np.random.default_rng(7)
        weights = np.zeros((2, 2))
        weights[0, 1] = 1.5
        data = simulate_linear_sem(weights, 5000, rng)
        corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
        assert corr > 0.7

    @pytest.mark.parametrize("noise", ["gaussian"])
    def test_noise_kinds(self, noise):
        rng = np.random.default_rng(8)
        weights = np.zeros((3, 3))
        weights[0, 1] = 1.0
        data = simulate_linear_sem(weights, 200, rng)
        assert np.isfinite(data).all()

    def test_standardize_centers(self):
        rng = np.random.default_rng(9)
        data = rng.normal(5.0, 2.0, size=(500, 3))
        centered = standardize(data)
        np.testing.assert_allclose(centered.mean(axis=0), np.zeros(3),
                                   atol=1e-10)
