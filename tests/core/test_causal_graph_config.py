"""Tests for the cluster-level causal graph module and CauserConfig."""

import numpy as np
import pytest

from repro.causal import binarize, h_value, is_dag
from repro.core import CauserConfig, ClusterCausalGraph, ablation_config


@pytest.fixture
def graph():
    return ClusterCausalGraph(4, np.random.default_rng(0))


class TestClusterCausalGraph:
    def test_diagonal_structurally_zero(self, graph):
        np.testing.assert_allclose(np.diag(graph.matrix().data), 0.0)
        graph.weights.data[...] = 1.0
        np.testing.assert_allclose(np.diag(graph.matrix().data), 0.0)

    def test_init_above_typical_thresholds(self, graph):
        off_diag = graph.numpy_matrix()[~np.eye(4, dtype=bool)]
        assert (off_diag >= 0.3).all()

    def test_acyclicity_matches_h_value(self, graph):
        assert graph.acyclicity().item() == pytest.approx(
            h_value(graph.numpy_matrix()), rel=1e-12)
        assert graph.acyclicity_value() == pytest.approx(
            graph.acyclicity().item())

    def test_acyclicity_gradient_flows(self, graph):
        graph.acyclicity().backward()
        assert graph.weights.grad is not None
        assert np.abs(graph.weights.grad).sum() > 0

    def test_l1(self, graph):
        expected = np.abs(graph.numpy_matrix()).sum()
        assert graph.l1().item() == pytest.approx(expected)

    def test_thresholded_binary(self, graph):
        binary = binarize(graph.numpy_matrix(), 0.5)
        assert set(np.unique(binary)) <= {0, 1}

    def test_as_dag(self, graph):
        dag = graph.as_dag(threshold=0.1)
        assert is_dag(dag)

    def test_is_acyclic_on_dense_init(self, graph):
        # Dense positive init has cycles above a small threshold.
        assert not is_dag(binarize(graph.numpy_matrix(), 0.1))


class TestCauserConfig:
    def test_defaults_valid(self):
        CauserConfig()  # must not raise

    @pytest.mark.parametrize("field,value", [
        ("cell_type", "transformer"),
        ("num_clusters", 1),
        ("epsilon", 1.5),
        ("eta", 0.0),
        ("kappa1", 0.5),
        ("kappa2", 1.5),
        ("update_every", 0),
        ("filtering_mode", "fuzzy"),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            CauserConfig(**{field: value})

    def test_ablation_variants(self):
        base = CauserConfig()
        assert not ablation_config(base, "-clus").use_clustering_loss
        assert not ablation_config(base, "-rec").use_reconstruction_loss
        assert not ablation_config(base, "-att").use_attention
        assert not ablation_config(base, "-causal").use_causal
        full = ablation_config(base, "full")
        assert full.use_causal and full.use_attention

    def test_ablation_does_not_mutate_base(self):
        base = CauserConfig()
        ablation_config(base, "-causal")
        assert base.use_causal

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ablation_config(CauserConfig(), "-everything")
