"""Tests for DAG utilities: structure queries, MEC, pruning."""

import numpy as np
import pytest

from repro.causal import (binarize, is_dag, markov_equivalent, parents,
                          prune_to_dag, skeleton, topological_order,
                          v_structures, validate_adjacency)


def chain(n=3):
    """0 -> 1 -> ... -> n-1."""
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1] = 1
    return m


def collider():
    """0 -> 2 <- 1."""
    m = np.zeros((3, 3))
    m[0, 2] = 1
    m[1, 2] = 1
    return m


def fork():
    """0 <- 2 -> 1 (common cause)."""
    m = np.zeros((3, 3))
    m[2, 0] = 1
    m[2, 1] = 1
    return m


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_adjacency(np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            validate_adjacency(np.zeros(4))

    def test_binarize_threshold(self):
        m = np.array([[0.0, 0.5], [-0.2, 0.0]])
        np.testing.assert_array_equal(binarize(m, 0.3), [[0, 1], [0, 0]])
        np.testing.assert_array_equal(binarize(m, 0.1), [[0, 1], [1, 0]])


class TestStructureQueries:
    def test_is_dag(self):
        assert is_dag(chain())
        cyclic = chain()
        cyclic[2, 0] = 1
        assert not is_dag(cyclic)

    def test_topological_order(self):
        order = topological_order(chain(4))
        assert order == [0, 1, 2, 3]

    def test_topological_order_cycle_raises(self):
        cyclic = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            topological_order(cyclic)

    def test_parents_children(self):
        m = collider()
        assert parents(m, 2) == [0, 1]
        assert parents(m, 0) == []


class TestSkeletonAndVStructures:
    def test_skeleton_symmetric(self):
        skel = skeleton(chain())
        np.testing.assert_array_equal(skel, skel.T)
        assert skel[0, 1] == 1 and skel[1, 2] == 1 and skel[0, 2] == 0

    def test_collider_detected(self):
        assert v_structures(collider()) == {(0, 2, 1)}

    def test_fork_is_not_collider(self):
        assert v_structures(fork()) == set()

    def test_chain_no_v_structure(self):
        assert v_structures(chain()) == set()

    def test_shielded_collider_excluded(self):
        m = collider()
        m[0, 1] = 1  # shield: 0 and 1 now adjacent
        assert v_structures(m) == set()


class TestMarkovEquivalence:
    def test_chain_directions_equivalent(self):
        forward = chain()
        backward = chain().T
        assert markov_equivalent(forward, backward)

    def test_collider_not_equivalent_to_chain(self):
        assert not markov_equivalent(collider(), chain())

    def test_fork_equivalent_to_chain(self):
        # 0 <- 2 -> 1 and 0 -> 2 -> 1 share skeleton, no v-structures.
        assert markov_equivalent(fork(), np.array([[0, 0, 1],
                                                   [0, 0, 0],
                                                   [0, 1, 0]]).T)

    def test_different_skeletons_not_equivalent(self):
        assert not markov_equivalent(chain(), np.zeros((3, 3)))

    def test_self_equivalence(self):
        assert markov_equivalent(collider(), collider())


class TestPruneToDag:
    def test_removes_weakest_cycle_edge(self):
        m = np.array([[0.0, 1.0], [0.2, 0.0]])
        pruned = prune_to_dag(m)
        assert is_dag(pruned)
        assert pruned[0, 1] == 1.0
        assert pruned[1, 0] == 0.0

    def test_dag_unchanged(self):
        m = chain()
        np.testing.assert_array_equal(prune_to_dag(m), m)

    def test_three_cycle(self):
        m = np.array([[0, 0.9, 0], [0, 0, 0.8], [0.1, 0, 0]])
        pruned = prune_to_dag(m)
        assert is_dag(pruned)
        assert pruned[2, 0] == 0.0  # the weakest edge went
