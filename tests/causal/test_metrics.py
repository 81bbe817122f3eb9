"""Tests for structure-recovery metrics."""

import numpy as np
import pytest

from repro.causal import (evaluate_structure, skeleton_scores,
                          structural_hamming_distance, v_structure_scores)


def chain():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 2] = 1
    return m


class TestSHD:
    def test_identical_graphs(self):
        assert structural_hamming_distance(chain(), chain()) == 0

    def test_missing_edge(self):
        learned = chain()
        learned[1, 2] = 0
        assert structural_hamming_distance(chain(), learned) == 1

    def test_extra_edge(self):
        learned = chain()
        learned[0, 2] = 1
        assert structural_hamming_distance(chain(), learned) == 1

    def test_reversed_edge_counts_once(self):
        learned = np.zeros((3, 3))
        learned[1, 0] = learned[1, 2] = 1  # 0->1 reversed
        assert structural_hamming_distance(chain(), learned) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            structural_hamming_distance(chain(), np.zeros((4, 4)))

    def test_empty_vs_full(self):
        truth = chain()
        assert structural_hamming_distance(truth, np.zeros((3, 3))) == 2


class TestSkeletonScores:
    def test_perfect(self):
        scores = skeleton_scores(chain(), chain())
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_direction_ignored(self):
        scores = skeleton_scores(chain(), chain().T)
        assert scores["f1"] == 1.0

    def test_half_recall(self):
        learned = np.zeros((3, 3))
        learned[0, 1] = 1
        scores = skeleton_scores(chain(), learned)
        assert scores["recall"] == pytest.approx(0.5)
        assert scores["precision"] == pytest.approx(1.0)

    def test_empty_learned(self):
        scores = skeleton_scores(chain(), np.zeros((3, 3)))
        assert scores["f1"] == 0.0


class TestVStructureScores:
    def test_both_empty_is_perfect(self):
        scores = v_structure_scores(chain(), chain())
        assert scores == {"precision": 1.0, "recall": 1.0}

    def test_found_collider(self):
        coll = np.zeros((3, 3))
        coll[0, 2] = coll[1, 2] = 1
        scores = v_structure_scores(coll, coll)
        assert scores == {"precision": 1.0, "recall": 1.0}

    def test_missed_collider(self):
        coll = np.zeros((3, 3))
        coll[0, 2] = coll[1, 2] = 1
        scores = v_structure_scores(coll, chain())
        assert scores["recall"] == 0.0


class TestEvaluateStructure:
    def test_full_report(self):
        report = evaluate_structure(chain(), chain())
        assert report.shd == 0
        assert report.markov_equivalent
        assert report.true_edges == 2
        assert report.learned_edges == 2
        assert report.skeleton_f1 == 1.0
        assert report.v_structure_precision == 1.0

    def test_reversed_chain_equivalent(self):
        report = evaluate_structure(chain(), chain().T)
        assert report.markov_equivalent
        assert report.shd == 2  # two reversals
