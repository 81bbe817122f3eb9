"""Structure-recovery metrics for learned causal graphs.

These quantify how close a learned graph is to the ground truth: structural
Hamming distance, skeleton precision/recall/F1, v-structure agreement, and
the paper's Markov-equivalence check (Definition 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .graph import binarize, markov_equivalent, skeleton, v_structures


@dataclass
class StructureMetrics:
    """Bundle of structure-recovery scores; see :func:`evaluate_structure`."""

    shd: int
    skeleton_precision: float
    skeleton_recall: float
    skeleton_f1: float
    v_structure_precision: float
    v_structure_recall: float
    markov_equivalent: bool
    true_edges: int
    learned_edges: int


def structural_hamming_distance(true_graph: np.ndarray,
                                learned_graph: np.ndarray) -> int:
    """SHD: additions + deletions + reversals needed to match ``true_graph``.

    A reversed edge counts once (not as one deletion plus one addition),
    following the convention in the causal-discovery literature.
    """
    true_bin = binarize(true_graph)
    learned_bin = binarize(learned_graph)
    if true_bin.shape != learned_bin.shape:
        raise ValueError("graphs must have the same shape")

    diff = np.abs(true_bin - learned_bin)
    # A reversal shows up as a 1 in both (i, j) and (j, i) of the diff.
    reversal_pairs = (((true_bin == 1) & (learned_bin == 0) &
                       (learned_bin.T == 1) & (true_bin.T == 0))).sum()
    plain_mismatches = diff.sum() - 2 * reversal_pairs
    return int(plain_mismatches + reversal_pairs)


def skeleton_scores(true_graph: np.ndarray,
                    learned_graph: np.ndarray) -> Dict[str, float]:
    """Precision/recall/F1 of undirected adjacency recovery."""
    true_skel = skeleton(true_graph)
    learned_skel = skeleton(learned_graph)
    upper = np.triu_indices(true_skel.shape[0], k=1)
    truth = true_skel[upper].astype(bool)
    guess = learned_skel[upper].astype(bool)
    tp = float((truth & guess).sum())
    precision = tp / guess.sum() if guess.sum() else 0.0
    recall = tp / truth.sum() if truth.sum() else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return {"precision": precision, "recall": recall, "f1": f1}


def v_structure_scores(true_graph: np.ndarray,
                       learned_graph: np.ndarray) -> Dict[str, float]:
    """Precision/recall of collider recovery; both 1.0 when truth has none."""
    true_vs = v_structures(true_graph)
    learned_vs = v_structures(learned_graph)
    if not true_vs and not learned_vs:
        return {"precision": 1.0, "recall": 1.0}
    tp = len(true_vs & learned_vs)
    precision = tp / len(learned_vs) if learned_vs else (1.0 if not true_vs else 0.0)
    recall = tp / len(true_vs) if true_vs else 1.0
    return {"precision": precision, "recall": recall}


def evaluate_structure(true_graph: np.ndarray,
                       learned_graph: np.ndarray) -> StructureMetrics:
    """Full structure-recovery report comparing a learned graph to truth."""
    skel = skeleton_scores(true_graph, learned_graph)
    vs = v_structure_scores(true_graph, learned_graph)
    return StructureMetrics(
        shd=structural_hamming_distance(true_graph, learned_graph),
        skeleton_precision=skel["precision"],
        skeleton_recall=skel["recall"],
        skeleton_f1=skel["f1"],
        v_structure_precision=vs["precision"],
        v_structure_recall=vs["recall"],
        markov_equivalent=markov_equivalent(true_graph, learned_graph),
        true_edges=int(binarize(true_graph).sum()),
        learned_edges=int(binarize(learned_graph).sum()),
    )
