"""Ranking metrics: the paper's §V-A formulas.

All metrics compare a ranked recommendation list ``A_u`` (top-Z items) with
the ground-truth set ``B_u``:

* ``P@Z  = |A ∩ B| / |A|``
* ``R@Z  = |A ∩ B| / |B|``
* ``F1@Z = 2 P R / (P + R)`` averaged over users
* ``DCG@Z = Σ_i R(i) / log2(i + 1)`` with binary relevance, normalized by
  the ideal DCG (``NDCG@Z``).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Set

import numpy as np


def precision_at_z(recommended: Sequence[int], relevant: Set[int]) -> float:
    """Fraction of recommended items that are relevant."""
    if not recommended:
        return 0.0
    hits = sum(1 for item in recommended if item in relevant)
    return hits / len(recommended)


def recall_at_z(recommended: Sequence[int], relevant: Set[int]) -> float:
    """Fraction of relevant items that were recommended."""
    if not relevant:
        return 0.0
    hits = sum(1 for item in recommended if item in relevant)
    return hits / len(relevant)


def f1_at_z(recommended: Sequence[int], relevant: Set[int]) -> float:
    """Harmonic mean of precision and recall for one user."""
    precision = precision_at_z(recommended, relevant)
    recall = recall_at_z(recommended, relevant)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def dcg_at_z(recommended: Sequence[int], relevant: Set[int]) -> float:
    """Discounted cumulative gain with binary relevance, positions 1-based."""
    gain = 0.0
    for i, item in enumerate(recommended, start=1):
        if item in relevant:
            gain += 1.0 / np.log2(i + 1)
    return gain


def ideal_dcg(num_relevant: int, z: int) -> float:
    """DCG of the perfect ranking: relevant items fill the top positions."""
    top = min(num_relevant, z)
    return float(sum(1.0 / np.log2(i + 1) for i in range(1, top + 1)))


def ndcg_at_z(recommended: Sequence[int], relevant: Set[int]) -> float:
    """DCG normalized by the ideal DCG for this user's relevant count."""
    if not relevant:
        return 0.0
    ideal = ideal_dcg(len(relevant), len(recommended))
    if ideal == 0.0:
        return 0.0
    return dcg_at_z(recommended, relevant) / ideal


def mean_metric(per_user_values: Iterable[float]) -> float:
    """Average over users; empty input yields 0."""
    values = list(per_user_values)
    if not values:
        return 0.0
    return float(np.mean(values))
