"""Explanation-quality evaluation (the paper's Fig. 7 protocol).

For each labeled sample, a model produces explanation scores over the
history items of the target; the top-3 items are compared with the labeled
cause set using F1@3 and NDCG@3 — the same metrics as recommendation but
over history positions rather than the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..data.explanation import ExplanationSample
from . import metrics as M

#: Signature of an explainer: given a sample, return a score per history
#: item (aligned with ``sample.history_items``); larger = stronger cause.
ExplainerFn = Callable[[ExplanationSample], np.ndarray]


@dataclass
class ExplanationEvalResult:
    """Mean F1@k / NDCG@k of explanations against labeled causes."""

    k: int
    f1: float
    ndcg: float
    per_sample_f1: List[float]
    per_sample_ndcg: List[float]


def top_k_history_items(sample: ExplanationSample, scores: np.ndarray,
                        k: int) -> List[int]:
    """Highest-scoring distinct history items (stable on ties).

    Duplicate items in the history keep their best-scoring occurrence.
    """
    items = sample.history_items
    if len(scores) != len(items):
        raise ValueError(
            f"scores length {len(scores)} != history length {len(items)}")
    best: Dict[int, float] = {}
    for item, score in zip(items, scores):
        if item not in best or score > best[item]:
            best[item] = float(score)
    ranked = sorted(best, key=lambda it: (-best[it], it))
    return ranked[:k]


def evaluate_explanations(samples: Sequence[ExplanationSample],
                          explainer: ExplainerFn,
                          k: int = 3) -> ExplanationEvalResult:
    """Run ``explainer`` over labeled samples and score the top-k choices."""
    if not samples:
        raise ValueError("no explanation samples provided")
    per_f1: List[float] = []
    per_ndcg: List[float] = []
    for sample in samples:
        scores = np.asarray(explainer(sample), dtype=np.float64)
        picked = top_k_history_items(sample, scores, k)
        relevant = set(sample.cause_items)
        per_f1.append(M.f1_at_z(picked, relevant))
        per_ndcg.append(M.ndcg_at_z(picked, relevant))
    return ExplanationEvalResult(k=k,
                                 f1=M.mean_metric(per_f1),
                                 ndcg=M.mean_metric(per_ndcg),
                                 per_sample_f1=per_f1,
                                 per_sample_ndcg=per_ndcg)
