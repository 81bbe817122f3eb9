"""Ranking evaluation harness.

Runs a recommender over held-out samples, collects per-user metric values
(for significance testing) and their means.  Models implement the
:class:`~repro.models.base.Recommender` protocol: ``recommend(samples, z)``
returns a ranked item list per sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from ..data.interactions import EvalSample
from . import metrics as M


@dataclass
class EvaluationResult:
    """Per-user metric traces plus means for one model on one sample set."""

    z: int
    per_user: Dict[str, List[float]] = field(default_factory=dict)

    def mean(self, metric: str) -> float:
        return M.mean_metric(self.per_user.get(metric, []))

    def summary(self) -> Dict[str, float]:
        return {name: self.mean(name) for name in self.per_user}


def evaluate_rankings(rankings: Sequence[Sequence[int]],
                      samples: Sequence[EvalSample],
                      z: int = 5) -> EvaluationResult:
    """Score precomputed rankings against sample targets.

    All six metrics derive from one membership pass per user (is the i-th
    recommended item relevant?) plus precomputed log-discount tables,
    instead of six independent scans through each ranking.  Agrees with the
    formula-level functions in :mod:`repro.eval.metrics` to rounding.
    """
    if len(rankings) != len(samples):
        raise ValueError(
            f"got {len(rankings)} rankings for {len(samples)} samples")
    result = EvaluationResult(z=z, per_user={
        "precision": [], "recall": [], "f1": [], "ndcg": [], "hit": [], "mrr": [],
    })
    # discounts[i] = 1 / log2(i + 2) for 0-based position i;
    # ideal_cum[k] = DCG of a perfect ranking with k relevant items in top-z.
    discounts = 1.0 / np.log2(np.arange(2, z + 2, dtype=np.float64))
    ideal_cum = np.concatenate([[0.0], np.cumsum(discounts)])
    per_user = result.per_user
    for ranking, sample in zip(rankings, samples):
        top = list(ranking)[:z]
        relevant = set(sample.target)
        hits = np.fromiter((item in relevant for item in top),
                           dtype=np.float64, count=len(top))
        num_hits = float(hits.sum())
        num_rec, num_rel = len(top), len(relevant)
        precision = num_hits / num_rec if num_rec else 0.0
        recall = num_hits / num_rel if num_rel else 0.0
        f1 = (2.0 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        if num_rel and num_rec:
            ideal = ideal_cum[min(num_rel, num_rec)]
            ndcg = float(hits @ discounts[:num_rec]) / ideal if ideal else 0.0
        else:
            ndcg = 0.0
        first = int(hits.argmax()) if num_hits else -1
        per_user["precision"].append(precision)
        per_user["recall"].append(recall)
        per_user["f1"].append(f1)
        per_user["ndcg"].append(ndcg)
        per_user["hit"].append(1.0 if num_hits else 0.0)
        per_user["mrr"].append(1.0 / (first + 1) if first >= 0 else 0.0)
    return result


def evaluate_model(model, samples: Sequence[EvalSample], z: int = 5,
                   batch_size: int = 128) -> EvaluationResult:
    """Evaluate a model implementing ``recommend`` over ``samples``.

    Each sample is read from ``samples`` once: a lazy view builds a
    sample per read, so the chunks are kept and scored, not re-read.
    """
    if not samples:
        raise ValueError("cannot evaluate on an empty sample list")
    rankings: List[List[int]] = []
    evaluated: List[EvalSample] = []
    for start in range(0, len(samples), batch_size):
        chunk = list(samples[start:start + batch_size])
        rankings.extend(model.recommend(chunk, z=z))
        evaluated.extend(chunk)
    return evaluate_rankings(rankings, evaluated, z=z)
