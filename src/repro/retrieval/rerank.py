"""Exact re-ranking of a retrieval shortlist through the model head.

The index stage ranks by the two-tower approximation (for Causer it drops
the per-item causal effects); this stage pushes *only* the shortlist
through the exact eq.-10 head — the same arithmetic
:func:`repro.serve.scoring.score_views` runs over the full catalog,
restricted to the candidate columns — so the final top-z ordering over
the shortlist is bit-identical to full scoring restricted to those
candidates (``tests/serve/test_retrieval_serve.py`` asserts the scores
with exact equality).
"""

from __future__ import annotations

from typing import List

import numpy as np

from .index import top_ids_by_score


def rerank_top_z(artifacts, view, candidates: np.ndarray,
                 z: int) -> List[int]:
    """Top-``z`` ids of the shortlist under exact scores (ties by id)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return []
    # Late import: repro.serve imports this package at module level.
    from ..serve.scoring import score_view_candidates
    scores = score_view_candidates(artifacts, view, candidates)
    return [int(i) for i in top_ids_by_score(scores, candidates, z)]
