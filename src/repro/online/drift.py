"""Offline-vs-online drift measurement.

Two complementary views of "how far has the online model moved":

* **Score divergence** — on a fixed probe set of evaluation samples,
  compare full-catalog scores between a baseline (the frozen offline
  checkpoint) and a candidate (the refreshed shadow): mean absolute
  score delta plus top-``z`` recommendation overlap.  Catches drift
  that matters for ranking even when individual weights barely moved.
* **Causal-graph edge churn** — compare two item-level causal matrices,
  each given by its eq.-9 factors, on magnitude edges ``|W_ij| > ε``:
  edges *added* (crossed ε upward), *dropped* (fell below ε), and
  *sign-flipped* (above ε on both sides but reversed direction).
  Catches structural drift in the discovered behavior graph that scores
  alone can hide.  Magnitude edges are a superset of the edges serving
  uses (the signed gate ``W_ij > ε`` of eq. 10), which is why
  ``flipped`` can be non-zero: under the signed gate a sign flip could
  never survive.

Both are exported to ``/metrics`` as gauges by the refresh controller,
so dashboards see drift per refresh generation.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..core.causal_graph import expanded_blocks
from ..data.interactions import EvalSample
from ..models.base import rank_top_z

__all__ = ["edge_churn", "score_divergence", "DriftReport"]


#: A causal matrix as its eq.-9 factors ``(rows, cols)``: ``W = rows @ colsᵀ``
#: (``Causer.causal_factors()`` returns ``(Ā Wᶜ, Ā)``).
Factors = Tuple[np.ndarray, np.ndarray]


def edge_churn(previous: Factors, current: Factors,
               epsilon: float) -> Dict[str, int]:
    """Edge-set churn between two factored causal matrices.

    An edge "exists" when ``|W_ij| > epsilon``: a superset of the signed
    ``W_ij > epsilon`` edges eq. 10 serves, so a sign flip is countable.
    Returns counts of ``added``, ``dropped``, and ``flipped`` (present on
    both sides with opposite sign) edges; ``kept`` counts
    surviving same-sign edges for rate computations.  Each side is built
    one row block at a time by
    :func:`~repro.core.causal_graph.expanded_blocks`; the integer totals
    do not depend on the blocking.
    """
    (prev_rows, prev_cols), (cur_rows, cur_cols) = previous, current
    before_shape = (len(prev_rows), len(prev_cols))
    after_shape = (len(cur_rows), len(cur_cols))
    if before_shape != after_shape:
        raise ValueError(f"causal matrices disagree on shape: "
                         f"{before_shape} vs {after_shape}")
    counts = {"added": 0, "dropped": 0, "flipped": 0, "kept": 0}
    for prev, cur in zip(expanded_blocks(prev_rows, prev_cols),
                         expanded_blocks(cur_rows, cur_cols)):
        before = np.abs(prev) > epsilon
        after = np.abs(cur) > epsilon
        both = before & after
        flipped = both & (np.sign(prev) != np.sign(cur))
        counts["added"] += int(np.count_nonzero(after & ~before))
        counts["dropped"] += int(np.count_nonzero(before & ~after))
        counts["flipped"] += int(np.count_nonzero(flipped))
        counts["kept"] += int(np.count_nonzero(both & ~flipped))
    return counts


def score_divergence(baseline, candidate,
                     probes: Sequence[EvalSample],
                     z: int = 10) -> Dict[str, float]:
    """Probe-set score drift between two recommenders.

    Returns ``mean_abs_delta`` (mean absolute per-item score difference)
    and ``topz_overlap`` (mean Jaccard-free overlap fraction of the two
    top-``z`` lists — 1.0 means recommendations are unchanged).
    """
    if not probes:
        raise ValueError("score_divergence needs a non-empty probe set")
    base_scores = baseline.score_samples(probes)
    cand_scores = candidate.score_samples(probes)
    mean_abs = float(np.mean(np.abs(base_scores - cand_scores)))
    base_top: List[List[int]] = rank_top_z(base_scores, z)
    cand_top: List[List[int]] = rank_top_z(cand_scores, z)
    overlaps = [len(set(a) & set(b)) / float(z)
                for a, b in zip(base_top, cand_top)]
    return {"mean_abs_delta": mean_abs,
            "topz_overlap": float(np.mean(overlaps))}


class DriftReport(dict):
    """Flat metric-name → value mapping from one refresh's drift pass.

    A dict subclass so callers can both iterate it into gauges and read
    named fields in tests (``report["online_edge_churn_added"]``).
    """

    @classmethod
    def build(cls, *, churn: Dict[str, int] = None,
              divergence: Dict[str, float] = None) -> "DriftReport":
        report = cls()
        if churn is not None:
            for kind in ("added", "dropped", "flipped", "kept"):
                report[f"online_edge_churn_{kind}"] = float(churn[kind])
        if divergence is not None:
            report["online_score_divergence"] = divergence["mean_abs_delta"]
            report["online_topz_overlap"] = divergence["topz_overlap"]
        return report
