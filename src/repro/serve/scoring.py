"""Online scorers: turn session snapshots into full-catalog scores.

Two paths, chosen by the registry at artifact-build time:

* **incremental** — Causer (``filtering_mode="shared"``) and GRU4Rec reuse
  the recurrent states the session store advanced event-by-event; only the
  cheap head (attention + ε-gated causal aggregation + output dot product
  for Causer, projection + dot product for GRU4Rec) runs per request.  The
  head replicates ``Causer._logits_shared`` / ``GRU4Rec.score_samples``
  operation-for-operation; the attention softmax is the training kernel's
  own :func:`repro.nn.fused.masked_softmax`.
* **replay** — every other model scores through its own
  ``score_samples`` batch path, which *is* the offline scorer, so online
  and offline agree trivially.

Both paths end in :func:`repro.models.base.rank_top_z`, so ranking and
tie-breaking match offline evaluation exactly.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..data.interactions import EvalSample
from ..nn.fused import masked_softmax
from ..retrieval.towers import as_dense, take_rows
from .registry import (CausalServingArtifacts, GRUServingArtifacts,
                       ServingArtifacts)
from .sessions import ScoreView


def attention_weights(states: np.ndarray, last: np.ndarray,
                      proj: Optional[np.ndarray]) -> np.ndarray:
    """Per-step attention α over an all-valid history, shape ``(T,)``.

    ``BilinearAttention.raw_scores`` followed by the training kernel's own
    :func:`repro.nn.fused.masked_softmax` with an all-true mask (every
    session event is a real step — padding never reaches the serving
    path).  ``proj=None`` is the (-att) ablation: uniform weights.
    """
    if proj is None:
        scores = np.zeros(states.shape[0])
    else:
        projected = last @ proj.T                 # (1, H)
        scores = states @ projected[0]            # (T,)
    return masked_softmax(scores, np.ones(scores.shape, dtype=bool))


def gru_projection(artifacts: GRUServingArtifacts,
                   last: Optional[np.ndarray]) -> np.ndarray:
    """GRU4Rec's user representation ``last @ Pᵀ + b``, shape ``(d,)``.

    ``last=None`` (no event folded in yet) projects the zero state.  Both
    the scorer and the retrieval user tower read this one helper.
    """
    if last is None:
        last = np.zeros((1, artifacts.recurrent.hidden_size))
    return (last @ artifacts.project_weight.T + artifacts.project_bias)[0]


def _score_causer(artifacts: CausalServingArtifacts, view: ScoreView,
                  candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """Eq. 10 logits from one session snapshot.

    With ``candidates`` (an id array) the head runs restricted to those
    columns, **bit-identical** to the full-catalog pass gathered at the
    same columns — the contract the retrieval re-rank stage relies on.
    BLAS matmuls pick different kernels (and accumulation orders) per
    output shape, so nothing candidate-shaped may go through one: the
    candidate axis only ever sees elementwise arithmetic and per-row
    pairwise sums (whose bits depend on the reduced length alone), and
    the time contraction is an explicit loop over the ≤ ``max_history``
    steps.  The only matmul, ``states @ Vᵀ``, is candidate-independent.

    Quantized output tables dequantize on the fly (``as_dense`` /
    ``take_rows``): dequantization is row-independent, so the candidate
    restriction stays bit-identical to the gathered full pass, and the
    ``--quantize none`` path is byte-for-byte today's arithmetic.
    """
    catalog = (artifacts.num_items + 1 if candidates is None
               else candidates.shape[0])
    out_table = (as_dense(artifacts.output_table) if candidates is None
                 else take_rows(artifacts.output_table, candidates))
    out_bias = (artifacts.output_bias if candidates is None
                else artifacts.output_bias[candidates])
    if view.steps == 0 or view.states is None:
        # Empty history: zero context, so only the popularity prior scores.
        return out_bias.copy()
    states = view.states                          # (T, H)
    alpha = attention_weights(states, view.last, artifacts.attention_proj)
    if artifacts.use_causal:
        effects = np.zeros((view.steps, catalog))
        for t, basket in enumerate(view.events):
            rows = artifacts.gated_matrix[list(basket)]
            if candidates is not None:
                rows = rows[:, candidates]
            effects[t] = rows.sum(axis=0)
    else:
        effects = np.ones((view.steps, catalog))
    weights = effects * alpha[:, None]            # (T, C)
    proj = states @ artifacts.adapt_weight.T      # (T, d_e)
    scores = out_bias.copy()
    for t in range(view.steps):
        dots = (out_table * proj[t]).sum(axis=1)  # (C,)
        scores = scores + weights[t] * dots
    return scores


def _score_gru(artifacts: GRUServingArtifacts, view: ScoreView,
               candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """GRU4Rec head from one session snapshot.

    The projection is a ``(1, H)`` matmul per view, never a stacked GEMM,
    and the output stage is an elementwise multiply + per-row sum: both
    keep every view's scores bit-identical no matter how the batcher
    grouped it, and the ``candidates`` restriction bit-identical to the
    full pass gathered at the same columns (as in :func:`_score_causer`).
    """
    out_table = (as_dense(artifacts.output_table) if candidates is None
                 else take_rows(artifacts.output_table, candidates))
    out_bias = (artifacts.output_bias if candidates is None
                else artifacts.output_bias[candidates])
    rep = gru_projection(artifacts, view.last)
    return (out_table * rep).sum(axis=1) + out_bias


def _score_replay(artifacts: ServingArtifacts,
                  views: Sequence[ScoreView]) -> np.ndarray:
    """Replay the stored events through the model's offline batch scorer."""
    samples = [
        EvalSample(user_id=view.user_id,
                   history=tuple(view.events[-artifacts.max_history:])
                   or ((0,),),
                   target=())
        for view in views]
    return artifacts.model.score_samples(samples)


def score_views(artifacts: ServingArtifacts,
                views: Sequence[ScoreView]) -> np.ndarray:
    """Full-catalog scores for a micro-batch of sessions: ``(B, V + 1)``.

    Every view must belong to ``artifacts``' generation (the batcher groups
    by artifact identity before calling).
    """
    if not views:
        return np.zeros((0, artifacts.num_items + 1))
    if isinstance(artifacts, CausalServingArtifacts):
        return np.stack([_score_causer(artifacts, view) for view in views])
    if isinstance(artifacts, GRUServingArtifacts):
        return np.stack([_score_gru(artifacts, view) for view in views])
    return _score_replay(artifacts, views)


def score_view_candidates(artifacts: ServingArtifacts, view: ScoreView,
                          candidates: np.ndarray) -> np.ndarray:
    """Exact-head scores restricted to ``candidates`` for one session.

    The retrieval re-rank entry point: same arithmetic as
    :func:`score_views`, run only over the candidate columns.  For the
    incremental heads (Causer eq. 10, GRU4Rec projection) every
    per-candidate value is computed by row/column-independent operations,
    so the result is bit-identical to the full-catalog scores gathered at
    ``candidates``; replay models score the full catalog through their
    own batch path and gather (identical by construction).
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        return np.zeros(0)
    if isinstance(artifacts, CausalServingArtifacts):
        return _score_causer(artifacts, view, candidates)
    if isinstance(artifacts, GRUServingArtifacts):
        return _score_gru(artifacts, view, candidates)
    return _score_replay(artifacts, [view])[0][candidates]


def top_causal_edges(artifacts: CausalServingArtifacts,
                     events: Sequence[Sequence[int]], target_item: int,
                     top: int = 5) -> List[dict]:
    """Top causal (history item → target) edges for ``/v1/explain``.

    Runs the §V-E explanation protocol (:func:`repro.core.explain.
    explanation_breakdown`) on the session's events, flattened to singleton
    baskets as the protocol requires; ties broken by recency (later
    occurrences first, matching a stable sort on the reversed order).
    """
    from ..core.explain import explanation_breakdown
    from ..data.explanation import ExplanationSample

    history = tuple((int(item),) for basket in events for item in basket)
    if not history:
        return []
    sample = ExplanationSample(user_id=0, history=history,
                               target_item=int(target_item), cause_items=())
    breakdown = explanation_breakdown(artifacts.model, sample)
    order = np.argsort(-breakdown.combined, kind="stable")[:top]
    return [{"item": int(breakdown.history_items[idx]),
             "position": int(idx),
             "causal_effect": float(breakdown.causal_effect[idx]),
             "attention": float(breakdown.attention[idx]),
             "combined": float(breakdown.combined[idx])}
            for idx in order]
