"""Online scorers: turn session snapshots into full-catalog scores.

Two paths, chosen by the registry at artifact-build time:

* **incremental** — Causer (``filtering_mode="shared"``) and GRU4Rec reuse
  the recurrent states the session store advanced event-by-event; only the
  head runs per request, through the training kernels of
  :mod:`repro.nn.fused` (``basket_effects`` for eq. 9, ``causal_head``
  for eq. 10, its ``candidate_dots`` stage for GRU4Rec's output dot
  product, ``masked_softmax`` for attention).
* **replay** — every other model scores through its own
  ``score_samples`` batch path, which *is* the offline scorer, so online
  and offline agree trivially.

Both paths end in :func:`repro.models.base.rank_top_z`, so ranking and
tie-breaking match offline evaluation exactly.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Optional, Sequence

import numpy as np

from ..data.interactions import EvalSample
from ..nn.fused import basket_effects, causal_head, masked_softmax
from ..retrieval.towers import as_dense, dot_scores, take_rows
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


def _output_head(artifacts, candidates: Optional[np.ndarray]):
    """Output table and bias (dequantized row by row), or their rows."""
    if candidates is None:
        return as_dense(artifacts.output_table), artifacts.output_bias
    return (take_rows(artifacts.output_table, candidates),
            artifacts.output_bias[candidates])


def _score_causer(artifacts: CausalServingArtifacts, view: ScoreView,
                  candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """Eq. 10 logits from one session snapshot.

    With ``candidates`` (an id array) the result is **bit-identical** to
    the full-catalog pass gathered at those columns (the re-rank
    contract): :func:`repro.nn.fused.basket_effects` and
    :func:`repro.nn.fused.causal_head` are both row-independent.
    """
    out_table, out_bias = _output_head(artifacts, candidates)
    if view.steps == 0 or view.states is None:
        # Empty history: zero context, so only the popularity prior scores.
        return out_bias.copy()
    alpha = attention_weights(view.states, view.last,
                              artifacts.attention_proj)
    weights = alpha[:, None]         # (-causal): α alone, for every candidate
    if artifacts.use_causal:
        effect_cols = (artifacts.assignments if candidates is None
                       else artifacts.assignments[candidates])
        sizes = np.fromiter(map(len, view.events), dtype=np.int64)
        slots = np.arange(sizes.max()) < sizes[:, None]          # (T, S)
        items = np.zeros(slots.shape, dtype=np.int64)
        items[slots] = np.fromiter(chain.from_iterable(view.events), np.int64)
        effects, _ = basket_effects(artifacts.cause_rows, effect_cols,
                                    artifacts.epsilon, items, slots)
        weights = (effects * alpha).T
    return causal_head(weights, view.states, artifacts.adapt_weight,
                       out_table, out_bias)


def _score_gru(artifacts: GRUServingArtifacts, view: ScoreView,
               candidates: Optional[np.ndarray] = None) -> np.ndarray:
    """GRU4Rec head from one session snapshot: the two-tower dot product.

    :func:`repro.retrieval.towers.dot_scores` runs on the head's own
    candidate stage, so the ``candidates`` restriction is bit-identical to
    the gathered full pass.
    """
    return dot_scores(gru_projection(artifacts, view.last),
                      *_output_head(artifacts, candidates))


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

    The retrieval re-rank entry point, bit-identical to the full-catalog
    scores of :func:`score_views` gathered at ``candidates`` (replay
    models score the full catalog and gather).
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
