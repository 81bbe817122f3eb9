"""Recommendation explanations (the paper's §V-E protocol).

For a test sample with singleton baskets, each history item receives an
explanation score for the target item:

* full Causer:      ``Ŵ_{v_t b} · α_t``  (global causal effect × local attention)
* Causer (-att):    ``Ŵ_{v_t b}``        (causal effect only)
* Causer (-causal): ``α_t``              (attention only — concurrence-based)

The top-scored history items are the model's explanation; Fig. 7 compares
them with the labeled true causes, Fig. 8 inspects individual cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from ..data.batching import pad_samples
from ..data.explanation import ExplanationSample
from ..data.interactions import EvalSample
from ..nn.fused import basket_effects
from .causer import Causer


@dataclass
class ExplanationBreakdown:
    """Per-history-step scores for one sample, by mechanism."""

    history_items: List[int]
    causal_effect: np.ndarray   # Ŵ_{v_t b} per step
    attention: np.ndarray       # α_t per step
    combined: np.ndarray        # product, the full model's score


def explanation_breakdown(model: Causer,
                          sample: ExplanationSample) -> ExplanationBreakdown:
    """Compute Ŵ, α and their product for every history step of ``sample``.

    Requires singleton baskets (the paper's labeling filter) so steps and
    history items align one-to-one.
    """
    if any(len(basket) != 1 for basket in sample.history):
        raise ValueError("explanation protocol requires singleton baskets")
    model.eval()
    eval_sample = EvalSample(user_id=sample.user_id, history=sample.history,
                             target=(sample.target_item,))
    batch = pad_samples([eval_sample])
    item_embeddings = model.clusters.encode()
    states, last = model._history_states(batch, item_embeddings)
    alpha = model._attention_weights(states, last, batch.step_mask).data[0]
    cause_rows, assignments = model.causal_factors()
    # Explanations rank history items by the *continuous* causal strength
    # W_{v_t b} (eq. 9), ungated at ε = -inf.  The ε gate is a
    # recommendation-time filter; here it would zero every score whenever
    # the tuned ε is aggressive and make the ranking degenerate.
    effects = basket_effects(cause_rows, assignments[[sample.target_item]],
                             -np.inf, batch.items,
                             batch.basket_mask > 0)[0][0, 0]
    return ExplanationBreakdown(
        history_items=[basket[0] for basket in sample.history],
        causal_effect=effects, attention=alpha, combined=effects * alpha)


def make_explainer(model: Causer, mode: str = "full"
                   ) -> Callable[[ExplanationSample], np.ndarray]:
    """Explainer function for :func:`repro.eval.evaluate_explanations`.

    ``mode``: ``"full"`` (Ŵ·α), ``"causal"`` (Ŵ only — the (-att) variant's
    score), or ``"attention"`` (α only — the (-causal) variant's score).
    """
    if mode not in ("full", "causal", "attention"):
        raise ValueError(f"unknown explanation mode {mode!r}")

    def explainer(sample: ExplanationSample) -> np.ndarray:
        breakdown = explanation_breakdown(model, sample)
        if mode == "full":
            return breakdown.combined
        if mode == "causal":
            return breakdown.causal_effect
        return breakdown.attention

    return explainer


def format_case_study(model: Causer, sample: ExplanationSample) -> str:
    """Human-readable Fig. 8-style case: history, target, per-model picks."""
    breakdown = explanation_breakdown(model, sample)

    def label(item: int) -> str:
        return f"item#{item}"

    lines = [f"target: {label(sample.target_item)}",
             f"true causes: {[label(i) for i in sample.cause_items]}"]
    order = np.argsort(-breakdown.combined)
    lines.append("history (ranked by Causer explanation score):")
    for idx in order:
        item = breakdown.history_items[idx]
        lines.append(
            f"  {label(item):>12s}  W_hat={breakdown.causal_effect[idx]:.3f} "
            f"alpha={breakdown.attention[idx]:.3f} "
            f"combined={breakdown.combined[idx]:.3f}"
            + ("   <-- true cause" if item in sample.cause_items else ""))
    return "\n".join(lines)
