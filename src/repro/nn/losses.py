"""Loss functions for recommendation training.

All losses return scalar tensors; targets and masks are constant numpy
arrays (no gradient flows into them).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fused import fused_bce_with_logits
from .tensor import Tensor


def bce_with_logits(logits: Tensor, targets: np.ndarray,
                    mask: Optional[np.ndarray] = None) -> Tensor:
    """Numerically stable binary cross-entropy on raw logits.

    Uses the identity ``BCE = max(x, 0) - x*y + log(1 + exp(-|x|))`` which is
    the paper's eq. (11) objective applied with sigmoid scoring and negative
    sampling.  ``mask`` selects which entries participate (padded positions
    drop out); the loss is averaged over participating entries.

    Fused: forward and backward run as one graph node
    (:func:`repro.nn.fused.fused_bce_with_logits`).
    """
    return fused_bce_with_logits(logits, targets, mask=mask)


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian personalized ranking loss: ``-mean log sigmoid(pos - neg)``."""
    diff = pos_scores - neg_scores
    # The sigmoid op is clipped-stable at extreme inputs, and this form has
    # the correct gradient sigma(-d) everywhere (a relu/abs composition of
    # softplus has a dead subgradient exactly at d = 0, where training starts).
    probability = diff.sigmoid().clip(1e-15, 1.0)
    return -probability.log().mean()
