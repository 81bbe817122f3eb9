"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

These are composite, numerically-careful operations used by layers and
models: stable softmax, its masked variant for padded sequences, embedding
lookup and the affine map.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .fused import fused_masked_softmax
from .tensor import Tensor


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    # gradlint: disable-next=GL002 — the max shift is deliberately detached:
    # softmax is shift-invariant, so the constant's gradient cancels exactly.
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that assigns zero probability where ``mask`` is False.

    ``mask`` is a constant boolean array broadcastable to ``x``.  Rows whose
    mask is entirely False produce all-zero probabilities instead of NaNs,
    which is the behaviour sequence models want for fully-padded rows.

    Fused: a single graph node with the analytic ``y * (g - sum(g * y))``
    backward (:func:`repro.nn.fused.fused_masked_softmax`).
    """
    return fused_masked_softmax(x, mask, axis=axis)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` by an integer index array.

    Gradients are scatter-added back into the embedding matrix, matching
    ``torch.nn.functional.embedding``.
    """
    return weight[np.asarray(indices, dtype=np.int64)]


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch layout)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out
