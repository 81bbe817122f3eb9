"""Attention mechanisms used across the models.

* :class:`BilinearAttention` — the paper's ``sim(h_t, h_last) = h_t^T A h_last``
  scoring (eq. 10) used by Causer and NARM-style models.
* :class:`AdditiveAttention` — tanh-MLP scoring as in NARM's local encoder.
* :class:`MultiHeadSelfAttention` — causal self-attention for SASRec and
  MMSARec.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Linear, Module, Parameter
from .tensor import Tensor

#: Hidden width of the transformer feed-forward layer, in multiples of dim.
FFN_MULTIPLIER = 2


class BilinearAttention(Module):
    """Attention over timesteps scored by a bilinear form with a query vector.

    Given states ``H`` of shape ``(batch, time, dim)`` and a query ``q`` of
    shape ``(batch, dim)``, :meth:`raw_scores` gives ``h_t^T A q``; callers
    take ``alpha_t`` as its masked softmax over the valid (unmasked) steps.
    """

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        # Near-identity init makes the initial scores h_t·q, which already
        # favours recent steps (their states resemble the final state), so
        # attention starts recency-biased instead of uniform.
        self.proj = Parameter(np.eye(dim)
                              + init.xavier_uniform((dim, dim), rng) * 0.1)

    def raw_scores(self, states: Tensor, query: Tensor) -> Tensor:
        """Unnormalized scores ``h_t^T A q``: shape ``(batch, time)``."""
        projected = query @ self.proj.T                 # (batch, dim)
        batch, time = states.shape[0], states.shape[1]
        # Batched matvec: one BLAS call replaces the broadcast
        # multiply + reduce pair over the (batch, time, dim) block.
        scores = states @ projected.reshape(batch, -1, 1)
        return scores.reshape(batch, time)


class AdditiveAttention(Module):
    """NARM-style additive attention: ``v^T sigmoid(W1 h_t + W2 q)``."""

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.w_state = Linear(dim, dim, rng, bias=False)
        self.w_query = Linear(dim, dim, rng, bias=True)
        self.v = Parameter(init.xavier_uniform((dim,), rng))

    def forward(self, states: Tensor, query: Tensor,
                mask: np.ndarray) -> Tensor:
        batch = states.shape[0]
        mixed = self.w_state(states) + self.w_query(query).reshape(batch, 1, -1)
        scores = (mixed.sigmoid() * self.v).sum(axis=-1)
        return F.masked_softmax(scores, mask, axis=-1)


class MultiHeadSelfAttention(Module):
    """Multi-head causal self-attention (SASRec): step ``t`` attends to
    steps ``<= t`` only."""

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_q = Linear(dim, dim, rng, bias=False)
        self.w_k = Linear(dim, dim, rng, bias=False)
        self.w_v = Linear(dim, dim, rng, bias=False)
        self.w_o = Linear(dim, dim, rng, bias=False)

    def forward(self, x: Tensor,
                pad_mask: Optional[np.ndarray] = None) -> Tensor:
        batch, time, _ = x.shape
        q = self._split_heads(self.w_q(x))
        k = self._split_heads(self.w_k(x))
        v = self._split_heads(self.w_v(x))

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale   # (batch, heads, time, time)

        attend = np.tril(np.ones((time, time), dtype=bool))[None, None]
        if pad_mask is not None:
            pad = np.asarray(pad_mask, dtype=bool)
            attend = attend & pad[:, None, None, :]
        weights = F.masked_softmax(scores, attend, axis=-1)

        context = weights @ v                            # (batch, heads, time, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, time, self.dim)
        return self.w_o(merged)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, time, _ = x.shape
        return x.reshape(batch, time, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)


class TransformerBlock(Module):
    """Self-attention block with residual connections (pre-norm variant)."""

    def __init__(self, dim: int, num_heads: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        from .module import LayerNorm  # local import avoids a cycle at module load
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ffn1 = Linear(dim, dim * FFN_MULTIPLIER, rng)
        self.ffn2 = Linear(dim * FFN_MULTIPLIER, dim, rng)

    def forward(self, x: Tensor,
                pad_mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attn(self.norm1(x), pad_mask=pad_mask)
        x = x + attended
        x = x + self.ffn2(self.ffn1(self.norm2(x)).relu())
        return x
