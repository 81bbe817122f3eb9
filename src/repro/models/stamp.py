"""STAMP baseline (Liu et al., 2018).

Short-Term Attention/Memory Priority model: attention over the history item
embeddings (not RNN states) with a query combining the last item and the
session mean; two MLPs produce a general-interest vector ``h_s`` and a
short-term vector ``h_t`` whose elementwise product forms the trilinear
scoring representation.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import PaddedBatch
from ..nn import Linear, Parameter, Tensor, init
from ..nn import functional as F
from .base import NeuralSequentialRecommender, TrainConfig


class STAMP(NeuralSequentialRecommender):
    """Attention over embeddings with last-item (short-term) priority."""

    name = "STAMP"

    def __init__(self, num_users: int, num_items: int,
                 config: TrainConfig) -> None:
        super().__init__(num_users, num_items, config, name=self.name)
        cfg = self.config
        dim = cfg.embedding_dim
        self.w1 = Linear(dim, dim, self.rng, bias=False)
        self.w2 = Linear(dim, dim, self.rng, bias=False)
        self.w3 = Linear(dim, dim, self.rng, bias=True)
        self.attn_v = Parameter(init.xavier_uniform((dim,), self.rng))
        self.mlp_s = Linear(dim, dim, self.rng)
        self.mlp_t = Linear(dim, dim, self.rng)

    def user_representation(self, batch: PaddedBatch) -> Tensor:
        embeddings = self.basket_input_embeddings(batch)     # (B, T, d)
        step_mask = batch.step_mask.astype(np.float64)
        counts = np.maximum(step_mask.sum(axis=1, keepdims=True), 1.0)
        mask_t = Tensor(step_mask[..., None])
        session_mean = (embeddings * mask_t).sum(axis=1) * Tensor(1.0 / counts)

        batch_size = embeddings.shape[0]
        last_idx = np.maximum(step_mask.sum(axis=1).astype(np.int64) - 1, 0)
        last_item = embeddings[np.arange(batch_size), last_idx, :]

        mixed = (self.w1(embeddings)
                 + self.w2(last_item).reshape(batch_size, 1, -1)
                 + self.w3(session_mean).reshape(batch_size, 1, -1))
        scores = (mixed.sigmoid() * self.attn_v).sum(axis=-1)
        weights = F.masked_softmax(scores, batch.step_mask, axis=-1)
        attended = (embeddings * weights.reshape(batch_size, -1, 1)).sum(axis=1)

        h_s = self.mlp_s(attended).tanh()
        h_t = self.mlp_t(last_item).tanh()
        return h_s * h_t
