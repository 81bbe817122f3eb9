"""MMSARec baseline (Han et al., 2020).

Self-attentive recommender that encodes multi-modal side information into
the architecture: id embeddings and projected raw-feature embeddings are
fused by a learned gate before entering the causal self-attention stack,
so the attention layers see modality-aware item representations.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import PaddedBatch
from ..nn import Embedding, Linear, Tensor, TransformerBlock, concat
from .base import NeuralSequentialRecommender, TrainConfig
from .sasrec import NUM_BLOCKS, NUM_HEADS


class MMSARec(NeuralSequentialRecommender):
    """SASRec with gated multi-modal item encoding."""

    name = "MMSARec"

    def __init__(self, num_users: int, num_items: int,
                 item_features: np.ndarray,
                 config: TrainConfig) -> None:
        super().__init__(num_users, num_items, config, name=self.name)
        cfg = self.config
        features = np.asarray(item_features, dtype=np.float64)
        if features.shape[0] != num_items + 1:
            raise ValueError(
                f"features must cover the padded vocabulary: expected "
                f"{num_items + 1} rows, got {features.shape[0]}")
        self.item_features = features
        dim = cfg.embedding_dim
        self.feature_proj = Linear(features.shape[1], dim, self.rng)
        self.gate = Linear(2 * dim, dim, self.rng)
        self.position_embedding = Embedding(cfg.max_history + 1, dim, self.rng)
        self.blocks = []
        for i in range(NUM_BLOCKS):
            block = TransformerBlock(dim, NUM_HEADS, self.rng)
            self.register_module(f"block{i}", block)
            self.blocks.append(block)
        self.project = Linear(dim, dim, self.rng)

    def fused_step_embeddings(self, batch: PaddedBatch) -> Tensor:
        """Gated fusion of id and feature views, summed over the basket."""
        id_part = self.item_embedding(batch.items)           # (B, T, S, d)
        raw = Tensor(self.item_features[batch.items])
        feat_part = self.feature_proj(raw)
        gate = self.gate(concat([id_part, feat_part], axis=-1)).sigmoid()
        fused = gate * id_part + (1.0 - gate) * feat_part
        mask = Tensor(batch.basket_mask[..., None])
        return (fused * mask).sum(axis=2)

    def user_representation(self, batch: PaddedBatch) -> Tensor:
        inputs = self.fused_step_embeddings(batch)
        batch_size, time = inputs.shape[0], inputs.shape[1]
        positions = np.tile(np.arange(time), (batch_size, 1))
        positions = np.minimum(positions, self.config.max_history)
        x = inputs + self.position_embedding(positions)
        for block in self.blocks:
            x = block(x, pad_mask=batch.step_mask)
        step_mask = batch.step_mask.astype(np.int64)
        last_idx = np.maximum(step_mask.sum(axis=1) - 1, 0)
        last = x[np.arange(batch_size), last_idx, :]
        return self.project(last)
