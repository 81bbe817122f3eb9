"""SASRec baseline (Kang & McAuley, 2018).

Self-attentive sequential recommendation: item embeddings plus learned
positional embeddings pass through causally-masked transformer blocks; the
representation at the last valid position scores the catalog.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import PaddedBatch
from ..nn import Embedding, Linear, Tensor, TransformerBlock
from .base import NeuralSequentialRecommender, TrainConfig

#: Transformer blocks and attention heads of SASRec and MMSARec.
NUM_BLOCKS = 2
NUM_HEADS = 1


class SASRec(NeuralSequentialRecommender):
    """Two-block causal self-attention recommender."""

    name = "SASRec"

    def __init__(self, num_users: int, num_items: int,
                 config: TrainConfig = None) -> None:
        super().__init__(num_users, num_items, config, name=self.name)
        cfg = self.config
        self.position_embedding = Embedding(cfg.max_history + 1,
                                            cfg.embedding_dim, self.rng)
        self.blocks = []
        for i in range(NUM_BLOCKS):
            block = TransformerBlock(cfg.embedding_dim, NUM_HEADS, self.rng)
            self.register_module(f"block{i}", block)
            self.blocks.append(block)
        self.project = Linear(cfg.embedding_dim, cfg.embedding_dim, self.rng)

    def sequence_states(self, batch: PaddedBatch) -> Tensor:
        """Hidden state per position after the transformer stack."""
        inputs = self.basket_input_embeddings(batch)
        batch_size, time = inputs.shape[0], inputs.shape[1]
        positions = np.tile(np.arange(time), (batch_size, 1))
        positions = np.minimum(positions, self.config.max_history)
        x = inputs + self.position_embedding(positions)
        for block in self.blocks:
            x = block(x, pad_mask=batch.step_mask)
        return x

    def user_representation(self, batch: PaddedBatch) -> Tensor:
        states = self.sequence_states(batch)
        step_mask = batch.step_mask.astype(np.int64)
        last_idx = np.maximum(step_mask.sum(axis=1) - 1, 0)
        last = states[np.arange(states.shape[0]), last_idx, :]
        return self.project(last)
