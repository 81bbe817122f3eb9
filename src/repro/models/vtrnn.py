"""VTRNN baseline (Cui et al., 2016).

A recurrent recommender whose inputs fuse side information: each step's
input is the id embedding plus a linear projection of the item's raw
features (visual/textual in the original paper; our synthetic GloVe-like or
GPS features here).  The paper's Table IV feeds it the same raw features
that Causer's encoder consumes.
"""

from __future__ import annotations

import numpy as np

from ..data.batching import PaddedBatch
from ..nn import Linear, RecurrentLayer, Tensor
from .base import NeuralSequentialRecommender, TrainConfig


class VTRNN(NeuralSequentialRecommender):
    """GRU with side-information-fused inputs."""

    name = "VTRNN"

    def __init__(self, num_users: int, num_items: int,
                 item_features: np.ndarray, config: TrainConfig) -> None:
        super().__init__(num_users, num_items, config, name=self.name)
        cfg = self.config
        features = np.asarray(item_features, dtype=np.float64)
        if features.shape[0] != num_items + 1:
            raise ValueError(
                f"features must cover the padded vocabulary: expected "
                f"{num_items + 1} rows, got {features.shape[0]}")
        self.item_features = features
        self.feature_proj = Linear(features.shape[1], cfg.embedding_dim,
                                   self.rng)
        self.rnn = RecurrentLayer("gru", cfg.embedding_dim, cfg.hidden_dim,
                                  self.rng)
        self.project = Linear(cfg.hidden_dim, cfg.embedding_dim, self.rng)

    def fused_input_embeddings(self, batch: PaddedBatch) -> Tensor:
        """Id embedding + projected raw features, summed over the basket."""
        id_part = self.item_embedding(batch.items)           # (B, T, S, d)
        raw = Tensor(self.item_features[batch.items])        # (B, T, S, f)
        feat_part = self.feature_proj(raw)
        mask = Tensor(batch.basket_mask[..., None])
        return ((id_part + feat_part) * mask).sum(axis=2)

    def user_representation(self, batch: PaddedBatch) -> Tensor:
        inputs = self.fused_input_embeddings(batch)
        _, last = self.rnn(inputs, step_mask=batch.step_mask)
        return self.project(last)
