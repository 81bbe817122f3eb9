"""GRU4Rec baseline (Hidasi et al., 2015).

A GRU consumes the (basket-summed) item embeddings step by step; the final
hidden state, projected back to the embedding space, scores the catalog via
dot products with output item embeddings — trained with the sigmoid +
negative sampling objective the paper describes in §II-A.
"""

from __future__ import annotations

from ..data.batching import PaddedBatch
from ..nn import Linear, RecurrentLayer, Tensor
from .base import NeuralSequentialRecommender, TrainConfig


class GRU4Rec(NeuralSequentialRecommender):
    """Session/sequence GRU recommender."""

    name = "GRU4Rec"

    def __init__(self, num_users: int, num_items: int,
                 config: TrainConfig) -> None:
        super().__init__(num_users, num_items, config, name=self.name)
        cfg = self.config
        self.rnn = RecurrentLayer("gru", cfg.embedding_dim, cfg.hidden_dim,
                                  self.rng)
        self.project = Linear(cfg.hidden_dim, cfg.embedding_dim, self.rng)

    def user_representation(self, batch: PaddedBatch) -> Tensor:
        inputs = self.basket_input_embeddings(batch)
        _, last = self.rnn(inputs, step_mask=batch.step_mask)
        return self.project(last)
