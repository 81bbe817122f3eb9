"""NARM baseline (Li et al., 2017).

Neural attentive session-based recommendation: a GRU encodes the history;
the *global* encoder is the final hidden state, the *local* encoder is an
additive-attention-weighted sum of all hidden states queried by the final
state.  Their concatenation, compressed by a linear layer, is the user
representation.
"""

from __future__ import annotations

from ..data.batching import PaddedBatch
from ..nn import AdditiveAttention, Linear, RecurrentLayer, Tensor, concat
from .base import NeuralSequentialRecommender, TrainConfig


class NARM(NeuralSequentialRecommender):
    """GRU with global + attentive local encoders."""

    name = "NARM"

    def __init__(self, num_users: int, num_items: int,
                 config: TrainConfig = None) -> None:
        super().__init__(num_users, num_items, config, name=self.name)
        cfg = self.config
        self.rnn = RecurrentLayer("gru", cfg.embedding_dim, cfg.hidden_dim,
                                  self.rng)
        self.attention = AdditiveAttention(cfg.hidden_dim, self.rng)
        self.compress = Linear(2 * cfg.hidden_dim, cfg.embedding_dim, self.rng)

    def user_representation(self, batch: PaddedBatch) -> Tensor:
        inputs = self.basket_input_embeddings(batch)
        states, last = self.rnn(inputs, step_mask=batch.step_mask)
        weights = self.attention(states, last, mask=batch.step_mask)
        local = (states * weights.reshape(weights.shape[0], -1, 1)).sum(axis=1)
        return self.compress(concat([last, local], axis=-1))
