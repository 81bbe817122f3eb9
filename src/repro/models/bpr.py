"""BPR-MF baseline (Rendle et al., 2012).

Matrix factorization trained with the Bayesian personalized ranking loss on
(user, positive, negative) triples.  Non-sequential: a user's score for an
item ignores interaction order, which is exactly why it trails the
sequential models in Table IV.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..data import EvalSample, SequenceCorpus
from ..nn import Embedding, Module, losses, make_optimizer
from .base import FitResult, Recommender, TrainConfig


class BPR(Recommender, Module):
    """Matrix factorization with pairwise ranking loss."""

    name = "BPR"

    def __init__(self, num_users: int, num_items: int,
                 config: TrainConfig) -> None:
        Module.__init__(self)
        self.config = config
        self.num_users = num_users
        self.num_items = num_items
        self.rng = np.random.default_rng(self.config.seed)
        dim = self.config.embedding_dim
        self.user_embedding = Embedding(max(num_users, 1), dim, self.rng)
        self.item_embedding = Embedding(num_items + 1, dim, self.rng,
                                        padding_idx=0)

    def _triples(self, corpus: SequenceCorpus) -> np.ndarray:
        pairs = [(seq.user_id, item)
                 for seq in corpus for item in seq.items()]
        return np.asarray(pairs, dtype=np.int64)

    def fit(self, corpus: SequenceCorpus) -> FitResult:
        cfg = self.config
        pairs = self._triples(corpus)
        if len(pairs) == 0:
            raise ValueError("BPR: empty training corpus")
        optimizer = make_optimizer(cfg.optimizer, self.parameters(),
                                   lr=cfg.learning_rate,
                                   weight_decay=cfg.weight_decay)
        result = FitResult()
        positive_sets = {seq.user_id: set(seq.items()) for seq in corpus}
        for _ in range(cfg.num_epochs):
            order = self.rng.permutation(len(pairs))
            total, count = 0.0, 0
            for start in range(0, len(pairs), cfg.batch_size):
                chunk = pairs[order[start:start + cfg.batch_size]]
                users, positives = chunk[:, 0], chunk[:, 1]
                negatives = self.rng.integers(1, self.num_items + 1,
                                              size=len(chunk))
                # Rejection pass: avoid sampling the user's own positives.
                for i, (user, neg) in enumerate(zip(users, negatives)):
                    attempts = 0
                    while neg in positive_sets[user] and attempts < 10:
                        neg = int(self.rng.integers(1, self.num_items + 1))
                        attempts += 1
                    negatives[i] = neg

                optimizer.zero_grad()
                u = self.user_embedding(users)
                pos = self.item_embedding(positives)
                neg = self.item_embedding(negatives)
                pos_scores = (u * pos).sum(axis=-1)
                neg_scores = (u * neg).sum(axis=-1)
                loss = losses.bpr_loss(pos_scores, neg_scores)
                loss.backward()
                optimizer.clip_grad_norm(cfg.grad_clip)
                optimizer.step()
                self.item_embedding.zero_padding_row()
                total += loss.item()
                count += 1
            result.epoch_losses.append(total / max(count, 1))
        return result

    def score_samples(self, samples: Sequence[EvalSample]) -> np.ndarray:
        users = np.asarray([s.user_id for s in samples], dtype=np.int64)
        user_vectors = self.user_embedding.weight.data[users]
        return user_vectors @ self.item_embedding.weight.data.T
