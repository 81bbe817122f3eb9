"""NCF / NeuMF baseline (He et al., 2017).

Combines generalized matrix factorization (elementwise user-item product)
with an MLP over concatenated embeddings; the two branches are fused by a
final linear layer producing an interaction logit.  Trained pointwise with
BCE and negative sampling.  Non-sequential, like BPR.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..data import EvalSample, SequenceCorpus
from ..nn import Embedding, Linear, Module, Tensor, concat, losses, make_optimizer
from .base import FitResult, Recommender, TrainConfig


class NCF(Recommender, Module):
    """Neural collaborative filtering (GMF + MLP fusion)."""

    name = "NCF"

    def __init__(self, num_users: int, num_items: int,
                 config: TrainConfig) -> None:
        Module.__init__(self)
        self.config = config
        self.num_users = num_users
        self.num_items = num_items
        self.rng = np.random.default_rng(self.config.seed)
        dim = self.config.embedding_dim
        self.user_gmf = Embedding(max(num_users, 1), dim, self.rng)
        self.item_gmf = Embedding(num_items + 1, dim, self.rng, padding_idx=0)
        self.user_mlp = Embedding(max(num_users, 1), dim, self.rng)
        self.item_mlp = Embedding(num_items + 1, dim, self.rng, padding_idx=0)
        self.fc1 = Linear(2 * dim, dim, self.rng)
        self.fc2 = Linear(dim, dim // 2, self.rng)
        self.fuse = Linear(dim + dim // 2, 1, self.rng)

    def interaction_logits(self, users: np.ndarray,
                           items: np.ndarray) -> Tensor:
        """Logit for each (user, item) pair; inputs are equal-shape arrays."""
        gmf = self.user_gmf(users) * self.item_gmf(items)
        mlp_in = concat([self.user_mlp(users), self.item_mlp(items)], axis=-1)
        hidden = self.fc2(self.fc1(mlp_in).relu()).relu()
        fused = self.fuse(concat([gmf, hidden], axis=-1))
        return fused.reshape(*users.shape)

    def fit(self, corpus: SequenceCorpus) -> FitResult:
        cfg = self.config
        pairs = np.asarray([(seq.user_id, item) for seq in corpus
                            for item in seq.items()], dtype=np.int64)
        if len(pairs) == 0:
            raise ValueError("NCF: empty training corpus")
        optimizer = make_optimizer(cfg.optimizer, self.parameters(),
                                   lr=cfg.learning_rate,
                                   weight_decay=cfg.weight_decay)
        result = FitResult()
        n_neg = cfg.num_negatives
        for _ in range(cfg.num_epochs):
            order = self.rng.permutation(len(pairs))
            total, count = 0.0, 0
            for start in range(0, len(pairs), cfg.batch_size):
                chunk = pairs[order[start:start + cfg.batch_size]]
                users = np.repeat(chunk[:, 0], n_neg + 1)
                items = np.empty(len(chunk) * (n_neg + 1), dtype=np.int64)
                targets = np.zeros(len(chunk) * (n_neg + 1))
                items[::n_neg + 1] = chunk[:, 1]
                targets[::n_neg + 1] = 1.0
                negatives = self.rng.integers(1, self.num_items + 1,
                                              size=(len(chunk), n_neg))
                for j in range(n_neg):
                    items[j + 1::n_neg + 1] = negatives[:, j]

                optimizer.zero_grad()
                logits = self.interaction_logits(users, items)
                loss = losses.bce_with_logits(logits, targets)
                loss.backward()
                optimizer.clip_grad_norm(cfg.grad_clip)
                optimizer.step()
                self.item_gmf.zero_padding_row()
                self.item_mlp.zero_padding_row()
                total += loss.item()
                count += 1
            result.epoch_losses.append(total / max(count, 1))
        return result

    def score_samples(self, samples: Sequence[EvalSample]) -> np.ndarray:
        self.eval()
        scores = np.zeros((len(samples), self.num_items + 1))
        all_items = np.arange(1, self.num_items + 1, dtype=np.int64)
        for row, sample in enumerate(samples):
            users = np.full(self.num_items, sample.user_id, dtype=np.int64)
            logits = self.interaction_logits(users, all_items)
            scores[row, 1:] = logits.data
        return scores
