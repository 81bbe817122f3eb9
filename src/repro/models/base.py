"""Common recommender interfaces and the shared neural training loop.

Every model in :mod:`repro.models` (and the Causer core) implements the
:class:`Recommender` protocol:

* ``fit(train_corpus)`` — learn parameters from a training corpus,
* ``score_samples(samples)`` — full-catalog scores, shape ``(B, V + 1)``
  (column 0 is the padding item and is masked to ``-inf``),
* ``recommend(samples, z)`` — top-``z`` ranked item lists.

Sequential neural models share :class:`NeuralSequentialRecommender`: they
only define how a batch of histories becomes a user representation
(``user_representation``), while this base class provides the paper's
sigmoid + negative-sampling objective (eq. 11's BCE form), mini-batching,
the Adam loop, and full-catalog scoring through output item embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data import EvalSample, SequenceCorpus, training_prefixes
from ..data.batching import (PaddedBatch, iterate_batches, pad_samples,
                             sample_negatives)
from ..nn import Embedding, Module, Parameter, Tensor, losses, make_optimizer
from ..nn.fused import fused_basket_pool


@dataclass
class TrainConfig:
    """Hyper-parameters shared by the neural recommenders.

    Defaults are scaled for CPU experiments; Table III lists the paper's
    tuning ranges (batch size {32..1024}, lr {1e-5..1e-1}, embedding size
    {32..256}).
    """

    embedding_dim: int = 32
    hidden_dim: int = 32
    learning_rate: float = 0.01
    num_epochs: int = 5
    batch_size: int = 128
    num_negatives: int = 4
    max_history: int = 20
    weight_decay: float = 0.0
    grad_clip: float = 5.0
    optimizer: str = "adam"
    seed: int = 0
    verbose: bool = False


@dataclass
class FitResult:
    """Training trace returned by ``fit``."""

    epoch_losses: List[float] = field(default_factory=list)
    extra: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def rank_top_z(scores: np.ndarray, z: int = 5) -> List[List[int]]:
    """Top-``z`` item ids per row of a ``(B, V + 1)`` score matrix.

    Column 0 (the padding item) is masked to ``-inf``.  Shared by the
    offline :class:`Recommender` protocol and the online serving scorer so
    both rank (and break ties) identically.  Mutates ``scores``' padding
    column; pass a copy if the input must survive.
    """
    scores[:, 0] = -np.inf  # never recommend the padding item
    top = np.argpartition(-scores, kth=min(z, scores.shape[1] - 1),
                          axis=1)[:, :z]
    # Order each row's top-z slice in one batched argsort instead of a
    # Python loop of per-row sorts.
    top_scores = np.take_along_axis(scores, top, axis=1)
    order = np.argsort(-top_scores, axis=1, kind="stable")
    ranked = np.take_along_axis(top, order, axis=1)
    return [list(map(int, row)) for row in ranked]


class Recommender:
    """Minimal interface all models satisfy."""

    name: str = "recommender"

    def fit(self, corpus: SequenceCorpus) -> FitResult:
        raise NotImplementedError

    def score_samples(self, samples: Sequence[EvalSample]) -> np.ndarray:
        raise NotImplementedError

    def recommend(self, samples: Sequence[EvalSample], z: int = 5
                  ) -> List[List[int]]:
        """Rank the catalog for each sample and return the top-``z`` items."""
        return rank_top_z(self.score_samples(samples), z)


class NeuralSequentialRecommender(Recommender, Module):
    """Base class implementing the shared training/scoring machinery.

    Subclasses must implement :meth:`user_representation` mapping a
    :class:`PaddedBatch` to a ``(B, embedding_dim)`` tensor; everything else
    (candidate scoring, the BCE objective, full-catalog ranking) lives here.
    """

    def __init__(self, num_users: int, num_items: int,
                 config: Optional[TrainConfig] = None,
                 name: str = "neural") -> None:
        Module.__init__(self)
        self.name = name
        self.config = config or TrainConfig()
        self.num_users = num_users
        self.num_items = num_items
        self.rng = np.random.default_rng(self.config.seed)
        dim = self.config.embedding_dim
        self.item_embedding = Embedding(num_items + 1, dim, self.rng,
                                        padding_idx=0)
        self.output_embedding = Embedding(num_items + 1, dim, self.rng,
                                          padding_idx=0)
        self.user_embedding = Embedding(max(num_users, 1), dim, self.rng)
        # Per-item output bias: a popularity prior for the sigmoid scorer.
        self.output_bias = Parameter(np.zeros(num_items + 1))

    # -- pieces supplied by subclasses -----------------------------------
    def user_representation(self, batch: PaddedBatch) -> Tensor:
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------
    def basket_input_embeddings(self, batch: PaddedBatch) -> Tensor:
        """Sum of member-item embeddings per step: ``(B, T, dim)``.

        Realises the paper's "multiply the multi-hot vector with a parameter
        matrix" treatment of interaction sets.
        """
        return fused_basket_pool(self.item_embedding.weight, batch.items,
                                 batch.basket_mask)

    def candidate_scores(self, representation: Tensor,
                         candidates: np.ndarray) -> Tensor:
        """Dot-product logits plus item bias for explicit candidates: ``(B, C)``."""
        cand_emb = self.output_embedding(candidates)         # (B, C, d)
        dots = (cand_emb * representation.reshape(
            representation.shape[0], 1, -1)).sum(axis=-1)
        return dots + self.output_bias[candidates]

    def training_loss(self, batch: PaddedBatch) -> Tensor:
        """BCE over positives and sampled negatives (eq. 11's data term)."""
        representation = self.user_representation(batch)
        b, p = batch.positives.shape
        n = batch.negatives.shape[-1]
        candidates = np.concatenate(
            [batch.positives[:, :, None], batch.negatives], axis=2
        ).reshape(b, p * (n + 1))
        logits = self.candidate_scores(representation, candidates)
        targets = np.zeros((b, p, n + 1))
        targets[:, :, 0] = 1.0
        mask = np.repeat(batch.positive_mask[:, :, None], n + 1, axis=2)
        return losses.bce_with_logits(logits, targets.reshape(b, -1),
                                      mask=mask.reshape(b, -1))

    def fit(self, corpus: SequenceCorpus) -> FitResult:
        samples = training_prefixes(corpus, max_history=self.config.max_history)
        return self.fit_samples(samples)

    def fit_samples(self, samples: Sequence[EvalSample]) -> FitResult:
        """Train on explicit (history, target) samples."""
        if not samples:
            raise ValueError(f"{self.name}: no training samples")
        cfg = self.config
        optimizer = make_optimizer(cfg.optimizer, self.parameters(),
                                   lr=cfg.learning_rate,
                                   weight_decay=cfg.weight_decay)
        result = FitResult()
        self.train()
        for epoch in range(cfg.num_epochs):
            total, count = 0.0, 0
            for batch in iterate_batches(samples, cfg.batch_size, self.rng,
                                         max_history=cfg.max_history):
                sample_negatives(batch, self.num_items, cfg.num_negatives,
                                 self.rng)
                optimizer.zero_grad()
                loss = self.training_loss(batch)
                loss.backward()
                optimizer.clip_grad_norm(cfg.grad_clip)
                optimizer.step()
                self._after_step()
                total += loss.item()
                count += 1
            mean_loss = total / max(count, 1)
            result.epoch_losses.append(mean_loss)
            if cfg.verbose:
                print(f"[{self.name}] epoch {epoch + 1}/{cfg.num_epochs} "
                      f"loss={mean_loss:.4f}")
        # The last step's gradients are dead weight in a fitted model
        # (and in every deepcopy or pickle of it).
        self.zero_grad()
        self.eval()
        return result

    def _after_step(self) -> None:
        """Hook run after each optimizer step (padding-row upkeep)."""
        self.item_embedding.zero_padding_row()
        self.output_embedding.zero_padding_row()

    def score_samples(self, samples: Sequence[EvalSample]) -> np.ndarray:
        """Full-catalog scores via the output embedding table."""
        self.eval()
        batch = pad_samples(samples, max_history=self.config.max_history)
        from ..nn import no_grad
        with no_grad(self):
            representation = self.user_representation(batch)
        scores = representation.data @ self.output_embedding.weight.data.T
        return scores + self.output_bias.data[None, :]


class PopularityRecommender(Recommender):
    """Non-personalized most-popular baseline (sanity floor)."""

    name = "Pop"

    def __init__(self, num_items: int) -> None:
        self.num_items = num_items
        self._scores = np.zeros(num_items + 1)

    def fit(self, corpus: SequenceCorpus) -> FitResult:
        counts = corpus.item_popularity().astype(np.float64)
        counts[0] = 0.0
        self._scores = counts
        return FitResult(epoch_losses=[0.0])

    def score_samples(self, samples: Sequence[EvalSample]) -> np.ndarray:
        return np.tile(self._scores, (len(samples), 1))
