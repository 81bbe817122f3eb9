"""Differentiable item clustering (the paper's eqs. 6–8).

Items are represented as mixtures of ``K`` latent clusters via an
encoder/decoder pair:

* **Encoder** (eq. 6): ``v* = V2 σ(V1 ṽ + b1) + b2`` maps raw features to a
  semantic embedding.
* **Clustering loss** (eq. 7): ``Σ_v ||v* − Σ_k v̄_k m_k||²`` pulls every
  embedding onto a convex combination of cluster centers; the assignment
  ``v̄ = softmax(a / η)`` relaxes the simplex constraint with free logits
  ``a`` and temperature ``η``.
* **Decoder / reconstruction loss** (eq. 8): ``Σ_v ||v̂ − ṽ||²`` with
  ``v̂ = V4 σ(V3 v* + b3) + b4`` anchors ``v*`` to the item's identity.

The encoder output doubles as the input item embedding of the sequential
model ``g``, exactly as §III-B prescribes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn import Linear, Module, Parameter, Tensor
from ..nn import functional as F
from ..nn.fused import fused_perceptron


class ItemClusterModule(Module):
    """Encoder/decoder item clustering with soft assignments.

    Parameters
    ----------
    raw_features:
        ``(num_items + 1, d)`` constant matrix of item raw features (row 0
        is the padding item).
    num_clusters:
        K, the latent cluster count.
    embedding_dim:
        d2, the dimension of ``v*`` (also the sequential model's input dim).
    hidden_dim:
        d1, the encoder/decoder hidden width.
    eta:
        Softmax temperature; ``η → 0`` hardens assignments to one-hot.
    """

    def __init__(self, raw_features: np.ndarray, num_clusters: int,
                 embedding_dim: int, hidden_dim: int, eta: float,
                 rng: np.random.Generator) -> None:
        super().__init__()
        features = np.asarray(raw_features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("raw_features must be a 2-d matrix")
        self.raw_features = features
        self.num_items_padded, self.feature_dim = features.shape
        self.num_clusters = num_clusters
        self.eta = eta
        self.encoder_in = Linear(self.feature_dim, hidden_dim, rng)   # V1, b1
        self.encoder_out = Linear(hidden_dim, embedding_dim, rng)     # V2, b2
        self.decoder_in = Linear(embedding_dim, hidden_dim, rng)      # V3, b3
        self.decoder_out = Linear(hidden_dim, self.feature_dim, rng)  # V4, b4
        self.centers = Parameter(
            rng.normal(0.0, 0.1, size=(num_clusters, embedding_dim)))  # m_k
        self.assignment_logits = Parameter(
            self._seed_assignment_logits(rng))                         # a

    def _seed_assignment_logits(self, rng: np.random.Generator) -> np.ndarray:
        """Feature-space seeding of the assignment logits (DEC-style).

        K random items act as provisional centroids; every item's logits
        favour its nearest centroid in raw-feature space.  This gives the
        causal graph structured (near-hard) assignments from the first
        epoch — with a flat random init the soft assignments are uniform,
        every item-level relation collapses to the mean of ``W^c``, and the
        ε gate of eq. 10 becomes all-or-nothing.
        """
        logits = rng.normal(0.0, 0.1, size=(self.num_items_padded,
                                            self.num_clusters))
        num_real = self.num_items_padded - 1
        if num_real >= self.num_clusters:
            # Farthest-point (k-means++-style) seeding: random inits often
            # drop a true cluster and merge two others, which garbles the
            # causal graph downstream.
            first = int(rng.integers(1, num_real + 1))
            seeds = [first]
            dist = np.linalg.norm(self.raw_features[1:]
                                  - self.raw_features[first], axis=1)
            while len(seeds) < self.num_clusters:
                nxt = int(np.argmax(dist)) + 1
                seeds.append(nxt)
                dist = np.minimum(dist, np.linalg.norm(
                    self.raw_features[1:] - self.raw_features[nxt], axis=1))
            centroids = self.raw_features[seeds].copy()       # (K, d)
            nearest = np.zeros(self.num_items_padded, dtype=np.int64)
            for _ in range(10):  # a few Lloyd iterations suffice for seeding
                distances = np.linalg.norm(
                    self.raw_features[:, None, :] - centroids[None, :, :],
                    axis=-1)
                nearest = np.argmin(distances, axis=1)
                for k in range(self.num_clusters):
                    members = self.raw_features[1:][nearest[1:] == k]
                    if len(members):
                        centroids[k] = members.mean(axis=0)
            logits[np.arange(self.num_items_padded), nearest] += 2.0
        return logits

    # ------------------------------------------------------------------
    def encode(self) -> Tensor:
        """All item embeddings ``v*``, shape ``(num_items + 1, d2)``."""
        return fused_perceptron(Tensor(self.raw_features),
                                self.encoder_in.weight, self.encoder_in.bias,
                                self.encoder_out.weight, self.encoder_out.bias)

    def decode(self, embeddings: Tensor) -> Tensor:
        """Reconstruct raw features from ``v*``."""
        return fused_perceptron(embeddings,
                                self.decoder_in.weight, self.decoder_in.bias,
                                self.decoder_out.weight, self.decoder_out.bias)

    def assignments(self) -> Tensor:
        """Soft cluster-assignment matrix ``v̄``: ``(num_items + 1, K)``.

        Rows sum to one; temperature ``η`` controls hardness.
        """
        return F.softmax(self.assignment_logits * (1.0 / self.eta), axis=-1)

    def clustering_loss(self, embeddings: Tensor) -> Tensor:
        """Eq. 7: squared distance of each embedding to its mixture center.

        The padding row (index 0) is excluded — it has no raw features.
        """
        mixtures = self.assignments() @ self.centers
        diff = embeddings[1:] - mixtures[1:]
        return (diff * diff).mean()

    def reconstruction_loss(self, embeddings: Tensor) -> Tensor:
        """Eq. 8: squared reconstruction error of the raw features."""
        reconstructed = self.decode(embeddings)
        diff = reconstructed[1:] - Tensor(self.raw_features[1:])
        return (diff * diff).mean()

    # -- inspection helpers (no autograd) --------------------------------
    def hard_assignments(self) -> np.ndarray:
        """Most likely cluster per item (argmax of the soft assignment)."""
        return np.argmax(self.assignments().data, axis=-1)
