"""Cluster-level causal graph module (``W^c`` and the DAG constraint).

Holds the learnable ``W^c ∈ R^{K×K}`` with a structurally-zero diagonal and
exposes the NOTEARS acyclicity value ``h(W^c)`` and L1 penalty used in the
augmented-Lagrangian objective (eq. 11).  Eq. 9's item-level expansion
``W_ab = ā^T W^c b̄`` has the factors :meth:`repro.core.Causer.causal_factors`;
:func:`expanded_blocks` is the one place that multiplies them out.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..causal.dag_constraint import h_tensor, h_value
from ..causal.graph import prune_to_dag
from ..nn import Module, Parameter, Tensor

#: ``W^c`` starts uniform in ``[INIT_LOW, INIT_HIGH)`` off the diagonal.
INIT_LOW = 0.3
INIT_HIGH = 0.7

#: Rows per block of :func:`expanded_blocks`: a block of ``W`` and its
#: temporaries stay at ``EXPANSION_BLOCK_ROWS × (V+1)``.
EXPANSION_BLOCK_ROWS = 256


def expanded_blocks(rows: np.ndarray, cols: np.ndarray
                    ) -> Iterator[np.ndarray]:
    """Eq. 9's item matrix ``W = rows @ colsᵀ``, one row block at a time.

    ``(rows, cols)`` are its rank-K factors (``Causer.causal_factors()``
    returns ``(Ā Wᶜ, Ā)``).  Blocks of ``EXPANSION_BLOCK_ROWS`` rows are
    yielded top to bottom, so no ``(V+1)²`` array is ever built.
    """
    for start in range(0, len(rows), EXPANSION_BLOCK_ROWS):
        yield rows[start:start + EXPANSION_BLOCK_ROWS] @ cols.T


class ClusterCausalGraph(Module):
    """Learnable cluster-level causal adjacency with DAG regularization."""

    def __init__(self, num_clusters: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.num_clusters = num_clusters
        # Start well above typical ε thresholds: the hard gate 1(W > ε) in
        # eq. 10 passes no gradient to entries below ε, so a near-zero init
        # would freeze the graph at birth.  Training then *prunes* edges via
        # L1 + the DAG penalty rather than growing them from zero.
        weights = rng.uniform(INIT_LOW, INIT_HIGH,
                              size=(num_clusters, num_clusters))
        np.fill_diagonal(weights, 0.0)
        self.weights = Parameter(weights)
        # Constant mask keeping the diagonal exactly zero (no self-causes).
        self._off_diagonal = 1.0 - np.eye(num_clusters)

    def matrix(self) -> Tensor:
        """``W^c`` with the diagonal masked to zero (autograd-visible)."""
        return self.weights * Tensor(self._off_diagonal)

    def acyclicity(self) -> Tensor:
        """``h(W^c) = trace(e^{W^c ∘ W^c}) - K`` as an autograd scalar."""
        return h_tensor(self.matrix())

    def acyclicity_value(self) -> float:
        """Constraint value without building a graph node."""
        return h_value(self.weights.data * self._off_diagonal)

    def l1(self) -> Tensor:
        """``||W^c||_1`` sparsity penalty."""
        return self.matrix().abs().sum()

    # -- inspection -------------------------------------------------------
    def numpy_matrix(self) -> np.ndarray:
        return self.weights.data * self._off_diagonal

    def as_dag(self, threshold: float = 0.1) -> np.ndarray:
        """Thresholded graph with any residual cycles pruned away."""
        matrix = self.numpy_matrix().copy()
        matrix[np.abs(matrix) <= threshold] = 0.0
        return prune_to_dag(matrix)
