"""Standalone linear NOTEARS solver (Zheng et al., 2018).

Solves the paper's eq. (3):

    min_W  (1/2n) ||X - X W||_F^2 + lambda ||W||_1
    s.t.   h(W) = trace(e^{W∘W}) - m = 0

with the augmented Lagrangian method: a sequence of unconstrained
sub-problems

    min_W  loss(W) + lambda ||W||_1 + beta1 h(W) + (beta2/2) h(W)^2

each solved by L-BFGS-B on the split ``W = W+ - W-`` (which turns the L1
term into a smooth linear one with bound constraints), followed by the
multiplier updates of Algorithm 1 (``beta1 += beta2 h``, ``beta2 *= kappa1``
while progress stalls).

This solver powers the identifiability experiments and doubles as the
pre-training option the paper mentions for ``W`` in §III-C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .dag_constraint import h_value_and_grad
from .graph import prune_to_dag

#: Algorithm 1's schedule (``beta2 *= KAPPA1`` while ``|h|`` fails to
#: shrink by ``KAPPA2``) and the cut applied to the estimated weights.
MAX_OUTER_ITERATIONS = 100
H_TOLERANCE = 1e-8
BETA2_MAX = 1e16
KAPPA1 = 10.0
KAPPA2 = 0.25
WEIGHT_THRESHOLD = 0.3


@dataclass
class NotearsResult:
    """Outcome of a NOTEARS run.

    Attributes
    ----------
    weights:
        The continuous weighted adjacency estimate (before thresholding).
    adjacency:
        Thresholded, cycle-pruned 0/1 adjacency.
    h_final:
        Final acyclicity-constraint value.
    iterations:
        Number of augmented-Lagrangian outer iterations used.
    history:
        Per-outer-iteration ``(h, objective)`` trace, for diagnostics.
    """

    weights: np.ndarray
    adjacency: np.ndarray
    h_final: float
    iterations: int
    history: List[Tuple[float, float]] = field(default_factory=list)


def _loss_and_grad(weights: np.ndarray, data: np.ndarray
                   ) -> Tuple[float, np.ndarray]:
    """Least-squares score (1/2n)||X - XW||_F^2 and its gradient."""
    n = data.shape[0]
    residual = data @ weights - data
    loss = 0.5 / n * float((residual ** 2).sum())
    grad = data.T @ residual / n
    return loss, grad


def notears_linear(data: np.ndarray,
                   lambda1: float = 0.1) -> NotearsResult:
    """Run linear NOTEARS on an ``(n, m)`` data matrix.

    ``beta1`` is the Lagrange multiplier, ``beta2`` the penalty weight.
    """
    import scipy.optimize as sopt
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"data must be 2-d, got shape {data.shape}")
    m = data.shape[1]
    beta1, beta2 = 0.0, 1.0
    weights = np.zeros((m, m))
    h_current = np.inf
    history: List[Tuple[float, float]] = []

    def augmented(flat: np.ndarray) -> Tuple[float, np.ndarray]:
        # flat = [W+ ; W-], both >= 0, W = W+ - W-.
        w_pos = flat[:m * m].reshape(m, m)
        w_neg = flat[m * m:].reshape(m, m)
        w = w_pos - w_neg
        loss, loss_grad = _loss_and_grad(w, data)
        h, h_grad = h_value_and_grad(w)
        objective = (loss + lambda1 * flat.sum()
                     + beta1 * h + 0.5 * beta2 * h * h)
        grad_w = loss_grad + (beta1 + beta2 * h) * h_grad
        grad = np.concatenate([(grad_w + lambda1).ravel(),
                               (-grad_w + lambda1).ravel()])
        return objective, grad

    bounds = [(0.0, 0.0) if i == j else (0.0, None)
              for _ in range(2) for i in range(m) for j in range(m)]

    iterations = 0
    for iterations in range(1, MAX_OUTER_ITERATIONS + 1):
        flat0 = np.concatenate([np.maximum(weights, 0).ravel(),
                                np.maximum(-weights, 0).ravel()])
        h_new = h_current
        while beta2 < BETA2_MAX:
            solution = sopt.minimize(augmented, flat0, jac=True,
                                     method="L-BFGS-B", bounds=bounds)
            flat = solution.x
            candidate = flat[:m * m].reshape(m, m) - flat[m * m:].reshape(m, m)
            h_new, _ = h_value_and_grad(candidate)
            if h_new > KAPPA2 * h_current:
                beta2 *= KAPPA1
            else:
                break
        weights = candidate
        history.append((float(h_new), float(solution.fun)))
        beta1 += beta2 * h_new
        h_current = h_new
        if h_current <= H_TOLERANCE or beta2 >= BETA2_MAX:
            break

    thresholded = weights.copy()
    thresholded[np.abs(thresholded) < WEIGHT_THRESHOLD] = 0.0
    pruned = prune_to_dag(thresholded)
    adjacency = (pruned != 0).astype(np.int64)
    return NotearsResult(weights=weights, adjacency=adjacency,
                         h_final=float(h_current), iterations=iterations,
                         history=history)
