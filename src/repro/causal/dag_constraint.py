"""The NOTEARS differentiable acyclicity constraint.

Zheng et al. (2018) characterize acyclicity of a weighted graph ``W`` via

    h(W) = trace(exp(W ∘ W)) - m = 0,

where ``∘`` is the elementwise product and ``m`` the number of nodes:
``[S^k]_ii`` counts weighted k-step paths from node i back to itself, so the
trace of the matrix exponential exceeds ``m`` exactly when a directed cycle
carries nonzero weight (paper §II-B).  The gradient has the closed form
``∇h(W) = exp(W ∘ W)^T ∘ 2W``.

The numpy functions read the constraint off a weight matrix, and an autograd
wrapper puts it in Causer's training loss (Algorithm 1).  ``W ∘ W`` is
elementwise non-negative, so its scaled Taylor series has no cancellation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..nn.tensor import Tensor

#: ``expm(W ∘ W)`` evaluations since import, reported by ``expm_cache_info``.
_expm_calls = 0


def _expm_nonnegative(matrix: np.ndarray) -> np.ndarray:
    """``e^A`` for an elementwise non-negative, finite ``A``; else all NaN.

    The Taylor terms of ``A / 2^s`` are all non-negative, so none cancel.
    """
    global _expm_calls
    _expm_calls += 1
    norm = matrix.sum(axis=0).max(initial=0.0)
    if not np.isfinite(norm):
        return np.full(matrix.shape, np.nan)
    squarings = max(0, int(np.frexp(norm)[1]))  # ||A / 2^s||_1 < 1
    scaled = np.ldexp(matrix, -squarings)
    term = np.eye(matrix.shape[0])
    result = term.copy()
    for k in range(1, 19):  # the first dropped term is below 1/19! ≈ 8e-18
        term = term @ scaled / k
        result += term
    for _ in range(squarings):
        result = result @ result
    return result


def expm_cache_info() -> Tuple[int, int, int]:
    """``(0, n, 0)``: no cache, ``n`` ``expm(W ∘ W)`` calls since import.

    The ``(hits, misses, size)`` shape of a removed memo, kept for readers.
    """
    return 0, _expm_calls, 0


def h_value(weights: np.ndarray) -> float:
    """The constraint value ``trace(e^{W∘W}) - m`` (0 iff acyclic)."""
    return h_value_and_grad(weights)[0]


def h_value_and_grad(weights: np.ndarray) -> Tuple[float, np.ndarray]:
    """Constraint value and its gradient ``(e^{W∘W})^T ∘ 2W``.

    Non-finite or overflowing weights give non-finite results, never raise.
    """
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        exp_sq = _expm_nonnegative(weights * weights)
        value = float(np.trace(exp_sq) - m)
        grad = exp_sq.T * (2.0 * weights)
    return value, grad


def h_tensor(weights: Tensor) -> Tensor:
    """Autograd node for ``h(W)`` usable inside a Causer training step.

    Value and local gradient come from :func:`h_value_and_grad`.
    """
    value, local = h_value_and_grad(weights.data)

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            weights._accumulate(grad * local)

    return Tensor._make(np.array(value), (weights,), backward)


def polynomial_h_value(weights: np.ndarray, order: int = 10) -> float:
    """Truncated-series variant ``sum_k trace(S^k)/k!``.

    An independent reference for :func:`h_value` in tests; it converges to
    it as ``order`` grows.
    """
    weights = np.asarray(weights, dtype=np.float64)
    squared = weights * weights
    power = np.eye(weights.shape[0])
    total = 0.0
    factorial = 1.0
    for k in range(1, order + 1):
        power = power @ squared
        factorial *= k
        total += np.trace(power) / factorial
    return float(total)
