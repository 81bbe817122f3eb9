"""The NOTEARS differentiable acyclicity constraint.

Zheng et al. (2018) characterize acyclicity of a weighted graph ``W`` via

    h(W) = trace(exp(W ∘ W)) - m = 0,

where ``∘`` is the elementwise product and ``m`` the number of nodes:
``[S^k]_ii`` counts weighted k-step paths from node i back to itself, so the
trace of the matrix exponential exceeds ``m`` exactly when a directed cycle
carries nonzero weight (paper §II-B).  The gradient has the closed form
``∇h(W) = exp(W ∘ W)^T ∘ 2W``.

Both the numpy functions (for the standalone NOTEARS solver) and an autograd
wrapper (for joint training inside Causer) are provided.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Tuple

import numpy as np

from ..nn.tensor import Tensor

# ----------------------------------------------------------------------
# Matrix-exponential cache
# ----------------------------------------------------------------------
# The augmented-Lagrangian outer loop (and Causer's per-batch penalty term)
# repeatedly evaluates h at the *same* W: the dual update needs h(W) right
# after the inner minimization computed it, and epochs that freeze the
# causal parameters re-hit identical weights every batch.  ``expm`` is by
# far the most expensive primitive in that loop, so we memoize it on the
# content hash of W.  Entries are small (m x m) and the map is LRU-bounded.
_EXPM_CACHE_SIZE = 8
_expm_cache: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
_expm_stats = {"hits": 0, "misses": 0}


def _expm_of_square(weights: np.ndarray) -> np.ndarray:
    """``expm(W ∘ W)`` with content-hash memoization.

    The returned array is shared with the cache; callers must treat it as
    read-only (all in-module consumers only reduce or multiply out of it).
    """
    payload = np.ascontiguousarray(weights)
    key = (hashlib.sha256(payload.tobytes()).digest()
           + repr(payload.shape).encode())
    cached = _expm_cache.get(key)
    if cached is not None:
        _expm_cache.move_to_end(key)
        _expm_stats["hits"] += 1
        return cached
    _expm_stats["misses"] += 1
    from scipy.linalg import expm
    exp_sq = expm(weights * weights)
    _expm_cache[key] = exp_sq
    while len(_expm_cache) > _EXPM_CACHE_SIZE:
        _expm_cache.popitem(last=False)
    return exp_sq


def expm_cache_info() -> Tuple[int, int, int]:
    """``(hits, misses, size)`` counters for the expm cache."""
    return _expm_stats["hits"], _expm_stats["misses"], len(_expm_cache)


def clear_expm_cache() -> None:
    """Drop all cached exponentials and reset the counters."""
    _expm_cache.clear()
    _expm_stats["hits"] = 0
    _expm_stats["misses"] = 0


def h_value(weights: np.ndarray) -> float:
    """The constraint value ``trace(e^{W∘W}) - m`` (0 iff acyclic)."""
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.shape[0]
    return float(np.trace(_expm_of_square(weights)) - m)


def h_value_and_grad(weights: np.ndarray) -> Tuple[float, np.ndarray]:
    """Constraint value and its gradient ``(e^{W∘W})^T ∘ 2W``."""
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.shape[0]
    exp_sq = _expm_of_square(weights)
    value = float(np.trace(exp_sq) - m)
    grad = exp_sq.T * (2.0 * weights)
    return value, grad


def h_tensor(weights: Tensor) -> Tensor:
    """Autograd node for ``h(W)`` usable inside a Causer training step.

    The forward pass uses scipy's Padé-approximant ``expm``; the backward
    pass uses the analytic gradient above, chained with upstream gradients.
    """
    w_data = weights.data
    m = w_data.shape[0]
    exp_sq = _expm_of_square(w_data)
    value = np.array(np.trace(exp_sq) - m)

    def backward(grad: np.ndarray) -> None:
        if weights.requires_grad:
            local = exp_sq.T * (2.0 * w_data)
            weights._accumulate(grad * local)

    return Tensor._make(value, (weights,), backward)


def polynomial_h_value(weights: np.ndarray, order: int = 10) -> float:
    """Truncated-series variant ``sum_k trace(S^k)/k!`` used by some follow-ups.

    Cheaper than ``expm`` for large graphs; exposed for the scalability
    ablation.  Converges to :func:`h_value` as ``order`` grows.
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
