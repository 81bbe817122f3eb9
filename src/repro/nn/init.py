"""Parameter initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully reproducible from a single seed.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Scale of the Xavier bound and of the orthogonal matrix.
XAVIER_GAIN = 1.0
ORTHOGONAL_GAIN = 1.0


def xavier_uniform(shape: Tuple[int, ...],
                   rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = _fans(shape)
    bound = XAVIER_GAIN * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: Tuple[int, ...], rng: np.random.Generator,
           std: float) -> np.ndarray:
    """Zero-mean Gaussian initialization, the usual choice for embeddings."""
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def orthogonal(shape: Tuple[int, ...],
               rng: np.random.Generator) -> np.ndarray:
    """Orthogonal initialization, recommended for recurrent weights."""
    if len(shape) < 2:
        raise ValueError("orthogonal init needs at least a 2-d shape")
    rows, cols = shape[0], int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    q = q[:rows, :cols] if rows >= cols else q[:cols, :rows].T
    return ORTHOGONAL_GAIN * q.reshape(shape)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[1] * receptive, shape[0] * receptive
