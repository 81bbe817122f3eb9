"""Random DAG generation and linear structural equation model sampling.

Used by the identifiability experiments (Theorem 1) and as the synthetic
ground truth for the user-behaviour simulator's cluster-level causal graph.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from . import graph as graph_utils


def random_dag(num_nodes: int, edge_prob: float,
               rng: np.random.Generator) -> np.ndarray:
    """Erdős–Rényi DAG: sample edges below a random permutation's diagonal.

    Returns a 0/1 adjacency matrix guaranteed acyclic.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    lower = np.tril(rng.random((num_nodes, num_nodes)) < edge_prob, k=-1)
    perm = rng.permutation(num_nodes)
    adjacency = lower[np.ix_(perm, perm)].astype(np.int64)
    return adjacency.T  # orient edges from earlier to later in the order


def weighted_dag(adjacency: np.ndarray, rng: np.random.Generator,
                 weight_range: Tuple[float, float] = (0.5, 2.0),
                 allow_negative: bool = True) -> np.ndarray:
    """Assign random edge weights, avoiding the unidentifiable near-zero band."""
    low, high = weight_range
    if low <= 0 or high <= low:
        raise ValueError("weight_range must satisfy 0 < low < high")
    magnitudes = rng.uniform(low, high, size=adjacency.shape)
    if allow_negative:
        signs = rng.choice([-1.0, 1.0], size=adjacency.shape)
    else:
        signs = np.ones(adjacency.shape)
    return adjacency * magnitudes * signs


def simulate_linear_sem(weights: np.ndarray, num_samples: int,
                        rng: np.random.Generator,
                        noise_scale: float = 1.0,
                        noise: str = "gaussian") -> np.ndarray:
    """Sample ``X = X W + E`` in topological order.

    Each column j satisfies ``x_j = sum_i W[i, j] x_i + e_j``, matching the
    paper's eq. (3) regression direction (column = effect).
    """
    weights = graph_utils.validate_adjacency(weights)
    order = graph_utils.topological_order(weights)
    m = weights.shape[0]
    samples = np.zeros((num_samples, m))
    for node in order:
        parent_idx = graph_utils.parents(weights, node)
        mean = samples[:, parent_idx] @ weights[parent_idx, node] if parent_idx else 0.0
        if noise == "gaussian":
            eps = rng.normal(0.0, noise_scale, size=num_samples)
        elif noise == "exponential":
            eps = rng.exponential(noise_scale, size=num_samples) - noise_scale
        elif noise == "gumbel":
            eps = rng.gumbel(0.0, noise_scale, size=num_samples)
            eps -= eps.mean()
        else:
            raise ValueError(f"unknown noise kind: {noise!r}")
        samples[:, node] = mean + eps
    return samples


def standardize(samples: np.ndarray) -> np.ndarray:
    """Zero-mean the columns (NOTEARS assumes centered data)."""
    return samples - samples.mean(axis=0, keepdims=True)
