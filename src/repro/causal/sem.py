"""Random DAG generation and linear structural equation model sampling.

Used by the identifiability experiments (Theorem 1) and as the synthetic
ground truth for the user-behaviour simulator's cluster-level causal graph.
"""

from __future__ import annotations

import numpy as np

from . import graph as graph_utils

#: Edge-weight magnitude band, and the scale of the SEM's Gaussian
#: exogenous noise.
WEIGHT_RANGE = (0.5, 2.0)
NOISE_SCALE = 1.0


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


def weighted_dag(adjacency: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Assign random signed edge weights, avoiding the unidentifiable
    near-zero band."""
    low, high = WEIGHT_RANGE
    if low <= 0 or high <= low:
        raise ValueError("WEIGHT_RANGE must satisfy 0 < low < high")
    magnitudes = rng.uniform(low, high, size=adjacency.shape)
    signs = rng.choice([-1.0, 1.0], size=adjacency.shape)
    return adjacency * magnitudes * signs


def simulate_linear_sem(weights: np.ndarray, num_samples: int,
                        rng: np.random.Generator) -> np.ndarray:
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
        eps = rng.normal(0.0, NOISE_SCALE, size=num_samples)
        samples[:, node] = mean + eps
    return samples


def standardize(samples: np.ndarray) -> np.ndarray:
    """Zero-mean the columns (NOTEARS assumes centered data)."""
    return samples - samples.mean(axis=0, keepdims=True)
