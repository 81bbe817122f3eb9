"""Directed-graph utilities for causal discovery.

A causal graph over ``m`` variables is represented by a weighted adjacency
matrix ``W`` where ``W[i, j] != 0`` means *i causes j* (the paper's
convention).  This module provides structure queries (acyclicity,
topological order), binarization, and conversions used throughout
:mod:`repro.causal` and :mod:`repro.core`, and the random DAGs the
behaviour simulator draws its ground-truth cluster graph from.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np


def validate_adjacency(matrix: np.ndarray) -> np.ndarray:
    """Check that ``matrix`` is a square 2-d array and return it as float64."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {arr.shape}")
    return arr


def binarize(matrix: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    """Binary adjacency: edges with ``|weight| > threshold``."""
    arr = validate_adjacency(matrix)
    return (np.abs(arr) > threshold).astype(np.int64)


def _kahn_order(binary: np.ndarray) -> List[int]:
    """Kahn's order, shorter than ``m`` iff the graph has a cycle.

    A node joins the moment its in-degree reaches 0, children visited in
    ascending order: the order ``networkx.topological_sort`` returns.
    """
    indegree = binary.sum(axis=0)
    order = [int(node) for node in np.flatnonzero(indegree == 0)]
    for node in order:  # grows while it is walked: the FIFO queue
        for child in np.flatnonzero(binary[node]):
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(int(child))
    return order


def is_dag(matrix: np.ndarray) -> bool:
    """True if the graph has no directed cycles."""
    binary = binarize(matrix)
    return len(_kahn_order(binary)) == binary.shape[0]


def topological_order(matrix: np.ndarray) -> List[int]:
    """A topological ordering of the DAG.

    Raises ``ValueError`` if the graph contains a cycle.
    """
    binary = binarize(matrix)
    order = _kahn_order(binary)
    if len(order) < binary.shape[0]:
        raise ValueError("graph contains a cycle; no topological order exists")
    return order


def parents(matrix: np.ndarray, node: int) -> List[int]:
    """Direct causes of ``node``: indices ``i`` with ``W[i, node] != 0``."""
    arr = validate_adjacency(matrix)
    return list(np.nonzero(np.abs(arr[:, node]) > 0.0)[0])


def skeleton(matrix: np.ndarray) -> np.ndarray:
    """Undirected skeleton: symmetric 0/1 matrix of adjacent pairs."""
    binary = binarize(matrix)
    return ((binary + binary.T) > 0).astype(np.int64)


def v_structures(matrix: np.ndarray) -> Set[Tuple[int, int, int]]:
    """Colliders ``i -> k <- j`` with ``i`` and ``j`` non-adjacent.

    Returned as tuples ``(min(i, j), k, max(i, j))`` so that each collider is
    counted once regardless of parent order.
    """
    binary = binarize(matrix)
    skel = skeleton(binary)
    found: Set[Tuple[int, int, int]] = set()
    n = binary.shape[0]
    for k in range(n):
        incoming = np.nonzero(binary[:, k])[0]
        for a_idx in range(len(incoming)):
            for b_idx in range(a_idx + 1, len(incoming)):
                i, j = incoming[a_idx], incoming[b_idx]
                if not skel[i, j]:
                    found.add((int(min(i, j)), int(k), int(max(i, j))))
    return found


def markov_equivalent(matrix_a: np.ndarray, matrix_b: np.ndarray) -> bool:
    """Definition 1 of the paper: same skeleton and same v-structures."""
    if not np.array_equal(skeleton(matrix_a), skeleton(matrix_b)):
        return False
    return v_structures(matrix_a) == v_structures(matrix_b)


def _first_cycle(binary: np.ndarray) -> Optional[List[Tuple[int, int]]]:
    """The first cycle a depth-first search meets, as edges, or ``None``.

    The search starts from nodes ``0..m-1`` in order, visits children in
    ascending order, and stops at the first edge into a node on its current
    path: the cycle ``networkx.find_cycle`` reports.
    """
    finished = np.zeros(binary.shape[0], dtype=bool)
    for start in range(binary.shape[0]):
        if finished[start]:
            continue
        path, pending = [start], [iter(np.flatnonzero(binary[start]))]
        while path:
            child = next(pending[-1], None)
            if child is None:
                finished[path.pop()] = True
                pending.pop()
            elif child in path:
                nodes = path[path.index(child):] + [int(child)]
                return list(zip(nodes[:-1], nodes[1:]))
            elif not finished[child]:
                path.append(int(child))
                pending.append(iter(np.flatnonzero(binary[child])))
    return None


def prune_to_dag(matrix: np.ndarray) -> np.ndarray:
    """Greedily remove smallest-magnitude edges until the graph is acyclic.

    NOTEARS drives the acyclicity penalty to ~0 but floating point rarely
    reaches exactly zero; this post-processing step (standard practice)
    returns the nearest DAG by deleting the weakest edge of the first cycle
    found (the first one on ties), repeatedly.
    """
    arr = validate_adjacency(matrix).copy()
    while (cycle := _first_cycle(binarize(arr))) is not None:
        weakest = min(cycle, key=lambda edge: abs(arr[edge]))
        arr[weakest] = 0.0
    return arr


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
