"""Directed-graph utilities for causal discovery.

A causal graph over ``m`` variables is represented by a weighted adjacency
matrix ``W`` where ``W[i, j] != 0`` means *i causes j* (the paper's
convention).  This module provides structure queries (acyclicity,
topological order), binarization, and conversions used throughout
:mod:`repro.causal` and :mod:`repro.core`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

import numpy as np

if TYPE_CHECKING:
    import networkx as nx


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


def is_dag(matrix: np.ndarray, threshold: float = 0.0) -> bool:
    """True if the thresholded graph has no directed cycles."""
    import networkx as nx
    graph = to_networkx(matrix, threshold)
    return nx.is_directed_acyclic_graph(graph)


def to_networkx(matrix: np.ndarray, threshold: float = 0.0) -> nx.DiGraph:
    """Convert an adjacency matrix to a :class:`networkx.DiGraph`."""
    import networkx as nx
    binary = binarize(matrix, threshold)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(binary.shape[0]))
    graph.add_edges_from(zip(*np.nonzero(binary)))
    return graph


def topological_order(matrix: np.ndarray, threshold: float = 0.0) -> List[int]:
    """A topological ordering of the (thresholded) DAG.

    Raises ``ValueError`` if the graph contains a cycle.
    """
    import networkx as nx
    graph = to_networkx(matrix, threshold)
    try:
        return list(nx.topological_sort(graph))
    except nx.NetworkXUnfeasible as exc:
        raise ValueError("graph contains a cycle; no topological order exists") from exc


def parents(matrix: np.ndarray, node: int, threshold: float = 0.0) -> List[int]:
    """Direct causes of ``node``: indices ``i`` with ``|W[i, node]| > threshold``."""
    arr = validate_adjacency(matrix)
    return list(np.nonzero(np.abs(arr[:, node]) > threshold)[0])


def skeleton(matrix: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    """Undirected skeleton: symmetric 0/1 matrix of adjacent pairs."""
    binary = binarize(matrix, threshold)
    return ((binary + binary.T) > 0).astype(np.int64)


def v_structures(matrix: np.ndarray, threshold: float = 0.0
                 ) -> Set[Tuple[int, int, int]]:
    """Colliders ``i -> k <- j`` with ``i`` and ``j`` non-adjacent.

    Returned as tuples ``(min(i, j), k, max(i, j))`` so that each collider is
    counted once regardless of parent order.
    """
    binary = binarize(matrix, threshold)
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


def markov_equivalent(matrix_a: np.ndarray, matrix_b: np.ndarray,
                      threshold: float = 0.0) -> bool:
    """Definition 1 of the paper: same skeleton and same v-structures."""
    skel_equal = np.array_equal(skeleton(matrix_a, threshold),
                                skeleton(matrix_b, threshold))
    if not skel_equal:
        return False
    return v_structures(matrix_a, threshold) == v_structures(matrix_b, threshold)


def prune_to_dag(matrix: np.ndarray) -> np.ndarray:
    """Greedily remove smallest-magnitude edges until the graph is acyclic.

    NOTEARS drives the acyclicity penalty to ~0 but floating point rarely
    reaches exactly zero; this post-processing step (standard practice)
    returns the nearest DAG by deleting the weakest edge on some cycle,
    repeatedly.
    """
    import networkx as nx
    arr = validate_adjacency(matrix).copy()
    while not is_dag(arr):
        graph = to_networkx(arr)
        cycle = nx.find_cycle(graph)
        weakest = min(cycle, key=lambda edge: abs(arr[edge[0], edge[1]]))
        arr[weakest[0], weakest[1]] = 0.0
    return arr
