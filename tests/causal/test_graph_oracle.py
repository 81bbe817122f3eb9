"""The numpy DAG utilities return exactly what networkx returns.

``is_dag``, ``topological_order`` and ``prune_to_dag`` are checked against
networkx, the reference they replace, on seeded random weighted digraphs:
sizes 1–20 with self-loops, tied weights and permuted DAGs.  The order
matters beyond validity: ``simulate_linear_sem`` draws its noise in
topological order, and ``prune_to_dag`` cuts the weakest edge of the first
cycle found, so a different valid answer would change downstream numbers.
"""

import numpy as np
import pytest

from repro.causal import (binarize, is_dag, prune_to_dag, random_dag,
                          simulate_linear_sem, topological_order)
from repro.causal import sem

nx = pytest.importorskip("networkx")

GRAPHS_PER_KIND = 400


def _digraph(matrix, threshold=0.0):
    binary = np.abs(matrix) > threshold
    graph = nx.DiGraph()
    graph.add_nodes_from(range(binary.shape[0]))
    graph.add_edges_from(zip(*np.nonzero(binary)))
    return graph


def _nx_topological_order(matrix, threshold=0.0):
    try:
        return list(nx.topological_sort(_digraph(matrix, threshold)))
    except nx.NetworkXUnfeasible as exc:
        raise ValueError("cycle") from exc


def _nx_prune_to_dag(matrix):
    arr = np.array(matrix, dtype=np.float64)
    while not nx.is_directed_acyclic_graph(graph := _digraph(arr)):
        cycle = nx.find_cycle(graph)
        weakest = min(cycle, key=lambda edge: abs(arr[edge[0], edge[1]]))
        arr[weakest[0], weakest[1]] = 0.0
    return arr


def _random_graph(kind, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 21))
    density = rng.uniform(0.02, 0.5)
    if kind == "weighted":  # any digraph, self-loops included
        return rng.normal(size=(m, m)) * (rng.random((m, m)) < density)
    if kind == "tied":  # few distinct magnitudes, so min() meets ties
        weights = rng.choice([-1.0, -0.5, 0.5, 1.0], size=(m, m))
        return weights * (rng.random((m, m)) < density)
    dag = np.triu(rng.uniform(0.1, 2.0, size=(m, m)), k=1)
    dag *= rng.random((m, m)) < density
    perm = rng.permutation(m)
    dag = dag[np.ix_(perm, perm)]
    if seed % 2:  # one back edge makes a cycle through the DAG
        i, j = rng.integers(0, m, size=2)
        dag[i, j] = rng.uniform(0.1, 2.0)
    return dag


@pytest.mark.parametrize("kind", ["weighted", "tied", "permuted_dag"])
def test_matches_networkx(kind):
    cyclic = 0
    for seed in range(GRAPHS_PER_KIND):
        matrix = _random_graph(kind, seed)
        threshold = 0.0 if seed % 3 else 0.6
        expected_dag = nx.is_directed_acyclic_graph(_digraph(matrix, threshold))
        assert is_dag(binarize(matrix, threshold)) == expected_dag, seed
        if expected_dag:
            order = topological_order(binarize(matrix, threshold))
            assert order == _nx_topological_order(matrix, threshold), seed
            assert all(type(node) is int for node in order)
        else:
            cyclic += 1
            with pytest.raises(ValueError, match="cycle"):
                topological_order(binarize(matrix, threshold))
        np.testing.assert_array_equal(prune_to_dag(matrix),
                                      _nx_prune_to_dag(matrix), str(seed))
    assert 0 < cyclic < GRAPHS_PER_KIND


def test_sem_samples_unchanged(monkeypatch):
    """Samples are bitwise those drawn in networkx's topological order."""
    rng = np.random.default_rng(3)
    weights = random_dag(12, 0.3, rng) * rng.uniform(0.5, 2.0, size=(12, 12))
    ours = simulate_linear_sem(weights, 50, np.random.default_rng(7))
    monkeypatch.setattr(sem.graph_utils, "topological_order",
                        _nx_topological_order)
    reference = simulate_linear_sem(weights, 50, np.random.default_rng(7))
    assert ours.tobytes() == reference.tobytes()
