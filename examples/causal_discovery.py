"""Does Causer's learned cluster graph match the simulator's? (Theorem 1)

Fits Causer (Algorithm 1 plus eq. 10) on the smallest ``baby`` size that
``python -m repro identifiability`` uses, matches the learned item
clusters to the simulator's true ones, and prints the learned cluster
graph in the true clusters' labels next to the true graph, with the
structure-recovery scores the identifiability table averages.

Run:  python examples/causal_discovery.py
"""

import numpy as np

from repro.causal import evaluate_structure
from repro.data import leave_one_out_split, load_dataset
from repro.exp import BenchmarkSettings, recover_cluster_graph


def print_graph(label: str, graph: np.ndarray) -> None:
    print(label)
    for row in (graph != 0).astype(int):
        print("   " + " ".join(str(v) for v in row))


def main() -> None:
    settings = BenchmarkSettings(scale=0.02, data_seed=0)
    dataset = load_dataset("baby", scale=settings.scale,
                           seed=settings.data_seed)
    split = leave_one_out_split(dataset.corpus)
    config = settings.causer_config("baby")
    learned, purity = recover_cluster_graph(dataset, split, config)

    print(f"baby at scale {settings.scale}: {dataset.corpus.num_users} "
          f"users, K = {config.num_clusters} clusters, ε = {config.epsilon}")
    print(f"worst cluster purity after matching = {purity:.2f}")
    print_graph("true cluster graph (row causes column):",
                dataset.cluster_graph)
    print_graph("learned W^c > ε, relabelled onto the true clusters:",
                learned)

    metrics = evaluate_structure(dataset.cluster_graph, learned)
    print(f"SHD                 = {metrics.shd}")
    print(f"skeleton F1         = {metrics.skeleton_f1:.3f}")
    print(f"v-structure recall  = {metrics.v_structure_recall:.3f}")
    print(f"Markov equivalent   = {metrics.markov_equivalent}")


if __name__ == "__main__":
    main()
