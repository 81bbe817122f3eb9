"""Empirical verification of Theorem 1 (identifiability up to MEC).

The theorem states that with a sufficiently rich model class, faithfulness,
and small enough L1 weight, the graph minimizing the paper's score is
Markov-equivalent to the ground truth.  We verify the claim empirically:
sample random ground-truth DAGs, generate data from linear SEMs, run
NOTEARS, and measure how often the recovered graph lands in the true MEC
and how structure metrics scale with sample size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from .metrics import StructureMetrics, evaluate_structure
from .notears import notears_linear
from .sem import random_dag, simulate_linear_sem, standardize, weighted_dag


@dataclass
class IdentifiabilityTrial:
    """One ground-truth-vs-recovered comparison."""

    num_nodes: int
    num_samples: int
    seed: int
    metrics: StructureMetrics


@dataclass
class IdentifiabilityReport:
    """Aggregate over trials for a single configuration."""

    num_nodes: int
    num_samples: int
    trials: List[IdentifiabilityTrial] = field(default_factory=list)

    @property
    def mec_recovery_rate(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.mean([t.metrics.markov_equivalent for t in self.trials]))

    @property
    def mean_shd(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.mean([t.metrics.shd for t in self.trials]))

    @property
    def mean_skeleton_f1(self) -> float:
        if not self.trials:
            return 0.0
        return float(np.mean([t.metrics.skeleton_f1 for t in self.trials]))

    def summary(self) -> Dict[str, float]:
        return {
            "num_nodes": self.num_nodes,
            "num_samples": self.num_samples,
            "mec_recovery_rate": self.mec_recovery_rate,
            "mean_shd": self.mean_shd,
            "mean_skeleton_f1": self.mean_skeleton_f1,
        }


def run_identifiability_trial(num_nodes: int, num_samples: int, seed: int
                              ) -> IdentifiabilityTrial:
    """Sample a truth DAG, simulate data, recover with NOTEARS, score it.

    The truth has about two edges per node (edge probability
    ``2 / (m - 1)``, at most 0.5).
    """
    rng = np.random.default_rng(seed)
    edge_prob = min(0.5, 2.0 / max(num_nodes - 1, 1))
    truth = random_dag(num_nodes, edge_prob, rng)
    weights = weighted_dag(truth, rng)
    data = standardize(simulate_linear_sem(weights, num_samples, rng))
    result = notears_linear(data, lambda1=0.05)
    metrics = evaluate_structure(truth, result.adjacency)
    return IdentifiabilityTrial(num_nodes=num_nodes, num_samples=num_samples,
                                seed=seed, metrics=metrics)


def run_identifiability_study(num_nodes: int = 8,
                              sample_sizes: Sequence[int] = (100, 500, 2000),
                              trials_per_size: int = 3,
                              base_seed: int = 0) -> List[IdentifiabilityReport]:
    """Sweep sample sizes; recovery should improve monotonically (Theorem 1)."""
    reports = []
    for num_samples in sample_sizes:
        report = IdentifiabilityReport(num_nodes=num_nodes,
                                       num_samples=num_samples)
        for trial_idx in range(trials_per_size):
            seed = base_seed * 10_000 + num_samples + trial_idx
            report.trials.append(
                run_identifiability_trial(num_nodes, num_samples, seed))
        reports.append(report)
    return reports
