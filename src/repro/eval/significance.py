"""Statistical significance: the paper's paired t-test (p < 0.05 marker).

Multi-seed runs (:func:`multi_seed_evaluation`) re-train one model under
several seeds — in parallel through :mod:`repro.parallel` when asked — and
:func:`pooled_paired_t_test` compares two such run sets on the pooled
per-user metric vectors, which is the sturdier version of the paper's
single-run significance star.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class PairedTestResult:
    """Outcome of a paired comparison between two models' per-user metrics."""

    t_statistic: float
    p_value: float
    mean_difference: float

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha

    @property
    def star(self) -> str:
        """The paper's '*' marker for p < 0.05 improvements."""
        return "*" if self.significant() and self.mean_difference > 0 else ""


def paired_t_test(model_values: Sequence[float],
                  baseline_values: Sequence[float]) -> PairedTestResult:
    """Two-sided paired t-test on per-user metric values.

    Degenerate inputs (length < 2 or identical vectors) return p = 1.0
    rather than NaN, so table-rendering code never trips on edge cases.
    """
    a = np.asarray(model_values, dtype=np.float64)
    b = np.asarray(baseline_values, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired test needs equal lengths, got {a.shape} vs {b.shape}")
    mean_diff = float((a - b).mean()) if a.size else 0.0
    if a.size < 2 or np.allclose(a, b):
        return PairedTestResult(t_statistic=0.0, p_value=1.0,
                                mean_difference=mean_diff)
    from scipy import stats
    t_stat, p_value = stats.ttest_rel(a, b)
    if np.isnan(p_value):
        return PairedTestResult(t_statistic=0.0, p_value=1.0,
                                mean_difference=mean_diff)
    return PairedTestResult(t_statistic=float(t_stat), p_value=float(p_value),
                            mean_difference=mean_diff)


def _seeded_model_run(seed: int, model_name: str, dataset, settings):
    """Train/evaluate ``model_name`` with ``model_seed=seed`` (picklable)."""
    from ..exp.runner import run_model
    return run_model(model_name, dataset, replace(settings, model_seed=seed))


def multi_seed_evaluation(model_name: str, dataset, settings,
                          seeds: Sequence[int],
                          workers: Optional[int] = 1,
                          timeout: Optional[float] = None) -> List:
    """One :class:`~repro.exp.runner.RunResult` per seed, in seed order.

    Each seed is an independent task, so ``workers`` > 1 fans the runs out
    one process per seed through :func:`repro.parallel.map_seeds`;
    ``workers=1`` runs them serially with identical results.
    """
    from ..parallel import map_seeds
    return map_seeds(_seeded_model_run, seeds, model_name, dataset, settings,
                     workers=workers, timeout=timeout)


def pooled_paired_t_test(runs_a: Sequence, runs_b: Sequence,
                         metric: str = "ndcg") -> PairedTestResult:
    """Paired t-test on per-user metrics pooled across matching seeds.

    ``runs_a[i]`` and ``runs_b[i]`` must come from the same seed and sample
    set (as :func:`multi_seed_evaluation` produces), so user ``u`` under
    seed ``s`` pairs with itself across the two models.
    """
    if len(runs_a) != len(runs_b):
        raise ValueError(f"need matching run lists, got {len(runs_a)} vs "
                         f"{len(runs_b)}")
    values_a = [v for run in runs_a for v in run.result.per_user[metric]]
    values_b = [v for run in runs_b for v in run.result.per_user[metric]]
    return paired_t_test(values_a, values_b)


def bootstrap_confidence_interval(values: Sequence[float],
                                  num_resamples: int = 1000,
                                  alpha: float = 0.05,
                                  seed: int = 0) -> tuple:
    """Percentile bootstrap CI for a metric mean (diagnostic extra)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return (0.0, 0.0)
    rng = np.random.default_rng(seed)
    resamples = rng.choice(arr, size=(num_resamples, arr.size), replace=True)
    means = resamples.mean(axis=1)
    lo, hi = np.quantile(means, [alpha / 2, 1 - alpha / 2])
    return (float(lo), float(hi))
