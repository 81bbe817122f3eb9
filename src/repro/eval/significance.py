"""Statistical significance: the paper's paired t-test (p < 0.05 marker)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class PairedTestResult:
    """Outcome of a paired comparison between two models' per-user metrics."""

    t_statistic: float
    p_value: float
    mean_difference: float

    def significant(self) -> bool:
        """Significant at the 5% level."""
        return self.p_value < 0.05

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
