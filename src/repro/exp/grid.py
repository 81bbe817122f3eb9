"""Grid search over hyper-parameters (the paper's Table III protocol)."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.interactions import leave_one_out_split
from ..data.synthetic import SyntheticDataset
from ..parallel import parallel_map
from .config import BenchmarkSettings
from .runner import FitSpec, fit_and_score


@dataclass
class GridSearchResult:
    """Outcome of a grid search: every configuration and the winner."""

    parameter_grid: Dict[str, Sequence]
    scores: List[Tuple[Dict, float]] = field(default_factory=list)

    @property
    def best(self) -> Tuple[Dict, float]:
        if not self.scores:
            grid = {key: list(values)
                    for key, values in self.parameter_grid.items()}
            raise ValueError(
                f"grid search over {grid!r} produced no scores — "
                "the parameter grid was empty or no combination was "
                "evaluated, so there is no best configuration")
        return max(self.scores, key=lambda pair: pair[1])

    def top(self, k: int = 5) -> List[Tuple[Dict, float]]:
        if not self.scores:
            return []
        return sorted(self.scores, key=lambda pair: -pair[1])[:k]


def grid_combinations(parameter_grid: Dict[str, Sequence]) -> List[Dict]:
    """The grid's full cross-product as override dicts, in itertools order."""
    keys = list(parameter_grid)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(parameter_grid[k]
                                             for k in keys))]


def grid_search_causer(dataset: SyntheticDataset,
                       parameter_grid: Dict[str, Sequence],
                       settings: Optional[BenchmarkSettings] = None,
                       metric: str = "ndcg",
                       workers: Optional[int] = 1) -> GridSearchResult:
    """Exhaustive grid search for Causer, scored on the validation split.

    ``parameter_grid`` maps :class:`~repro.core.config.CauserConfig` field
    names to candidate values, e.g. ``{"epsilon": [0.1, 0.3], "eta": [0.5]}``.

    ``workers`` > 1 trains one hyper-parameter combo per process through
    :func:`repro.parallel.parallel_map` (``None`` → CPU-aware default,
    ``0``/``1`` → serial).  The split is computed once here and shipped to
    workers, and ``scores`` keeps the combo order, so serial and parallel
    runs return identical results.
    """
    settings = settings or BenchmarkSettings()
    split = leave_one_out_split(dataset.corpus)
    combos = grid_combinations(parameter_grid)
    specs = [FitSpec("Causer", dataset,
                     settings.causer_config(dataset.name, **overrides),
                     split.train, split.validation, settings.z)
             for overrides in combos]
    runs = parallel_map(fit_and_score, specs, workers=workers,
                        name="grid combo")
    return GridSearchResult(
        parameter_grid=dict(parameter_grid),
        scores=[(overrides, 100.0 * run.result.mean(metric))
                for overrides, run in zip(combos, runs)])
