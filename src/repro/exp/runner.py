"""The lineup's model factory and the one fit-and-score task.

Every fit of the harness (Table IV's cells, the grid's combos, every
Causer the sweeps, ablations and studies train) is a :class:`FitSpec`
run by :func:`fit_and_score`, serially or through
:func:`repro.parallel.parallel_map`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..data import EvalSample, SequenceCorpus
from ..data.interactions import Split, leave_one_out_split
from ..data.synthetic import SyntheticDataset
from ..eval import EvaluationResult, evaluate_model
from ..lineup import CLASSES, LINEUP, lineup_config
from .config import BenchmarkSettings


def _build(model: str, dataset: SyntheticDataset, config):
    return CLASSES[model].build(dataset.corpus.num_users, dataset.num_items,
                                dataset.features, config)


def build_model(name: str, dataset: SyntheticDataset,
                settings: BenchmarkSettings):
    """Instantiate a model by its Table IV name."""
    return _build(LINEUP[name][0], dataset,
                  lineup_config(name, dataset.name, settings))


@dataclass
class RunResult:
    """One fit's outcome: its evaluation when it was scored, else the
    fitted model.  ``model_name`` is the model's lineup name."""

    model_name: str
    dataset_name: str
    result: Optional[EvaluationResult]
    fit_seconds: float
    final_loss: float
    model: Any = None

    @property
    def f1(self) -> float:
        return 100.0 * self.result.mean("f1")

    @property
    def ndcg(self) -> float:
        return 100.0 * self.result.mean("ndcg")


@dataclass(frozen=True)
class FitSpec:
    """One fit: class ``model`` of :data:`repro.lineup.CLASSES` built
    under ``config`` for ``dataset``, fitted on ``train``, then scored on
    ``samples`` at top-``z`` unless ``samples`` is ``None``."""

    model: str
    dataset: SyntheticDataset
    config: Any
    train: SequenceCorpus
    samples: Optional[Sequence[EvalSample]] = None
    z: Optional[int] = None


def lineup_fit(name: str, dataset: SyntheticDataset, split: Split,
               settings: BenchmarkSettings) -> FitSpec:
    """Lineup entry ``name`` at the settings' config, fitted on the
    train split and scored on the test split."""
    return FitSpec(LINEUP[name][0], dataset,
                   lineup_config(name, dataset.name, settings), split.train,
                   split.test, settings.z)


def fit_and_score(spec: FitSpec) -> RunResult:
    """Build, fit and score one :class:`FitSpec`.

    A scored fit returns its evaluation and drops the model, so a fan-out
    ships no model back; an unscored one returns the fitted model.
    Module-level so :func:`repro.parallel.parallel_map` pickles it by
    qualified name under every start method.
    """
    model = _build(spec.model, spec.dataset, spec.config)
    start = time.perf_counter()
    fit = model.fit(spec.train)
    fit_seconds = time.perf_counter() - start
    result = None
    if spec.samples is not None:
        result = evaluate_model(model, spec.samples, z=spec.z)
    return RunResult(model.name, spec.dataset.name, result, fit_seconds,
                     fit.final_loss, model if result is None else None)


def run_models(names: Sequence[str], dataset: SyntheticDataset,
               settings: BenchmarkSettings) -> List[RunResult]:
    """Run a list of models on the same dataset and split, in name
    order."""
    split = leave_one_out_split(dataset.corpus)
    return [fit_and_score(lineup_fit(name, dataset, split, settings))
            for name in names]
