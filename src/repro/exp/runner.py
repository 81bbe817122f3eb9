"""Model factory and single-run executor for the benchmark harness."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import Causer
from ..data.interactions import Split, leave_one_out_split
from ..data.synthetic import SyntheticDataset
from ..eval import EvaluationResult, evaluate_model
from ..models import (BPR, GRU4Rec, MMSARec, NARM, NCF,
                      PopularityRecommender, SASRec, STAMP, VTRNN)
from ..parallel import parallel_map
from .config import BenchmarkSettings

#: Baseline factories in lineup order, each called as
#: ``factory(num_users, num_items, features, train_config)``.
_BASELINES: Dict[str, Callable] = {
    "Pop": lambda users, items, features, cfg: PopularityRecommender(items),
    "BPR": lambda users, items, features, cfg: BPR(users, items, cfg),
    "NCF": lambda users, items, features, cfg: NCF(users, items, cfg),
    "GRU4Rec": lambda users, items, features, cfg: GRU4Rec(users, items, cfg),
    "NARM": lambda users, items, features, cfg: NARM(users, items, cfg),
    "STAMP": lambda users, items, features, cfg: STAMP(users, items, cfg),
    "SASRec": lambda users, items, features, cfg: SASRec(users, items, cfg),
    "VTRNN": lambda users, items, features, cfg: VTRNN(users, items, features,
                                                       cfg),
    "MMSARec": lambda users, items, features, cfg: MMSARec(users, items,
                                                           features, cfg),
}
#: Table IV baselines plus Pop as a sanity floor.
BASELINE_NAMES = tuple(_BASELINES)
CAUSER_NAMES = ("Causer (LSTM)", "Causer (GRU)")
ALL_MODEL_NAMES = BASELINE_NAMES + CAUSER_NAMES
#: The subset the paper's Table IV reports (Pop is our extra).
TABLE4_MODEL_NAMES = ("BPR", "NCF", "GRU4Rec", "STAMP", "SASRec", "NARM",
                      "VTRNN", "MMSARec") + CAUSER_NAMES

#: Processes :func:`run_models` fans its lineup over (``1`` is serial).
RUN_MODELS_WORKERS = 1


def build_model(name: str, dataset: SyntheticDataset,
                settings: BenchmarkSettings):
    """Instantiate a model by its Table IV name."""
    if name in _BASELINES:
        return _BASELINES[name](dataset.corpus.num_users, dataset.num_items,
                                dataset.features, settings.train_config())
    num_users = dataset.corpus.num_users
    num_items = dataset.num_items
    if name == "Causer (LSTM)":
        return Causer(num_users, num_items, dataset.features,
                      settings.causer_config(dataset.name, cell_type="lstm"))
    if name == "Causer (GRU)":
        return Causer(num_users, num_items, dataset.features,
                      settings.causer_config(dataset.name, cell_type="gru"))
    raise KeyError(f"unknown model name {name!r}; "
                   f"choose from {ALL_MODEL_NAMES}")


@dataclass
class RunResult:
    """One (model, dataset) training + evaluation outcome."""

    model_name: str
    dataset_name: str
    result: EvaluationResult
    fit_seconds: float
    eval_seconds: float
    final_loss: float

    @property
    def f1(self) -> float:
        return 100.0 * self.result.mean("f1")

    @property
    def ndcg(self) -> float:
        return 100.0 * self.result.mean("ndcg")


def run_model(name: str, dataset: SyntheticDataset,
              settings: BenchmarkSettings,
              split: Optional[Split] = None) -> RunResult:
    """Train and evaluate one model on one dataset."""
    if split is None:
        split = leave_one_out_split(dataset.corpus)
    model = build_model(name, dataset, settings)
    start = time.perf_counter()
    fit = model.fit(split.train)
    fit_seconds = time.perf_counter() - start
    start = time.perf_counter()
    result = evaluate_model(model, split.test, z=settings.z)
    eval_seconds = time.perf_counter() - start
    return RunResult(model_name=name, dataset_name=dataset.name,
                     result=result, fit_seconds=fit_seconds,
                     eval_seconds=eval_seconds,
                     final_loss=fit.final_loss)


def _run_model_task(spec: Tuple[str, SyntheticDataset, BenchmarkSettings,
                                Split]) -> RunResult:
    """One (model name, dataset, settings, split) cell; module-level so it
    pickles by qualified name under every start method."""
    name, dataset, settings, split = spec
    return run_model(name, dataset, settings, split=split)


def run_models(names: Sequence[str], dataset: SyntheticDataset,
               settings: BenchmarkSettings) -> List[RunResult]:
    """Run a list of models on the same dataset/split.

    ``RUN_MODELS_WORKERS`` > 1 fans the lineup out one process per model
    through :func:`repro.parallel.parallel_map`; results are identical
    either way and always in name order.
    """
    split = leave_one_out_split(dataset.corpus)
    return parallel_map(_run_model_task,
                        [(name, dataset, settings, split) for name in names],
                        workers=RUN_MODELS_WORKERS, name="model run")
