"""Fan-out adapters: the repo's embarrassingly-parallel loops as task maps.

Each adapter turns one serial outer loop — event-log generation, the
Table IV model lineup, the Table III grid search — into a list of
pickle-able task specs executed through
:class:`~repro.parallel.pool.ProcessMap`.  All shared inputs (dataset,
split, settings) are computed **once in the parent** and shipped to the
workers inside the specs, so serial and parallel runs consume exactly the
same inputs and return bit-identical floats.

The task functions are module-level on purpose: they pickle by qualified
name under every start method, including ``spawn``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..data.interactions import EvalSample, Split, leave_one_out_split
from ..data.synthetic import SyntheticDataset
from .pool import process_map, unwrap

if TYPE_CHECKING:
    from ..exp.config import BenchmarkSettings
    from ..exp.runner import RunResult

__all__ = [
    "generate_shards_parallel", "grid_scores_parallel", "run_models_parallel",
    "run_table_cells",
]


# ----------------------------------------------------------------------
# Event-log generation: one process per shard of users
# ----------------------------------------------------------------------
def generate_shards_parallel(config, name: str,
                             user_ranges: Sequence[Tuple[int, int]], *,
                             workers: Optional[int] = None,
                             timeout: Optional[float] = None) -> List:
    """Simulate contiguous user ranges in parallel; ordered column tuples.

    Each task rebuilds the simulator from ``config`` (deterministic) and
    draws every user from its keyed per-user stream, so results depend
    only on the user range — the bit-identity contract of
    :func:`repro.data.eventlog.generate_eventlog`.  The import is lazy to
    keep ``repro.data`` importable without the model stack.
    """
    from ..data.eventlog import _simulate_shard_task
    specs = [(config, name, int(start), int(stop))
             for start, stop in user_ranges]
    results = process_map(_simulate_shard_task, specs, workers=workers,
                          timeout=timeout)
    return unwrap(results, context="eventlog shard")


# ----------------------------------------------------------------------
# Table IV lineup: one process per (model, dataset) cell
# ----------------------------------------------------------------------
def _run_model_task(spec: Tuple[str, SyntheticDataset, BenchmarkSettings,
                                Split]) -> RunResult:
    from ..exp.runner import run_model
    name, dataset, settings, split = spec
    return run_model(name, dataset, settings, split=split)


def run_models_parallel(names: Sequence[str], dataset: SyntheticDataset,
                        settings: BenchmarkSettings, *,
                        workers: Optional[int] = None,
                        split: Optional[Split] = None,
                        timeout: Optional[float] = None) -> List[RunResult]:
    """Parallel counterpart of :func:`repro.exp.runner.run_models`.

    The leave-one-out split is computed once here and shipped to every
    worker, exactly as the serial loop shares one split across models.
    """
    if split is None:
        split = leave_one_out_split(dataset.corpus)
    specs = [(name, dataset, settings, split) for name in names]
    results = process_map(_run_model_task, specs, workers=workers,
                          timeout=timeout)
    return unwrap(results, context="model run")


def run_table_cells(cells: Sequence[Tuple[str, SyntheticDataset, Split]],
                    settings: BenchmarkSettings, *,
                    workers: Optional[int] = None,
                    timeout: Optional[float] = None) -> List[RunResult]:
    """Run explicit (model name, dataset, split) cells, in cell order.

    This is the Table IV fan-out shape: the full datasets x models
    cross-product becomes one flat task list, so a wide lineup keeps all
    workers busy even when individual datasets are small.
    """
    specs = [(name, dataset, settings, split)
             for name, dataset, split in cells]
    results = process_map(_run_model_task, specs, workers=workers,
                          timeout=timeout)
    return unwrap(results, context="table cell")


# ----------------------------------------------------------------------
# Table III grid search: one process per hyper-parameter combo
# ----------------------------------------------------------------------
def _grid_combo_task(spec) -> Tuple[Dict, float]:
    (dataset, overrides, settings, train_corpus, eval_samples,
     metric) = spec
    from ..core import Causer
    from ..eval import evaluate_model

    config = settings.causer_config(dataset.name, **overrides)
    model = Causer(dataset.corpus.num_users, dataset.num_items,
                   dataset.features, config)
    model.fit(train_corpus)
    evaluation = evaluate_model(model, eval_samples, z=settings.z)
    return overrides, 100.0 * evaluation.mean(metric)


def grid_scores_parallel(dataset: SyntheticDataset,
                         combos: Sequence[Dict],
                         settings: BenchmarkSettings,
                         train_corpus, eval_samples: Sequence[EvalSample],
                         metric: str, *,
                         workers: Optional[int] = None,
                         timeout: Optional[float] = None
                         ) -> List[Tuple[Dict, float]]:
    """Score every hyper-parameter combo; one (overrides, score) per combo.

    Results come back in combo order regardless of worker scheduling, so
    :class:`~repro.exp.grid.GridSearchResult.scores` is order-stable.
    """
    specs = [(dataset, dict(combo), settings, train_corpus,
              list(eval_samples), metric) for combo in combos]
    results = process_map(_grid_combo_task, specs, workers=workers,
                          timeout=timeout)
    return unwrap(results, context="grid combo")
