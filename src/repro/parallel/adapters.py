"""Fan-out adapters: the repo's embarrassingly-parallel loops as task maps.

Each adapter turns one serial outer loop — the Table IV model lineup, the
Table III grid search, sharded evaluation, multi-seed significance runs —
into a list of pickle-able task specs executed through
:class:`~repro.parallel.pool.ProcessMap`.  All shared inputs (dataset,
split, settings) are computed **once in the parent** and shipped to the
workers inside the specs, so serial and parallel runs consume exactly the
same inputs and return bit-identical floats.

The task functions are module-level on purpose: they pickle by qualified
name under every start method, including ``spawn``.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ..data.interactions import EvalSample, Split, leave_one_out_split
from ..data.synthetic import SyntheticDataset
from ..eval.evaluator import EvaluationResult, evaluate_rankings
from .pool import process_map, resolve_workers, unwrap

if TYPE_CHECKING:
    from ..exp.config import BenchmarkSettings
    from ..exp.runner import RunResult

__all__ = [
    "evaluate_model_sharded", "generate_shards_parallel",
    "grid_scores_parallel", "map_seeds", "run_models_parallel",
    "run_table_cells", "shard_batch_ranges",
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


# ----------------------------------------------------------------------
# Sharded evaluation: contiguous sample shards, order-stable reassembly
# ----------------------------------------------------------------------
def shard_batch_ranges(num_samples: int, batch_size: int,
                       num_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` shards aligned to batch boundaries.

    Alignment matters for bit-identical reassembly: each worker's internal
    mini-batches must be exactly the mini-batches the serial loop would
    form, because padding geometry depends on batch composition.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    num_batches = -(-num_samples // batch_size)  # ceil
    num_shards = max(1, min(num_shards, num_batches))
    base, extra = divmod(num_batches, num_shards)
    ranges: List[Tuple[int, int]] = []
    batch_start = 0
    for shard in range(num_shards):
        shard_batches = base + (1 if shard < extra else 0)
        start = batch_start * batch_size
        stop = min((batch_start + shard_batches) * batch_size, num_samples)
        ranges.append((start, stop))
        batch_start += shard_batches
    return ranges


def _eval_shard_task(spec) -> List[List[int]]:
    model, samples, z, batch_size = spec
    rankings: List[List[int]] = []
    for start in range(0, len(samples), batch_size):
        chunk = list(samples[start:start + batch_size])
        rankings.extend(model.recommend(chunk, z=z))
    return rankings


def evaluate_model_sharded(model, samples: Sequence[EvalSample], z: int,
                           batch_size: int, workers: int, *,
                           timeout: Optional[float] = None
                           ) -> EvaluationResult:
    """Sharded counterpart of :func:`repro.eval.evaluator.evaluate_model`.

    The model is pickled once per shard (pickling a
    :class:`~repro.nn.tensor.Tensor` detaches it from the autograd graph),
    shard rankings are reassembled in sample order, and the metric pass
    runs once in the parent — so per-user metric arrays are bit-identical
    to the serial path.
    """
    samples = list(samples)
    ranges = shard_batch_ranges(len(samples), batch_size, workers)
    specs = [(model, samples[start:stop], z, batch_size)
             for start, stop in ranges]
    shard_rankings = unwrap(
        process_map(_eval_shard_task, specs, workers=workers,
                    timeout=timeout),
        context="evaluation shard")
    rankings: List[List[int]] = []
    for shard in shard_rankings:
        rankings.extend(shard)
    return evaluate_rankings(rankings, samples, z=z)


# ----------------------------------------------------------------------
# Multi-seed runs (significance testing)
# ----------------------------------------------------------------------
def _seeded_call_task(spec) -> Any:
    fn, seed, args, kwargs = spec
    return fn(seed, *args, **kwargs)


def map_seeds(fn: Callable[..., Any], seeds: Sequence[int],
              *args: Any, workers: Optional[int] = None,
              timeout: Optional[float] = None, **kwargs: Any) -> List[Any]:
    """Run ``fn(seed, *args, **kwargs)`` once per seed; ordered results.

    ``fn`` must be a module-level (picklable) callable.  Used by
    :mod:`repro.eval.significance` to fan multi-seed model runs out across
    processes while keeping each run's seed explicit in its spec.
    """
    specs = [(fn, int(seed), args, kwargs) for seed in seeds]
    results = process_map(_seeded_call_task, specs, workers=workers,
                          timeout=timeout)
    return unwrap(results, context="seeded run")
