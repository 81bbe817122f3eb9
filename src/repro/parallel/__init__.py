"""`repro.parallel` — deterministic multi-process execution layer.

A dependency-free (stdlib ``multiprocessing`` + numpy) process pool with
per-task deterministic seeding, BLAS thread pinning, bounded timeouts with
retry, structured failure capture and an automatic serial fallback —
plus adapters that wire the repo's embarrassingly-parallel outer loops
(event-log generation, Table IV lineup, Table III grid search) through
it.  See ``docs/PARALLEL.md``.
"""

from .adapters import (grid_scores_parallel, run_models_parallel,
                       run_table_cells)
from .pool import (BLAS_ENV_VARS, DEFAULT_WORKER_CAP, ProcessMap, TaskResult,
                   WorkerError, available_cpus, default_context,
                   default_workers, process_map, resolve_workers,
                   task_seed_sequence, unwrap)

__all__ = [
    "BLAS_ENV_VARS", "DEFAULT_WORKER_CAP", "ProcessMap", "TaskResult",
    "WorkerError", "available_cpus", "default_context", "default_workers",
    "grid_scores_parallel", "process_map", "resolve_workers",
    "run_models_parallel", "run_table_cells", "task_seed_sequence", "unwrap",
]
