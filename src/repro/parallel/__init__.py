"""`repro.parallel` — one order-preserving process fan-out.

:func:`parallel_map` runs a module-level function over picklable specs on
a ``concurrent.futures`` process pool (inline when one worker suffices),
returns the values in spec order and raises :class:`WorkerError` on the
first failure.  The repo's embarrassingly-parallel loops (event-log
generation, the Table IV lineup, the Table III grid) each call it once.
See ``docs/PARALLEL.md``.
"""

from .pool import (BLAS_ENV_VARS, DEFAULT_WORKER_CAP, WorkerError,
                   available_cpus, default_context, default_workers,
                   parallel_map, resolve_workers)

__all__ = [
    "BLAS_ENV_VARS", "DEFAULT_WORKER_CAP", "WorkerError", "available_cpus",
    "default_context", "default_workers", "parallel_map", "resolve_workers",
]
