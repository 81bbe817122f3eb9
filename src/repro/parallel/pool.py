"""One order-preserving fan-out primitive (the `repro.parallel` core).

:func:`parallel_map` applies a module-level function to a list of
picklable task *specs* and returns the values in spec order.  The
contracts the rest of the repo relies on:

* **One copy of the work** — with one effective worker (``workers`` of
  ``0``/``1``, a single spec, or a call from inside a worker) ``fn`` runs
  inline, in spec order, and nothing is pickled.  Otherwise the specs go
  to a :class:`concurrent.futures.ProcessPoolExecutor`.  Callers keep no
  serial branch of their own, so worker count can only change scheduling,
  never a result bit.
* **Spawn safety** — tasks are ``(module-level function, picklable spec)``
  pairs, not closures; the start method is ``fork`` where the platform
  offers it and ``spawn`` elsewhere (:func:`default_context`).
* **Fail fast, never hang** — the first failure in spec order (a task
  that raised, an unpicklable spec or value, a worker that died and broke
  the pool) cancels the pending tasks and raises :class:`WorkerError`
  naming the operation and the task index, chained from the original
  exception.  The serial path raises the same error.
* **No oversubscription** — BLAS/OpenMP thread counts (``OMP_NUM_THREADS``
  etc.) are pinned to 1 in the parent environment while workers start
  (spawn children inherit it at exec time) and again in each worker's
  initializer for libraries loaded later.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

__all__ = [
    "BLAS_ENV_VARS", "DEFAULT_WORKER_CAP", "WorkerError", "available_cpus",
    "default_context", "default_workers", "parallel_map", "resolve_workers",
]

S = TypeVar("S")
R = TypeVar("R")

#: Upper bound applied by :func:`default_workers` — fanning out wider than
#: this rarely helps the workloads in this repo and hurts shared machines.
DEFAULT_WORKER_CAP = 8

#: Thread-count knobs honoured by the BLAS/OpenMP stacks numpy may load.
BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                 "NUMEXPR_NUM_THREADS")

#: Set by the executor's worker initializer.  Executor workers are not
#: daemonic, so this marker is what sends nested calls down the serial path.
_IN_WORKER = False


def available_cpus() -> int:
    """CPUs usable by this process (affinity/cgroup aware where possible)."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:
        count = counter()
        if count:
            return int(count)
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:
            pass
    return max(1, os.cpu_count() or 1)


def default_workers(cap: int = DEFAULT_WORKER_CAP) -> int:
    """CPU-count-aware default worker count, capped at ``cap``."""
    return max(1, min(int(cap), available_cpus()))


def in_parallel_region() -> bool:
    """True inside a pool worker or a daemonic process (no children)."""
    return _IN_WORKER or bool(mp.current_process().daemon)


def resolve_workers(workers: Optional[int], num_tasks: int) -> int:
    """Effective worker count for ``num_tasks`` tasks.

    ``None`` means :func:`default_workers`; ``0``/``1`` force serial; the
    result is clamped to the task count; nested parallel regions always
    resolve to 1 (the serial path).
    """
    if num_tasks <= 1:
        return 1
    if workers is None:
        workers = default_workers()
    workers = int(workers)
    if workers <= 1:
        return 1
    if in_parallel_region():
        return 1
    return min(workers, num_tasks)


def default_context() -> str:
    """Start method for this platform: ``fork`` where available (cheap
    startup, no re-import), ``spawn`` elsewhere."""
    if "fork" in mp.get_all_start_methods():
        return "fork"
    return "spawn"


class WorkerError(RuntimeError):
    """The first failed task of a :func:`parallel_map` call.

    ``name`` is the operation label and ``index`` the task's position in
    the spec list; the original exception is the ``__cause__``.
    """

    def __init__(self, name: str, index: int, reason: str) -> None:
        # All three go to ``args`` so the error pickles back from a worker.
        super().__init__(name, index, reason)
        self.name = name
        self.index = index

    def __str__(self) -> str:
        name, index, reason = self.args
        return f"{name} #{index} failed: {reason}"


def _failure(name: str, index: int, exc: BaseException) -> WorkerError:
    return WorkerError(name, index, f"{type(exc).__name__}: {exc}")


def _pin_blas_environ() -> None:
    for var in BLAS_ENV_VARS:
        os.environ[var] = "1"


@contextmanager
def _pinned_parent_env() -> Iterator[None]:
    """Pin BLAS vars in the parent while workers start, then restore.

    spawn/forkserver children inherit ``os.environ`` at exec time, which is
    the only reliable moment to cap BLAS pools (the libraries size their
    thread pools at import).
    """
    saved = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
    _pin_blas_environ()
    try:
        yield
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def _init_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    _pin_blas_environ()


def parallel_map(fn: Callable[[S], R], specs: Sequence[S], *,
                 workers: Optional[int] = None,
                 name: str = "parallel task") -> List[R]:
    """``[fn(spec) for spec in specs]``, fanned out over processes.

    ``workers``: ``None`` → :func:`default_workers`; ``0``/``1`` → inline.
    Values come back in spec order; the first failure in spec order raises
    :class:`WorkerError` labelled ``name`` (see the module docs).
    """
    specs = list(specs)
    count = resolve_workers(workers, len(specs))
    if count <= 1:
        values = []
        for index, spec in enumerate(specs):
            try:
                values.append(fn(spec))
            except Exception as exc:
                raise _failure(name, index, exc) from exc
        return values

    from concurrent.futures import ProcessPoolExecutor
    executor = ProcessPoolExecutor(
        max_workers=count, mp_context=mp.get_context(default_context()),
        initializer=_init_worker)
    try:
        with _pinned_parent_env():
            futures = [executor.submit(fn, spec) for spec in specs]
        values = []
        for index, future in enumerate(futures):
            try:
                values.append(future.result())
            except Exception as exc:
                raise _failure(name, index, exc) from exc
        return values
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
