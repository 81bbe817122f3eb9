"""Pool-core tests: ordering, serial fallback, failure paths, start method."""

import multiprocessing as mp
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.parallel.pool as pool
from repro.parallel import (DEFAULT_WORKER_CAP, WorkerError, available_cpus,
                            default_workers, parallel_map, resolve_workers)

from . import tasks


class TestWorkerResolution:
    def test_serial_for_single_task(self):
        assert resolve_workers(8, 1) == 1

    def test_zero_and_one_force_serial(self):
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(1, 10) == 1

    def test_clamped_to_task_count(self):
        assert resolve_workers(8, 3) == 3

    def test_default_workers_capped(self, monkeypatch):
        assert 1 <= default_workers() <= DEFAULT_WORKER_CAP
        monkeypatch.setattr(pool, "DEFAULT_WORKER_CAP", 2)
        assert default_workers() <= 2

    def test_available_cpus_positive(self):
        assert available_cpus() >= 1


class TestMapping:
    def test_results_in_spec_order(self):
        assert (parallel_map(tasks.square, list(range(10)), workers=3)
                == [x * x for x in range(10)])

    def test_empty_specs(self):
        assert parallel_map(tasks.square, [], workers=4) == []

    def test_serial_fallback_matches(self):
        assert parallel_map(tasks.square, [1, 2, 3], workers=1) == [1, 4, 9]

    def test_spawn_context(self, monkeypatch):
        """The start method without ``fork``: ordered, bit-identical."""
        monkeypatch.setattr(pool, "default_context", lambda: "spawn")
        monkeypatch.setattr(tasks, "MARKER", "inherited")
        assert (parallel_map(tasks.read_marker, [None, None], workers=2)
                == ["imported", "imported"])  # re-imported: really spawned
        seeds = list(range(5))
        assert (parallel_map(tasks.seeded_normal, seeds, workers=3)
                == parallel_map(tasks.seeded_normal, seeds, workers=1))

    def test_start_method_per_platform(self, monkeypatch):
        """``fork`` only on Linux: macOS lists it, but CPython spawns there."""
        monkeypatch.setattr(pool.sys, "platform", "darwin")
        assert pool.default_context() == "spawn"
        monkeypatch.setattr(pool.sys, "platform", "win32")
        assert pool.default_context() == "spawn"
        monkeypatch.setattr(pool.sys, "platform", "linux")
        assert pool.default_context() == "fork"

    def test_nested_region_falls_back_to_serial(self):
        assert (parallel_map(tasks.nested_map, [[1, 2], [3]], workers=2)
                == [[1, 4], [9]])

    def test_unpicklable_spec_runs_inline_when_serial(self):
        spec = tasks.Unpicklable()
        assert parallel_map(tasks.identity, [1, spec], workers=1) == [1, spec]

    def test_unpicklable_spec_fails_fast(self):
        start = time.monotonic()
        with pytest.raises(WorkerError, match=r"pickle demo #1 failed") as info:
            parallel_map(tasks.identity, [1, tasks.Unpicklable(), 3],
                         workers=2, name="pickle demo")
        assert info.value.index == 1
        assert "refuses to be pickled" in str(info.value)
        assert time.monotonic() - start < 10.0
        assert mp.active_children() == []

    def test_workers_pin_blas_env(self):
        envs = parallel_map(tasks.read_blas_env, [None, None], workers=2)
        for worker_env in envs:
            assert worker_env["OMP_NUM_THREADS"] == "1"
            assert worker_env["OPENBLAS_NUM_THREADS"] == "1"


class TestFailureCapture:
    def test_task_error_raises_worker_error(self):
        with pytest.raises(WorkerError,
                           match=r"demo task #2 failed: ValueError: task "
                                 r"exploded on purpose") as info:
            parallel_map(tasks.explode_on_two, [0, 1, 2, 3], workers=2,
                         name="demo task")
        assert (info.value.name, info.value.index) == ("demo task", 2)
        assert isinstance(info.value.__cause__, ValueError)
        assert mp.active_children() == []

    def test_serial_capture_is_identical_in_shape(self):
        errors = []
        for workers in (1, 2):
            with pytest.raises(WorkerError) as info:
                parallel_map(tasks.explode_on_two, [0, 1, 2, 3],
                             workers=workers, name="demo task")
            errors.append(info.value)
        serial, fanned = errors
        assert str(serial) == str(fanned)
        assert type(serial.__cause__) is type(fanned.__cause__) is ValueError

    def test_nested_failure_names_both_operations(self):
        with pytest.raises(WorkerError) as info:
            parallel_map(tasks.nested_explode, [[0], [0, 2]], workers=2,
                         name="outer")
        message = str(info.value)
        assert message.startswith("outer #1 failed: WorkerError: inner #1")
        assert "exploded on purpose" in message

    def test_worker_hard_crash_is_reported(self):
        start = time.monotonic()
        with pytest.raises(WorkerError, match=r"crash demo #0 failed") as info:
            parallel_map(tasks.hard_exit, [None, None], workers=2,
                         name="crash demo")
        assert isinstance(info.value.__cause__, BrokenProcessPool)
        assert time.monotonic() - start < 10.0
        assert mp.active_children() == []
