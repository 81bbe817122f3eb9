"""Module-level task functions for the pool tests.

They live in a real importable module (not the test files) so they pickle
by qualified name under every start method, including ``spawn``.
"""

import os

import numpy as np


def square(x):
    return x * x


def seeded_normal(seed):
    """Draw from a generator the spec itself seeds."""
    rng = np.random.default_rng(seed)
    return [float(v) for v in rng.normal(size=4)]


def explode_on_two(x):
    if x == 2:
        raise ValueError("task exploded on purpose")
    return x


def nested_map(values):
    """A task that itself fans out — must fall back to serial and work."""
    from repro.parallel import parallel_map
    return parallel_map(square, values, workers=4)


def read_blas_env(_):
    return {var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}


def hard_exit(_):
    """Kill the worker process without a traceback (simulated crash)."""
    os._exit(17)


def identity(spec):
    return spec


class Unpicklable:
    """A spec that refuses to cross a process boundary."""

    def __reduce__(self):
        raise TypeError("Unpicklable refuses to be pickled")


def nested_explode(values):
    """A task whose own (serial) fan-out fails."""
    from repro.parallel import parallel_map
    return parallel_map(explode_on_two, values, workers=4, name="inner")


#: Rebound by a test in the parent: a forked worker inherits the new
#: value, a spawned one re-imports this module and sees this one.
MARKER = "imported"


def read_marker(_):
    return MARKER
