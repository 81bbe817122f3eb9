"""Memory contract: serving holds eq. 9 as its rank-K factors only.

Eq. 9's item-level matrix ``Ā Wᶜ Āᵀ`` is never materialized as a
(V+1)² array outside inspection calls: not on a generation's artifacts,
not on the served model, not on the trainer's shadow, not on a snapshot.
A refresh measures edge churn from the previous and current factors and
must leave the process no larger than it found it.
"""

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import Causer, CauserConfig
from repro.data import SimulatorConfig, generate_dataset
from repro.online import EventLog, OnlineTrainer, RefreshController
from repro.serve import CheckpointRegistry

from .conftest import fill_log

NUM_ITEMS = 1024
SIDE = NUM_ITEMS + 1


@pytest.fixture(scope="module")
def wide_causer():
    """An untrained shared-mode Causer over a 1,024-item catalog."""
    data = generate_dataset(SimulatorConfig(num_users=40,
                                            num_items=NUM_ITEMS,
                                            num_clusters=4, seed=5))
    config = CauserConfig(num_clusters=4, embedding_dim=6, hidden_dim=6,
                          num_epochs=1, pretrain_graph=False,
                          max_history=8, seed=0)
    return Causer(data.corpus.num_users, data.num_items, data.features,
                  config)


def square_arrays(root, name: str) -> list:
    """Attribute paths of every (V+1, V+1) ndarray reachable via vars()."""
    found, seen, stack = [], set(), [(name, root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.shape == (SIDE, SIDE):
                found.append(path)
            continue
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, (list, tuple)):
            items = enumerate(obj)
        elif type(obj).__module__.startswith("repro.") \
                and hasattr(obj, "__dict__"):
            items = vars(obj).items()
        else:
            continue
        stack.extend((f"{path}.{key}", value) for key, value in items)
    return sorted(found)


def live_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_serving_and_refresh_hold_no_square_causal_matrix(wide_causer):
    matrix_bytes = SIDE * SIDE * 8
    tracemalloc.start()
    try:
        log = EventLog(None)
        fill_log(log, 128, num_items=NUM_ITEMS)
        served = copy.deepcopy(wide_causer)
        trainer = OnlineTrainer(copy.deepcopy(wide_causer), log, lr=0.05,
                                batch_events=16)
        trainer.pump()
        registry = CheckpointRegistry()
        registry.install(served)
        first = registry.current()
        assert square_arrays(first, "artifacts") == []
        assert first.cause_rows.shape == first.assignments.shape == (
            SIDE, wide_causer.config.num_clusters)
        assert square_arrays(served, "served") == []
        refresh = RefreshController(trainer, log, registry.install,
                                    window=128,
                                    baseline=served)
        del first  # let the swap below free generation 1
        before = live_bytes()
        assert refresh.refresh_once() is True
        growth = live_bytes() - before
    finally:
        tracemalloc.stop()
    current = registry.current()
    assert current.generation == 2
    assert square_arrays(current, "artifacts") == []
    for name, model in (("served", current.model),
                        ("trainer", trainer.model),
                        ("snapshot", trainer.snapshot_model())):
        assert square_arrays(model, name) == []
    assert growth < matrix_bytes, (
        f"one refresh left {growth / 2**20:.1f} MiB live, at least one "
        f"(V+1)² matrix ({matrix_bytes / 2**20:.1f} MiB)")
    log.close()
