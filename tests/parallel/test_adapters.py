"""Serial/parallel equivalence for the wired fan-out sites.

Every assertion here is exact (``==`` on floats), not approximate: the
adapters' contract is that worker count never changes a single bit of the
results.
"""

import pickle

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.interactions import leave_one_out_split
from repro.exp import BenchmarkSettings, grid_search_causer, run_models
from repro.exp import runner
from repro.exp.runner import build_model
from repro.nn import Tensor
from repro.parallel import WorkerError


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("baby", scale=0.02, seed=1)


@pytest.fixture(scope="module")
def settings():
    return BenchmarkSettings(scale=0.02, num_epochs=2, quick=True)


def assert_runs_identical(runs_a, runs_b):
    assert [r.model_name for r in runs_a] == [r.model_name for r in runs_b]
    for a, b in zip(runs_a, runs_b):
        assert a.final_loss == b.final_loss
        assert a.result.per_user == b.result.per_user  # exact, per metric


class TestRunnerEquivalence:
    def test_workers_1_vs_4_bit_identical(self, dataset, settings,
                                          monkeypatch):
        names = ("Pop", "BPR", "GRU4Rec")
        serial = run_models(names, dataset, settings)
        monkeypatch.setattr(runner, "RUN_MODELS_WORKERS", 4)
        fanned = run_models(names, dataset, settings)
        assert_runs_identical(serial, fanned)

    def test_worker_crash_surfaces_traceback(self, dataset, settings,
                                             monkeypatch):
        monkeypatch.setattr(runner, "RUN_MODELS_WORKERS", 2)
        with pytest.raises(WorkerError,
                           match="model run #1 failed: .*unknown model name"):
            run_models(("Pop", "no-such-model"), dataset, settings)


class TestGridEquivalence:
    def test_workers_1_vs_4_identical_scores(self, dataset, settings):
        grid = {"epsilon": [0.2, 0.3]}
        serial = grid_search_causer(dataset, grid, settings, workers=1)
        fanned = grid_search_causer(dataset, grid, settings, workers=4)
        assert serial.scores == fanned.scores  # same overrides, same floats
        assert serial.best == fanned.best


class TestTensorPickling:
    def test_pickle_detaches_from_graph(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = (x * 3.0).sum()
        clone = pickle.loads(pickle.dumps(y))
        assert clone.data == y.data
        assert clone._backward is None and clone._parents == ()

    def test_trained_model_roundtrip_scores_identically(self, dataset,
                                                        settings):
        split = leave_one_out_split(dataset.corpus)
        model = build_model("BPR", dataset, settings)
        model.fit(split.train)
        clone = pickle.loads(pickle.dumps(model))
        samples = split.test[:8]
        assert (clone.score_samples(samples)
                == model.score_samples(samples)).all()
