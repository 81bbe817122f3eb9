"""Serial/parallel equivalence for the fan-out sites (Table IV, the grid).

Every assertion here is exact (``==`` on floats), not approximate: the
adapters' contract is that worker count never changes a single bit of the
results.
"""

import pickle

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.interactions import leave_one_out_split
from repro.exp import BenchmarkSettings, grid_search_causer, table4_overall
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


class TestTable4Equivalence:
    def test_workers_1_vs_2_bit_identical(self, settings):
        kwargs = dict(datasets=("baby",), models=("Pop", "BPR", "GRU4Rec"))
        serial = table4_overall(settings, workers=1, **kwargs)
        fanned = table4_overall(settings, workers=2, **kwargs)
        assert_runs_identical(serial.runs, fanned.runs)
        assert (serial.f1, serial.ndcg) == (fanned.f1, fanned.ndcg)

    def test_crashing_cell_names_itself(self):
        """Pop ignores the training budget, BPR cannot be built with a
        negative embedding size: cell #1 (BPR on baby) fails."""
        broken = BenchmarkSettings(scale=0.02, quick=True, embedding_dim=-1)
        with pytest.raises(WorkerError, match=r"table cell #1 failed: "
                                              r"ValueError: .*negative"):
            table4_overall(broken, datasets=("baby",),
                           models=("Pop", "BPR"), workers=2)


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
