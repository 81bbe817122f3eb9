"""At most one autograd graph is alive per training step.

A step's ``loss`` stays bound in the training loop until the next step's
forward rebinds it.  Because ``backward()`` releases the graph it consumes,
that root holds nothing, so no other tensor made by step k is alive when
step k+1's forward starts.  Each fit is watched by wrapping
``training_loss`` and tagging every graph node with the step that made it.
"""

import gc

import pytest

from repro.core import Causer, CauserConfig
from repro.models import GRU4Rec, TrainConfig
from repro.nn import Tensor
from repro.nn import tensor as tensor_mod
from repro.online import EventLog, OnlineTrainer

from ..online.conftest import fill_log

#: Steps watched per fit; the gc scan each one costs is kept to a few.
WATCHED_STEPS = 4


class StepTagger:
    """Graph observer stamping each new node's ``_op_meta`` with the step."""

    def __init__(self) -> None:
        self.step = 0

    def on_create(self, out, parents) -> None:
        out._op_meta = ("step", self.step)

    def on_backward_start(self, root, topo) -> None:
        pass

    def on_node_backward(self, node) -> None:
        pass

    def on_backward_end(self, root) -> None:
        pass

    def on_accumulate(self, tensor, grad) -> None:
        pass


@pytest.fixture
def watch_steps(monkeypatch):
    """Wrap ``model.training_loss``; return the per-step stale-node counts."""
    tagger = StepTagger()
    previous = tensor_mod.set_graph_observer(tagger)
    stale_counts = []

    def watch(model):
        original = model.training_loss
        last_root = []

        def wrapped(*args, **kwargs):
            if last_root and tagger.step <= WATCHED_STEPS:
                root = last_root[0]
                assert root._parents == ()
                stale = [obj for obj in gc.get_objects()
                         if type(obj) is Tensor and obj is not root
                         and obj._op_meta is not None
                         and obj._op_meta[0] == "step"
                         and obj._op_meta[1] <= tagger.step]
                stale_counts.append(len(stale))
            tagger.step += 1
            loss = original(*args, **kwargs)
            last_root[:] = [loss]
            return loss

        monkeypatch.setattr(model, "training_loss", wrapped)
        return stale_counts

    yield watch
    tensor_mod.set_graph_observer(previous)


def test_causer_fit_keeps_one_graph_alive(tiny_dataset, tiny_train_samples,
                                          watch_steps):
    config = CauserConfig(num_clusters=4, embedding_dim=6, hidden_dim=6,
                          num_epochs=1, batch_size=16, max_history=8,
                          seed=0)
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    stale_counts = watch_steps(model)
    model.fit_samples(tiny_train_samples)
    assert len(stale_counts) == WATCHED_STEPS
    assert stale_counts == [0] * WATCHED_STEPS


def test_sequential_baseline_fit_keeps_one_graph_alive(
        tiny_dataset, tiny_train_samples, watch_steps):
    config = TrainConfig(embedding_dim=8, hidden_dim=8, num_epochs=1,
                         batch_size=16, max_history=8, seed=0)
    model = GRU4Rec(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                    config)
    stale_counts = watch_steps(model)
    model.fit_samples(tiny_train_samples)
    assert len(stale_counts) == WATCHED_STEPS
    assert stale_counts == [0] * WATCHED_STEPS


def test_online_trainer_keeps_one_graph_alive(tiny_dataset, watch_steps):
    config = CauserConfig(num_clusters=4, embedding_dim=6, hidden_dim=6,
                          num_epochs=1, pretrain_graph=False, max_history=8,
                          seed=0)
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    log = EventLog(None)
    trainer = OnlineTrainer(model, log, lr=0.05, batch_events=16)
    stale_counts = watch_steps(model)
    fill_log(log, 16 * (WATCHED_STEPS + 2))
    assert trainer.pump() == WATCHED_STEPS + 2
    log.close()
    assert len(stale_counts) == WATCHED_STEPS
    assert stale_counts == [0] * WATCHED_STEPS
