"""A Causer fit holds no item-sized array it does not need.

Eq. 9 factors the item graph as ``W = Ā Wᶜ Āᵀ``, so the ``W^c`` seed is
scaled from row blocks of that product, never the whole ``(V+1)²``
matrix.  A training step's graph keeps, of the item-cluster module's
``(V+1, encoder_hidden)`` arrays, only the hidden ``σ`` each fused
perceptron (eqs. 6 and 8) saves for its backward, and no basket gather
``(B, T, S, d)``.  The graph is read through the engine's observer hook
when the first backward starts, as ``test_step_graph_lifetime.py`` does.
"""

import tracemalloc

import numpy as np

from repro.core import Causer, CauserConfig
from repro.data import EvalSample
from repro.nn import tensor as tensor_mod


def test_seed_graph_never_builds_the_item_matrix():
    num_items, num_clusters = 1500, 4
    rng = np.random.default_rng(0)
    features = rng.normal(size=(num_items + 1, 3))
    config = CauserConfig(num_clusters=num_clusters, embedding_dim=4,
                          hidden_dim=4, encoder_hidden_dim=4, seed=0)
    model = Causer(5, num_items, features, config)
    samples = [EvalSample(user_id=u,
                          history=tuple((int(i),) for i in
                                        rng.integers(1, num_items + 1, 6)),
                          target=(int(rng.integers(1, num_items + 1)),))
               for u in range(5)]
    tracemalloc.start()
    try:
        model._seed_graph(samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (num_items + 1) ** 2 * 8
    # The blocked peak scales the seed exactly as the full product would.
    assignments = model.clusters.assignments().data
    full = assignments @ model.graph.weights.data @ assignments.T
    np.testing.assert_allclose(full.max(), 0.6, rtol=1e-12)


class GraphArrays:
    """Observer recording the arrays a step's graph holds at its first
    backward: every node's data and every array its backward saved."""

    def __init__(self) -> None:
        self.arrays = None

    def on_backward_start(self, root, topo) -> None:
        if self.arrays is not None:
            return
        self.arrays = []
        for node in topo:
            self.arrays.append((node.data, None, None))
            backward = node._backward
            if backward is None or backward.__closure__ is None:
                continue
            for name, cell in zip(backward.__code__.co_freevars,
                                  backward.__closure__):
                if isinstance(cell.cell_contents, np.ndarray):
                    self.arrays.append((cell.cell_contents,
                                        backward.__qualname__, name))

    def on_create(self, out, parents) -> None:
        pass

    def on_node_backward(self, node) -> None:
        pass

    def on_backward_end(self, root) -> None:
        pass

    def on_accumulate(self, tensor, grad) -> None:
        pass


def test_step_graph_keeps_only_the_perceptron_hiddens(
        tiny_dataset, tiny_train_samples, monkeypatch):
    config = CauserConfig(num_clusters=4, embedding_dim=6, hidden_dim=5,
                          encoder_hidden_dim=7, num_epochs=1, batch_size=16,
                          max_history=8, seed=0)
    model = Causer(tiny_dataset.corpus.num_users, tiny_dataset.num_items,
                   tiny_dataset.features, config)
    items_shapes = []
    original = model.training_loss

    def recording(batch, *args, **kwargs):
        items_shapes.append(batch.items.shape)
        return original(batch, *args, **kwargs)

    monkeypatch.setattr(model, "training_loss", recording)
    observer = GraphArrays()
    previous = tensor_mod.set_graph_observer(observer)
    try:
        model.fit_samples(tiny_train_samples)
    finally:
        tensor_mod.set_graph_observer(previous)

    item_hidden = (tiny_dataset.num_items + 1, config.encoder_hidden_dim)
    held = {id(array): (op, name) for array, op, name in observer.arrays
            if array.shape == item_hidden}
    saved_hiddens = {key for key, (op, name) in held.items()
                     if op is not None and op.startswith("fused_perceptron")
                     and name == "hidden"}
    # Two encodes (the logits and the penalties) and one decode (eq. 8).
    assert len(saved_hiddens) == 3
    assert set(held) == saved_hiddens
    gather = items_shapes[0] + (config.embedding_dim,)
    assert all(array.shape != gather for array, _, _ in observer.arrays)
