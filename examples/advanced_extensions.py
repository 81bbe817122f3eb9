"""Model persistence: save a trained Causer and reload it for inference.

Trains a small Causer, writes it to a ``.npz`` checkpoint with
:func:`repro.io.save_model`, restores it with :func:`repro.io.load_model`
and checks that both produce the same top-5 recommendations.  The same
checkpoint format is what ``python -m repro serve --checkpoint`` loads.

Run:  python examples/advanced_extensions.py
"""

import tempfile

from repro.core import Causer, CauserConfig
from repro.data import SimulatorConfig, generate_dataset, leave_one_out_split
from repro.io import load_model, save_model


def persistence_demo() -> None:
    print("=== Save / load a trained model ===")
    dataset = generate_dataset(SimulatorConfig(num_users=120, num_items=40,
                                               num_clusters=4, seed=5),
                               name="persist-demo")
    split = leave_one_out_split(dataset.corpus)
    model = Causer(dataset.corpus.num_users, dataset.num_items,
                   dataset.features,
                   CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=3,
                                num_clusters=4, epsilon=0.2, seed=0))
    model.fit(split.train)
    with tempfile.NamedTemporaryFile(suffix=".npz") as handle:
        save_model(model, handle.name)
        restored = load_model(handle.name)
    original = model.recommend(split.test[:1], z=5)
    reloaded = restored.recommend(split.test[:1], z=5)
    print(f"recommendations before save: {original[0]}")
    print(f"recommendations after load:  {reloaded[0]}")
    assert original == reloaded


if __name__ == "__main__":
    persistence_demo()
