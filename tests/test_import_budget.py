"""Import budget: each entrypoint loads only what it runs.

A serving process scores eq. 10 on frozen artifacts and needs numpy
alone; scipy (NOTEARS' expm and optimizer, the paired t-test), networkx
(DAG utilities) and the experiment/analysis layers belong to training, the
studies and the tooling.  Every check runs in a fresh interpreter, since
the test process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
HEAVY = ("scipy", "networkx", "repro.exp", "repro.analysis")


def _loaded_after(statements: str) -> set:
    """Top-level names of the modules in ``sys.modules`` after ``statements``."""
    code = (f"{statements}\n"
            "import json, sys\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def _heavy(modules: set) -> set:
    return {name for name in modules
            if any(name == h or name.startswith(h + ".") for h in HEAVY)}


def test_serving_imports_are_numpy_only():
    loaded = _loaded_after(
        "import repro.cli, repro.serve, repro.io, repro.retrieval")
    assert _heavy(loaded) == set()


def test_multiprocess_worker_imports_are_numpy_only():
    """A ``repro.parallel`` pool worker starts on numpy alone."""
    loaded = _loaded_after("import repro.parallel")
    assert _heavy(loaded) == set()


def test_online_refresh_preloads_its_dependencies():
    loaded = _loaded_after("import repro.online.refresh")
    assert "scipy.linalg" in loaded
    assert "networkx" not in loaded


def test_online_refresh_cycle_never_loads_networkx():
    """A whole refresh runs without networkx, so traffic never pays for it."""
    loaded = _loaded_after(
        "from repro.core import Causer, CauserConfig\n"
        "from repro.data import SimulatorConfig, generate_dataset\n"
        "from repro.online import EventLog, OnlineTrainer, RefreshController\n"
        "data = generate_dataset(SimulatorConfig(num_users=30, num_items=20,"
        " num_clusters=4, seed=1))\n"
        "model = Causer(data.corpus.num_users, data.num_items, data.features,"
        " CauserConfig(num_clusters=4, embedding_dim=6, hidden_dim=6,"
        " num_epochs=1, pretrain_graph=False, seed=0))\n"
        "log = EventLog(None)\n"
        "for k in range(64):\n"
        "    log.append(k % 8, (1 + k % 20,))\n"
        "trainer = OnlineTrainer(model, log, lr=0.05, batch_events=16)\n"
        "trainer.pump()\n"
        "assert RefreshController(trainer, log, lambda m: None,"
        " window=64).refresh_once()\n")
    assert "scipy.linalg" in loaded
    assert "networkx" not in loaded


@pytest.mark.parametrize("name", ["analysis", "causal", "core", "data",
                                  "eval", "exp", "models", "nn"])
def test_subpackages_resolve_on_first_access(name):
    loaded = _loaded_after(f"import repro\nrepro.{name}")
    assert f"repro.{name}" in loaded


def test_bare_import_repro_loads_no_subpackage():
    loaded = _loaded_after("import repro\nassert repro.nn.Tensor")
    assert "repro.nn" in loaded
    assert not {"repro.exp", "repro.causal", "scipy"} & loaded


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.no_such_subpackage  # noqa: B018
