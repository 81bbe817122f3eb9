"""End-to-end tests for ``python -m repro.analysis`` (the gradlint CLI).

A fixture tree seeds one violation of every rule; the CLI must exit
non-zero on it, exit zero on a clean tree, and speak JSON.
"""

import json
import textwrap

import pytest

from repro.analysis.cli import main

RULE_IDS = ("GL001", "GL002", "GL003", "GL004", "GL005", "GL006", "GL008",
            "CL001", "CL002", "CL003", "CL004", "CL005")


@pytest.fixture
def violating_tree(tmp_path):
    """One seeded violation per rule, across a realistic mini-layout."""
    nn = tmp_path / "nn"
    nn.mkdir()
    # GL001 + GL003-exemption interplay: tensor.py is sanctioned for
    # mutation but not for missing _unbroadcast.
    (nn / "tensor.py").write_text(textwrap.dedent("""
        def __mul__(self, other_t):
            def backward(grad):
                self._accumulate(grad * other_t.data)
            return Tensor._make(self.data * other_t.data, (self, other_t), backward)
    """))
    # GL002: graph bypass inside a differentiable layer.
    (nn / "functional.py").write_text(
        "def softmax(x):\n    return Tensor(x.data.max(axis=-1))\n")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    # GL006: phantom export.
    (pkg / "__init__.py").write_text(
        'from .trainer import fit\n\n__all__ = ["fit", "predict"]\n')
    # GL003 + GL004 + GL005 in one training module.
    (pkg / "trainer.py").write_text(textwrap.dedent("""
        import numpy as np

        def fit(model):
            noise = np.random.randn(4)
            model.weight.data[...] = noise
            try:
                model.step()
            except:
                pass
    """))
    # GL008: memmap inflation in a repro/data module.
    data = tmp_path / "repro" / "data"
    data.mkdir(parents=True)
    (data / "loader.py").write_text(textwrap.dedent("""
        import numpy as np

        def load_column(path):
            col = np.load(path, mmap_mode="r")
            return np.asarray(col)
    """))
    # CL001–CL005 in one server module.
    (pkg / "server.py").write_text(textwrap.dedent("""
        import threading
        import time

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._other_lock = threading.Lock()
                self._items = []
                self._worker = threading.Thread(target=self.drain)

            def add(self, item):
                self._items.append(item)

            def swap(self):
                with self._lock:
                    with self._other_lock:
                        pass

            def swap_back(self):
                with self._other_lock:
                    with self._lock:
                        pass

            def drain(self):
                self._lock.acquire()
                try:
                    with self._other_lock:
                        self._worker.join()
                finally:
                    self._lock.release()
    """))
    return tmp_path


@pytest.fixture
def clean_tree(tmp_path):
    (tmp_path / "ok.py").write_text(
        "import numpy as np\n\nrng = np.random.default_rng(3)\n")
    return tmp_path


def test_exit_nonzero_on_seeded_violations(violating_tree, capsys):
    assert main([str(violating_tree)]) == 1
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out, f"{rule_id} missing from CLI output"


def test_exit_zero_on_clean_tree(clean_tree, capsys):
    assert main([str(clean_tree)]) == 0
    assert "clean" in capsys.readouterr().out


def test_json_format(violating_tree, capsys):
    assert main([str(violating_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro.analysis/v2"
    assert payload["files_checked"] == 6
    found_rules = {f["rule"] for f in payload["findings"]}
    assert found_rules == set(RULE_IDS)
    sample = payload["findings"][0]
    assert {"path", "line", "col", "rule", "family", "severity",
            "message"} <= set(sample)
    assert all(f["family"] == f["rule"][:2] for f in payload["findings"])
    assert set(payload["families"]) == {"GL", "CL"}
    assert payload["families"]["CL"] >= 5


def test_select_and_ignore(violating_tree, capsys):
    assert main([str(violating_tree), "--select", "GL004"]) == 1
    out = capsys.readouterr().out
    assert "GL004" in out and "GL005" not in out

    assert main([str(violating_tree), "--ignore"] + list(RULE_IDS)) == 2
    assert "no rules selected" in capsys.readouterr().out


def test_rules_family_filter(violating_tree, capsys):
    """--rules CL runs racelint alone (the blocking CI step)."""
    assert main([str(violating_tree), "--rules", "CL"]) == 1
    out = capsys.readouterr().out
    assert "CL001" in out and "CL004" in out
    assert "GL" not in out

    assert main([str(violating_tree), "--rules", "ZZ"]) == 2
    assert "no rules selected" in capsys.readouterr().out


def test_suppressed_violation_passes(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n"
        "np.random.seed(0)  # gradlint: disable=GL004 — fixture needs it\n")
    assert main([str(tmp_path)]) == 0
    assert "1 suppressed" in capsys.readouterr().out


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
    assert "disable=" in out


def test_missing_path_is_an_error_not_clean(tmp_path, capsys):
    """A typo'd path in CI must not read as a clean run."""
    missing = str(tmp_path / "nowhere")
    assert main([missing]) == 2
    assert "no such file or directory" in capsys.readouterr().out


def test_single_file_target(violating_tree, capsys):
    path = str(violating_tree / "pkg" / "trainer.py")
    assert main([path]) == 1
    out = capsys.readouterr().out
    assert "GL004" in out and "GL001" not in out
