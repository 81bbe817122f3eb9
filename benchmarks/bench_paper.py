"""Every paper experiment at its registered arguments, with its claims.

One test per entry of ``repro.exp.EXPERIMENTS``: it runs the entry,
prints its table, archives it as ``benchmarks/results/<name>.txt`` and
asserts each of the entry's shape claims, naming those that fail.  Run
all of them, or pick entries by name with ``-k``::

    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -q -k "table2 or fig3"
"""

import pathlib

import pytest

from repro.exp import EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_paper_experiment(name, capsys):
    experiment = EXPERIMENTS[name]
    result = experiment()
    text = result.render()
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    with capsys.disabled():
        print("\n" + text)
    failed = [claim for claim, holds in experiment.claims.items()
              if not holds(result)]
    assert failed == []
