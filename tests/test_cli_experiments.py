"""Every registered paper experiment runs through the CLI (quick mode).

Parametrized over ``repro.exp.EXPERIMENTS``, so a new entry is covered
without a new test.  Each entry runs at ``--quick --scale 0.02``, on one
dataset and one cell where it takes ``--datasets`` / ``--cells``; the CLI
must print exactly its result's table, and every claim must evaluate on
that result.  A command given a flag it does not read (an experiment's
restricting flag it does not take, or another command's flag) exits 2
before running anything.  ``test_cli_experiment_commands`` keeps the
hand-picked invocations of the heavier experiments with their
restricting flags.
"""

from dataclasses import replace

import pytest

from repro.cli import main
from repro.exp import EXPERIMENTS

QUICK = {"datasets": ["baby"], "cells": ["gru"], "workers": ["3"]}


@pytest.mark.parametrize("command,needle", [
    (["table4", "--scale", "0.02", "--quick", "--datasets", "baby"],
     "Table IV"),
    (["table5", "--scale", "0.02", "--quick", "--datasets", "baby",
      "--cells", "gru"], "Table V"),
    (["fig4", "--scale", "0.02", "--quick", "--datasets", "baby",
      "--cells", "gru"], "Figure 4"),
    (["fig6", "--scale", "0.02", "--quick", "--datasets", "baby",
      "--cells", "gru"], "Figure 6"),
    (["fig7", "--scale", "0.02", "--quick", "--cells", "gru"], "Figure 7"),
    (["fig8", "--scale", "0.02", "--quick"], "Figure 8"),
    (["efficiency", "--scale", "0.02", "--quick"], "efficiency"),
])
def test_cli_experiment_commands(capsys, command, needle):
    assert main(command) == 0
    assert needle in capsys.readouterr().out


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_runs_from_the_cli(name, capsys, monkeypatch):
    experiment = EXPERIMENTS[name]
    results = []

    def recorded(**kwargs):
        results.append(experiment.run(**kwargs))
        return results[-1]

    monkeypatch.setitem(EXPERIMENTS, name, replace(experiment, run=recorded))
    argv = [name, "--quick", "--scale", "0.02"]
    for flag in ("datasets", "cells"):
        if flag in experiment.accepts:
            argv += [f"--{flag}", *QUICK[flag]]
    assert main(argv) == 0
    (result,) = results
    assert capsys.readouterr().out == result.render() + "\n"
    for claim in experiment.claims.values():
        assert claim(result) in (True, False)


@pytest.mark.parametrize("name,flag", [
    (name, flag) for name, experiment in EXPERIMENTS.items()
    for flag in QUICK if flag not in experiment.accepts])
def test_refused_restriction_exits_2(name, flag, capsys, monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, name,
                        replace(EXPERIMENTS[name], run=None))
    assert main([name, f"--{flag}", *QUICK[flag]]) == 2
    assert f"error: {name} does not take --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,unread", [
    (["table2", "--data-backend", "eventlog", "--model", "BPR",
      "--grid-param", "epsilon=0.2"], ["data-backend", "model", "grid-param"]),
    (["train", "--cells", "lstm"], ["cells"]),
    (["grid", "--data-backend", "eventlog"], ["data-backend"]),
    # Only the eventlog backend reads where the log lives and its workers.
    (["train", "--quick", "--scale", "0.02", "--model", "BPR",
      "--eventlog-dir", "DIR", "--workers", "3"], ["eventlog-dir", "workers"]),
    # Refused before serve's own --workers check, and before it binds.
    (["serve", "--quick", "--datasets", "baby", "--workers", "2"],
     ["quick", "datasets"]),
])
def test_unread_flag_exits_2(argv, unread, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    for flag in unread:
        assert f"error: {argv[0]} does not take --{flag}" in captured.err
    assert captured.out == ""
