"""``python -m repro.online replay``: bit-reproducible offline replay."""

import json

import pytest

from repro.io import load_model, save_model
from repro.online import EventLog, OnlineTrainer
from repro.online.__main__ import fingerprint, main

from .conftest import fill_log


@pytest.fixture
def logged_run(tmp_path, online_causer):
    """A checkpoint plus a durable log written by a 'live' run."""
    checkpoint = tmp_path / "model.npz"
    save_model(online_causer, checkpoint)
    log_dir = tmp_path / "events"
    log = EventLog(log_dir, segment_records=32)
    fill_log(log, 100)
    live = OnlineTrainer(load_model(checkpoint), log, lr=0.05,
                         batch_events=16, seed=0)
    live.pump()
    log.close()
    return checkpoint, log_dir, fingerprint(live.model)


def _replay(capsys, checkpoint, log_dir, out=None):
    argv = ["replay", "--checkpoint", str(checkpoint),
            "--event-log", str(log_dir), "--online-lr", "0.05",
            "--online-batch-events", "16", "--online-seed", "0"]
    if out is not None:
        argv += ["--out", str(out)]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_replay_bit_reproduces_the_live_shadow(tmp_path, capsys,
                                               logged_run):
    checkpoint, log_dir, live_fingerprint = logged_run
    out = tmp_path / "replayed.npz"
    summary = _replay(capsys, checkpoint, log_dir, out=out)
    assert summary["events_logged"] == 100
    assert summary["events_consumed"] == 96  # 6 complete 16-event batches
    assert summary["batches_applied"] == 6
    assert summary["fingerprint"] == live_fingerprint
    # The saved replay artifact round-trips to the same tables.
    assert fingerprint(load_model(out)) == live_fingerprint


def test_replay_is_deterministic_across_invocations(capsys, logged_run):
    checkpoint, log_dir, _live = logged_run
    first = _replay(capsys, checkpoint, log_dir)
    second = _replay(capsys, checkpoint, log_dir)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["steps"] == second["steps"]
