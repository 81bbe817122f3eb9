"""OnlineTrainer: exactly-once, replay determinism, resync, lr=0 no-op."""

import numpy as np
import pytest

import repro.online.trainer as trainer_module
from repro.online import EventLog, OnlineTrainer
from repro.online.__main__ import fingerprint
from repro.serve.metrics import MetricsRegistry

from .conftest import fill_log


def test_partial_batches_are_never_applied(online_causer, shadow_of):
    log = EventLog(None)
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16)
    fill_log(log, 15)
    assert trainer.pump() == 0
    assert trainer.consumed_offset == 0
    log.append(5, (1,))
    assert trainer.pump() == 1
    assert trainer.consumed_offset == 16
    log.close()


def test_each_offset_is_consumed_exactly_once(online_causer, shadow_of):
    log = EventLog(None)
    fill_log(log, 64)
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16)
    assert trainer.pump() == 4
    before = fingerprint(trainer.model)
    # Re-pumping with no new events must not re-apply anything.
    assert trainer.pump() == 0
    assert trainer.consumed_offset == 64
    assert fingerprint(trainer.model) == before
    log.close()


def test_incremental_pumping_matches_oneshot_replay(online_causer,
                                                    shadow_of):
    """Bit-identical shadow tables whether batches were applied as events
    trickled in or all at once from the log afterwards — the replay
    guarantee that makes ``repro.online replay`` a debugging tool."""
    log = EventLog(None)
    live = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                         batch_events=16, seed=3)
    for chunk in range(8):
        fill_log(log, 24, seed=100 + chunk)
        live.pump()
    replayed = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                             batch_events=16, seed=3)
    replayed.pump()
    assert live.consumed_offset == replayed.consumed_offset == 192
    assert live.steps == replayed.steps
    assert fingerprint(live.model) == fingerprint(replayed.model)
    log.close()


def test_lr_zero_consumes_without_touching_parameters(online_causer,
                                                      shadow_of):
    log = EventLog(None)
    fill_log(log, 48)
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.0,
                            batch_events=16)
    before = fingerprint(trainer.model)
    assert trainer.pump() == 3
    assert trainer.consumed_offset == 48
    assert trainer.steps == 0
    assert fingerprint(trainer.model) == before
    assert fingerprint(trainer.model) == fingerprint(online_causer)
    log.close()


def test_tail_eviction_resyncs_instead_of_corrupting(online_causer,
                                                     shadow_of, monkeypatch):
    """A user returning after their history tail was evicted starts a
    fresh session (counted), never a corrupt append."""
    monkeypatch.setattr(trainer_module, "TAIL_CAPACITY", 1)
    metrics = MetricsRegistry()
    log = EventLog(None)
    # Two users in pairs of two events with a 1-tail LRU: each pair's
    # second event trains, and each user's return evicts the other —
    # every return after the first is a resync.
    for k in range(16):
        log.append((k // 2) % 2, (1 + k % 5,))
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16,
                            metrics=metrics)
    assert trainer.pump() == 1
    assert metrics.counter_value("online_trainer_resyncs_total") == 6
    assert metrics.counter_value("online_events_consumed_total") == 16
    # Resynced sessions still train: the pair-second events made samples.
    assert trainer.steps == 1
    log.close()


def test_empty_baskets_and_cold_starts_are_skipped(online_causer,
                                                   shadow_of):
    log = EventLog(None)
    # One event per distinct user: every event is a cold start, so a full
    # batch yields zero trainable samples — consumed, but no step.
    for user in range(16):
        log.append(user, (1 + user % 5,))
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16)
    assert trainer.pump() == 1
    assert trainer.steps == 0
    assert trainer.consumed_offset == 16
    log.close()


def test_start_offset_must_align_with_batches(online_causer, shadow_of):
    log = EventLog(None)
    with pytest.raises(ValueError, match="micro-batch boundary"):
        OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                      batch_events=16, start_offset=8)
    log.close()


def test_background_thread_drains_the_log(online_causer, shadow_of,
                                          monkeypatch):
    monkeypatch.setattr(trainer_module, "POLL_INTERVAL", 0.01)
    log = EventLog(None)
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16)
    trainer.start()
    try:
        fill_log(log, 64)
    finally:
        trainer.stop()  # stop() drains remaining complete batches
    assert trainer.consumed_offset == 64
    # Background consumption produced the same tables as a clean replay.
    replayed = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                             batch_events=16)
    replayed.pump()
    assert fingerprint(trainer.model) == fingerprint(replayed.model)
    log.close()
