"""Refresh controller: drift math, sample expansion, publish/adopt cycle."""

import numpy as np
import pytest

import repro.online.refresh as refresh_module
from repro.online import (EventLog, EventRecord, OnlineTrainer,
                          RefreshController, build_refresh_samples,
                          edge_churn, score_divergence)
from repro.serve.metrics import MetricsRegistry

from .conftest import fill_log


# -- drift primitives ------------------------------------------------------
def factored(matrix):
    """``matrix`` as exact eq.-9 factors: ``matrix @ Iᵀ`` is ``matrix``."""
    return matrix, np.eye(matrix.shape[1])


def test_edge_churn_counts_added_dropped_flipped():
    previous = factored(np.array([[0.0, 0.5, 0.0],
                                  [-0.4, 0.0, 0.1],
                                  [0.0, 0.0, 0.0]]))
    current = factored(np.array([[0.0, 0.5, 0.4],
                                 [0.4, 0.0, 0.1],
                                 [0.0, 0.0, 0.0]]))
    churn = edge_churn(previous, current, epsilon=0.3)
    # (0,2) crossed up; (1,0) survived but reversed; (0,1) kept;
    # (1,2) is below the gate on both sides — invisible.
    assert churn == {"added": 1, "dropped": 0, "flipped": 1, "kept": 1}
    reverse = edge_churn(current, previous, epsilon=0.3)
    assert reverse["dropped"] == 1 and reverse["added"] == 0


def test_edge_churn_reads_rank_k_factors():
    """Rank-K factors count the same edges as their (V+1)² product."""
    rng = np.random.default_rng(3)
    rows, cols = rng.normal(size=(2, 300, 4))
    matrix = rows @ cols.T
    moved = factored(matrix + rng.normal(scale=0.5, size=matrix.shape))
    assert (edge_churn((rows, cols), moved, epsilon=0.8)
            == edge_churn(factored(matrix), moved, epsilon=0.8))


def test_edge_churn_blocks_match_single_pass():
    """Row-blocked counts equal the whole-matrix formula, ±ε ties included."""
    epsilon = 0.25
    rng = np.random.default_rng(11)
    shape = (601, 37)  # 601 rows: not a multiple of the 256-row block
    values = np.array([-0.5, -epsilon, -0.1, 0.0, 0.1, epsilon, 0.5])
    previous = rng.choice(values, size=shape)
    current = rng.choice(values, size=shape)
    previous[-1, :] = epsilon   # exactly on the gate: never an edge
    current[-1, :] = -epsilon
    before = np.abs(previous) > epsilon
    after = np.abs(current) > epsilon
    both = before & after
    flipped = both & (np.sign(previous) != np.sign(current))
    expected = {
        "added": int(np.count_nonzero(after & ~before)),
        "dropped": int(np.count_nonzero(before & ~after)),
        "flipped": int(np.count_nonzero(flipped)),
        "kept": int(np.count_nonzero(both & ~flipped)),
    }
    assert min(expected.values()) > 0
    assert edge_churn(factored(previous), factored(current),
                      epsilon=epsilon) == expected


def test_edge_churn_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        edge_churn((np.zeros((2, 1)), np.zeros((2, 1))),
                   (np.zeros((3, 1)), np.zeros((3, 1))), epsilon=0.1)


def test_score_divergence_is_zero_for_identical_models(online_causer,
                                                       tiny_split):
    probes = tiny_split.test[:8]
    report = score_divergence(online_causer, online_causer, probes, z=10)
    assert report["mean_abs_delta"] == 0.0
    assert report["topz_overlap"] == 1.0


# -- window → samples ------------------------------------------------------
def test_build_refresh_samples_expands_prefixes():
    records = [EventRecord(0, 1, (3,)), EventRecord(1, 2, (5,)),
               EventRecord(2, 1, (4,)), EventRecord(3, 1, (6, 7)),
               EventRecord(4, 2, ())]
    samples = build_refresh_samples(records, max_history=2)
    assert [(s.user_id, s.history, s.target) for s in samples] == [
        (1, ((3,),), (4,)),
        (1, ((3,), (4,)), (6, 7)),
    ]
    # A long history is windowed to the model's max_history.
    long = [EventRecord(k, 9, (1 + k,)) for k in range(5)]
    windowed = build_refresh_samples(long, max_history=2)
    assert windowed[-1].history == ((3,), (4,))


# -- the full cycle --------------------------------------------------------
def test_refresh_publishes_adopts_and_reports(online_causer, shadow_of,
                                              tiny_split, make_app):
    metrics = MetricsRegistry()
    app, _client = make_app(online_causer)
    log = EventLog(None)
    fill_log(log, 128)
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16)
    trainer.pump()
    refresh = RefreshController(trainer, log, app.install_model,
                                window=128,
                                baseline=online_causer,
                                metrics=metrics)
    shadow_before = trainer.model
    assert refresh.refresh_once() is True
    artifacts = app.registry.current()
    assert artifacts.generation == 2  # install bumped past the fixture's 1
    # The trainer continues on a fresh private copy, never the published
    # model (whose arrays the live artifacts alias).
    assert trainer.model is not shadow_before
    report = refresh.last_report
    for key in ("online_edge_churn_added", "online_edge_churn_dropped",
                "online_edge_churn_flipped", "online_score_divergence",
                "online_topz_overlap"):
        assert key in report
        assert metrics.gauge_value(key) == report[key]
    assert metrics.counter_value("online_refresh_total") == 1
    assert 0.0 <= report["online_topz_overlap"] <= 1.0
    log.close()


def test_refresh_skips_when_window_is_too_thin(online_causer, shadow_of,
                                               make_app, monkeypatch):
    monkeypatch.setattr(refresh_module, "MIN_SAMPLES", 1)
    app, _client = make_app(online_causer)
    log = EventLog(None)
    # Distinct users, one event each: zero trainable prefix samples.
    for user in range(20):
        log.append(user, (1 + user % 5,))
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05)
    refresh = RefreshController(trainer, log, app.install_model,
                                window=20,
                                baseline=online_causer)
    assert refresh.refresh_once() is False
    assert app.registry.current().generation == 1  # nothing published
    log.close()


def test_refreshed_generations_are_monotone(online_causer, shadow_of,
                                            make_app):
    app, client = make_app(online_causer)
    log = EventLog(None)
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=16)
    refresh = RefreshController(trainer, log, app.install_model,
                                window=256,
                                baseline=online_causer)
    for round_id in range(3):
        fill_log(log, 64, seed=50 + round_id)
        trainer.pump()
        assert refresh.refresh_once() is True
    assert app.registry.current().generation == 4
    assert refresh.generations == 3
    status, body = client.post("/v1/recommend",
                               {"user_id": 1, "history": [[1], [2]],
                                "z": 5})
    assert status == 200 and body["generation"] == 4
    log.close()
