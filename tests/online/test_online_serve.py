"""Serving integration: the tee, eviction resync surface, parity, drift win."""

import copy

import numpy as np

import repro.online.log as log_module
import repro.online.refresh as refresh_module
from repro.core import Causer, CauserConfig
from repro.data import SimulatorConfig, generate_dataset, leave_one_out_split
from repro.eval.evaluator import evaluate_model
from repro.online import EventLog, OnlineTrainer, RefreshController
from repro.online.__main__ import fingerprint


def test_events_tee_into_the_log(online_causer, make_app):
    app, client = make_app(online_causer)
    log = EventLog(None)
    app.event_sink = log.append
    for k in range(5):
        status, _body = client.post(
            "/v1/events", {"user_id": 7, "basket": [1 + k]})
        assert status == 200
    assert log.next_offset == 5
    assert [r.basket for r in log.read(0, 5)] == [(1,), (2,), (3,), (4,),
                                                  (5,)]
    # Rejected events are not logged.
    status, _body = client.post("/v1/events", {"user_id": 7})
    assert status == 400
    assert log.next_offset == 5
    log.close()


def test_sink_errors_are_counted_never_surfaced(online_causer, make_app):
    app, client = make_app(online_causer)

    def exploding_sink(_user_id, _basket):
        raise RuntimeError("disk full")

    app.event_sink = exploding_sink
    status, body = client.post("/v1/events", {"user_id": 1, "basket": [2]})
    assert status == 200 and body["session_length"] == 1
    assert app.metrics.counter_value("serve_event_sink_errors_total") == 1


def test_out_of_int64_user_ids_never_reach_the_trainer(online_causer,
                                                       make_app, shadow_of):
    """A user id past int64 is a counted 400, not a dead trainer thread:
    it used to reach the log and overflow ``pad_samples`` in ``pump``."""
    app, client = make_app(online_causer)
    log = EventLog(None)
    app.event_sink = log.append
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=2, metrics=app.metrics)
    accepted = [3, 2**63 - 1, -2**63, 7]      # the int64 extremes pass
    for user in (2**70, -2**63 - 1):
        status, body = client.post("/v1/events",
                                   {"user_id": user, "basket": [2]})
        assert status == 400 and "int64" in body["error"]
    for user in accepted:
        assert client.post("/v1/events",
                           {"user_id": user, "basket": [5]})[0] == 200
    assert app.metrics.counter_value(
        "serve_errors_total", {"endpoint": "/v1/events"}) == 2
    assert [r.user_id for r in log.read(0, log.next_offset)] == accepted
    assert trainer.pump() == 2
    assert trainer.consumed_offset == len(accepted)
    log.close()


def test_session_evictions_are_visible_on_metrics(online_causer, make_app):
    app, client = make_app(online_causer, session_capacity=2)
    for user in range(4):
        status, _body = client.post(
            "/v1/events", {"user_id": user, "basket": [1 + user]})
        assert status == 200
    assert app.sessions.evictions == 2
    assert app.metrics.counter_value("serve_sessions_evicted_total") == 2
    status, text = client.get("/metrics")
    assert status == 200
    assert "serve_sessions_evicted_total 2" in text
    # The evicted user transparently restarts a session on return.
    status, body = client.post("/v1/events", {"user_id": 0, "basket": [9]})
    assert status == 200 and body["session_length"] == 1


def test_online_lr_zero_serves_bit_identical_scores(online_causer,
                                                    make_app):
    """The --online-lr 0 parity contract: tee + trainer attached, zero
    learning rate, refresh disabled → responses byte-equal to a plain
    frozen-checkpoint server fed the same traffic."""
    frozen_app, frozen_client = make_app(online_causer)
    online_app, online_client = make_app(online_causer)
    log = EventLog(None)
    online_app.event_sink = log.append
    trainer = OnlineTrainer(copy.deepcopy(online_causer), log, lr=0.0,
                            batch_events=8, metrics=online_app.metrics)

    rng = np.random.default_rng(5)
    for _ in range(40):
        payload = {"user_id": int(rng.integers(10)),
                   "basket": [int(rng.integers(1, 41))]}
        assert frozen_client.post("/v1/events", payload)[0] == 200
        assert online_client.post("/v1/events", payload)[0] == 200
        trainer.pump()

    for user in range(10):
        frozen = frozen_client.post("/v1/recommend",
                                    {"user_id": user, "z": 10})
        online = online_client.post("/v1/recommend",
                                    {"user_id": user, "z": 10})
        assert frozen == online
    # Events were consumed (lag metrics stay truthful) without updates.
    assert trainer.consumed_offset == 40
    assert trainer.steps == 0
    assert fingerprint(trainer.model) == fingerprint(online_causer)
    log.close()


def test_online_adaptation_beats_frozen_on_drifted_stream(make_app,
                                                          monkeypatch):
    """The headline acceptance criterion: after the event distribution
    drifts (a different causal DAG and popularity curve), pumping the
    stream through the online trainer and one warm refresh beats the
    frozen offline checkpoint on post-drift held-out HR@10 and NDCG@10.
    """
    monkeypatch.setattr(refresh_module, "REFRESH_EPOCHS", 2)
    monkeypatch.setattr(log_module, "MIRROR_CAPACITY", 4096)
    model_config = CauserConfig(embedding_dim=8, hidden_dim=8, num_epochs=2,
                                batch_size=64, num_clusters=4, epsilon=0.2,
                                eta=0.5, seed=0, max_history=8)
    phase1 = generate_dataset(SimulatorConfig(num_users=60, num_items=40,
                                              num_clusters=4, seed=7),
                              "phase1")
    phase2 = generate_dataset(SimulatorConfig(num_users=60, num_items=40,
                                              num_clusters=4, seed=11),
                              "phase2")
    split1 = leave_one_out_split(phase1.corpus)
    split2 = leave_one_out_split(phase2.corpus)
    frozen = Causer(phase1.corpus.num_users, phase1.num_items,
                    phase1.features, model_config)
    frozen.fit(split1.train)

    app, client = make_app(frozen)
    log = EventLog(None)
    app.event_sink = log.append

    # Replay the post-drift training interactions through /v1/events,
    # round-robin across users (a realistic interleaved stream).
    sequences = list(split2.train)
    cursors = [0] * len(sequences)
    streaming = True
    while streaming:
        streaming = False
        for index, sequence in enumerate(sequences):
            if cursors[index] < len(sequence.baskets):
                status, _body = client.post(
                    "/v1/events",
                    {"user_id": sequence.user_id,
                     "basket": list(sequence.baskets[cursors[index]])})
                assert status == 200
                cursors[index] += 1
                streaming = True

    trainer = OnlineTrainer(copy.deepcopy(frozen), log, lr=0.05,
                            batch_events=32, metrics=app.metrics)
    trainer.pump()
    published = []
    refresh = RefreshController(trainer, log, published.append,
                                window=log.next_offset,
                                baseline=frozen,
                                metrics=app.metrics)
    assert refresh.refresh_once() is True
    adapted = published[-1]

    frozen_result = evaluate_model(frozen, split2.test, 10)
    adapted_result = evaluate_model(adapted, split2.test, 10)
    assert adapted_result.mean("hit") > frozen_result.mean("hit")
    assert adapted_result.mean("ndcg") > frozen_result.mean("ndcg")
    # Drift was real and measured: the graph churned or scores moved.
    report = refresh.last_report
    assert report["online_score_divergence"] > 0.0
    assert report["online_topz_overlap"] < 1.0
    log.close()
