"""Hot swaps driven by the online refresh loop, under live traffic.

The online analogue of ``tests/serve/test_hot_swap_stress.py``: event
threads and recommend threads hammer the app through the
:class:`InProcessClient` while (a) the online trainer consumes the tee'd
log on its own thread and (b) a refresher thread publishes **three**
refreshed generations mid-traffic.  With every serving lock proxied by
the runtime thread sanitizer, the assertions are:

* every request succeeds,
* generations observed by each recommend thread are monotone
  (no torn or backwards swap),
* at least three refresh generations actually landed,
* the trainer consumed each complete micro-batch exactly once
  (``consumed == floor(logged / batch) * batch``, and a post-hoc replay
  of the log bit-reproduces the live shadow tables), and
* ``threadsan`` reports zero findings.
"""

import threading
import time

import repro.online.refresh as refresh_module
import repro.online.trainer as trainer_module
from repro.analysis import concurrency, threadsan
from repro.online import EventLog, OnlineTrainer, RefreshController
from repro.online.__main__ import fingerprint

EVENT_THREADS = 3
EVENTS_PER_USER = 40
RECOMMEND_THREADS = 2
RECOMMENDS_PER_THREAD = 40
REFRESHES = 3
BATCH_EVENTS = 16


def test_online_refresh_hot_swap_stress(online_causer, shadow_of, make_app,
                                        monkeypatch):
    monkeypatch.setattr(refresh_module, "MIN_SAMPLES", 4)
    monkeypatch.setattr(trainer_module, "POLL_INTERVAL", 0.005)
    app, client = make_app(online_causer, max_wait_ms=0.2)
    num_items = online_causer.num_items
    log = EventLog(None)
    app.event_sink = log.append
    trainer = OnlineTrainer(shadow_of(online_causer), log, lr=0.05,
                            batch_events=BATCH_EVENTS,
                            metrics=app.metrics)
    refresh = RefreshController(trainer, log, app.install_model,
                                window=512, baseline=online_causer,
                                metrics=app.metrics)
    failures = []
    start = threading.Barrier(EVENT_THREADS + RECOMMEND_THREADS + 1)

    def eventer(thread_id):
        user_id = 300 + thread_id
        start.wait(timeout=30)
        window = online_causer.config.max_history
        for k in range(1, EVENTS_PER_USER + 1):
            basket = [1 + (thread_id * 7 + k) % num_items]
            status, body = client.post(
                "/v1/events", {"user_id": user_id, "basket": basket})
            if status != 200:
                failures.append(f"event {status}: {body}")
                return
            if body["session_length"] != min(k, window):
                failures.append(
                    f"lost update for user {user_id} at event #{k}: "
                    f"{body['session_length']}")
                return

    def recommender(thread_id):
        start.wait(timeout=30)
        last_generation = 0
        for k in range(RECOMMENDS_PER_THREAD):
            user_id = 300 + (thread_id + k) % EVENT_THREADS
            status, body = client.post(
                "/v1/recommend", {"user_id": user_id, "z": 3})
            if status != 200:
                failures.append(f"recommend {status}: {body}")
                return
            generation = body["generation"]
            if generation is None or generation < last_generation:
                failures.append(
                    f"generation moved backwards: "
                    f"{last_generation} -> {generation}")
                return
            last_generation = generation

    def refresher():
        start.wait(timeout=30)
        landed = 0
        # Keep cycling until three refreshes actually published; early
        # rounds may see too thin a window and legitimately skip while
        # the event threads are still warming the log up.
        deadline = time.monotonic() + 90.0
        while landed < REFRESHES and time.monotonic() < deadline:
            trainer.pump()
            if refresh.refresh_once():
                landed += 1
            else:
                time.sleep(0.01)
        if landed < REFRESHES:
            failures.append(f"only {landed}/{REFRESHES} refreshes landed")

    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 2000.0)
    with threadsan() as san:
        san.instrument_app(app)
        trainer.start()
        threads = ([threading.Thread(target=eventer, args=(i,), daemon=True)
                    for i in range(EVENT_THREADS)]
                   + [threading.Thread(target=recommender, args=(i,),
                                       daemon=True)
                      for i in range(RECOMMEND_THREADS)]
                   + [threading.Thread(target=refresher, daemon=True)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "stress thread wedged"
        trainer.stop()
        assert failures == []
        app.close()
        assert san.findings == [], san.render_report()

    # Three refresh generations landed on top of the install's 1.
    assert refresh.generations == REFRESHES
    assert app.registry.current().generation == 1 + REFRESHES

    # Exactly-once consumption: every complete batch, no batch twice.
    logged = log.next_offset
    assert logged == EVENT_THREADS * EVENTS_PER_USER
    assert trainer.consumed_offset == (logged // BATCH_EVENTS) * BATCH_EVENTS

    # And the log alone reproduces nothing-or-everything semantics: a
    # from-scratch replay interleaving the same refresh adoption points
    # is out of scope here (adoption resets the shadow), but the final
    # post-adoption segment must replay bit-identically.
    resumed = OnlineTrainer(shadow_of(trainer.model), log, lr=0.05,
                            batch_events=BATCH_EVENTS,
                            start_offset=trainer.consumed_offset)
    assert resumed.pump() == 0  # live trainer left no complete batch behind
    assert fingerprint(resumed.model) == fingerprint(trainer.model)
    log.close()
