"""Real-thread stress test: hot swaps under concurrent traffic + threadsan.

Reader threads drive ``/v1/events`` and ``/v1/recommend`` through the
:class:`InProcessClient` while a writer thread swaps checkpoint
generations back and forth.  With the runtime thread sanitizer
instrumenting every serving lock and the generation shadow-checker armed,
the assertions are:

* every request succeeds (no 500s under concurrent swapping),
* no lost session updates — each user is owned by exactly one event
  thread, so the ``session_length`` echoed for that user's k-th event is
  deterministic regardless of interleaving with swaps,
* generations observed by each thread never move backwards (no torn
  reads across the swap), and
* ``threadsan`` reports **zero** findings.

The long-hold threshold is deliberately generous: scoring a batch while
another thread swaps artifacts is allowed to be slow on CI machines; this
test polices correctness, not latency.
"""

import threading

from repro.analysis import concurrency, threadsan

EVENT_THREADS = 3
EVENTS_PER_USER = 30
RECOMMEND_THREADS = 2
RECOMMENDS_PER_THREAD = 60
SWAPS = 12


def test_concurrent_hot_swap_stress(served_causer, served_gru4rec, make_app,
                                    monkeypatch):
    app, client = make_app(served_causer, max_wait_ms=0.2)
    num_items = min(served_causer.num_items, served_gru4rec.num_items)
    failures = []
    start = threading.Barrier(EVENT_THREADS + RECOMMEND_THREADS + 1)

    def eventer(thread_id):
        # Each thread owns a disjoint user id, so session_length is
        # deterministic for it: min(k, max_history truncation never
        # shrinks len(events) below k while k <= max_history... the
        # store truncates events to the model window, so expect
        # min(k, window) once k exceeds it.
        user_id = 100 + thread_id
        start.wait(timeout=30)
        window = served_causer.config.max_history
        for k in range(1, EVENTS_PER_USER + 1):
            basket = [1 + (thread_id * 7 + k) % num_items]
            status, body = client.post(
                "/v1/events", {"user_id": user_id, "basket": basket})
            if status != 200:
                failures.append(f"event {status}: {body}")
                return
            expected = min(k, window)
            if body["session_length"] != expected:
                failures.append(
                    f"lost update for user {user_id}: event #{k} echoed "
                    f"session_length={body['session_length']}, "
                    f"expected {expected}")
                return

    def recommender(thread_id):
        start.wait(timeout=30)
        last_generation = 0
        for k in range(RECOMMENDS_PER_THREAD):
            user_id = 100 + (thread_id + k) % EVENT_THREADS
            status, body = client.post(
                "/v1/recommend", {"user_id": user_id, "z": 3})
            if status != 200:
                failures.append(f"recommend {status}: {body}")
                return
            generation = body["generation"]
            if generation is None or generation < last_generation:
                failures.append(
                    f"generation moved backwards on one reader: "
                    f"{last_generation} -> {generation}")
                return
            last_generation = generation
            if not body["items"]:
                failures.append(f"empty recommendation: {body}")
                return

    def swapper():
        start.wait(timeout=30)
        for k in range(SWAPS):
            model = served_gru4rec if k % 2 else served_causer
            app.install_model(model)

    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 2000.0)
    with threadsan() as san:
        san.instrument_app(app)
        threads = ([threading.Thread(target=eventer, args=(i,), daemon=True)
                    for i in range(EVENT_THREADS)]
                   + [threading.Thread(target=recommender, args=(i,),
                                       daemon=True)
                      for i in range(RECOMMEND_THREADS)]
                   + [threading.Thread(target=swapper, daemon=True)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "stress thread wedged"
        assert failures == []
        # The batcher worker holds proxied locks; stop it before restore.
        app.close()
        assert san.findings == [], san.render_report()

    # After restore the app serves normally with the original locks.
    status, body = client.get("/healthz")
    assert status == 200
    assert body["status"] == "ok"


def test_ivf_hot_swap_stress(served_causer, served_gru4rec, make_app,
                             monkeypatch):
    """Hot swaps rebuilding the IVF index mid-traffic under full threadsan.

    The swapper alternates model classes, so every install retrains the
    coarse quantizer and republishes a fresh :class:`RetrievalArtifact`
    inside the new bundle.  Readers must never observe a mixed-generation
    (index, embedding) pair — asserted structurally (the index rides
    inside the generation-counted bundle) and dynamically (the defensive
    ``serve_retrieval_generation_mismatch_total`` counter stays absent),
    with per-thread monotone generations and zero sanitizer findings.
    """
    from repro.retrieval import RetrievalConfig

    config = RetrievalConfig(mode="ivf", shortlist=10, nprobe=2)
    app, client = make_app(served_causer, max_wait_ms=0.2, retrieval=config)
    num_items = min(served_causer.num_items, served_gru4rec.num_items)
    failures = []
    start = threading.Barrier(EVENT_THREADS + RECOMMEND_THREADS + 1)

    def eventer(thread_id):
        user_id = 200 + thread_id
        start.wait(timeout=30)
        for k in range(1, EVENTS_PER_USER + 1):
            basket = [1 + (thread_id * 5 + k) % num_items]
            status, body = client.post(
                "/v1/events", {"user_id": user_id, "basket": basket})
            if status != 200:
                failures.append(f"event {status}: {body}")
                return

    def recommender(thread_id):
        start.wait(timeout=30)
        last_generation = 0
        for k in range(RECOMMENDS_PER_THREAD):
            user_id = 200 + (thread_id + k) % EVENT_THREADS
            status, body = client.post(
                "/v1/recommend", {"user_id": user_id, "z": 3})
            if status != 200:
                failures.append(f"recommend {status}: {body}")
                return
            generation = body["generation"]
            if generation is None or generation < last_generation:
                failures.append(
                    f"generation moved backwards on one reader: "
                    f"{last_generation} -> {generation}")
                return
            last_generation = generation
            if body["source"] == "model" and body.get("retrieval") not in (
                    "ivf", "exact"):
                failures.append(f"unlabeled retrieval source: {body}")
                return

    def swapper():
        start.wait(timeout=30)
        for k in range(SWAPS):
            model = served_gru4rec if k % 2 else served_causer
            artifacts = app.install_model(model)
            if artifacts.retrieval is None:
                failures.append(
                    f"swap #{k} published no retrieval artifact")
                return
            if artifacts.retrieval.generation != artifacts.generation:
                failures.append(
                    f"swap #{k} published a mixed-generation pair: index "
                    f"gen {artifacts.retrieval.generation}, bundle gen "
                    f"{artifacts.generation}")
                return

    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 2000.0)
    with threadsan() as san:
        san.instrument_app(app)
        threads = ([threading.Thread(target=eventer, args=(i,), daemon=True)
                    for i in range(EVENT_THREADS)]
                   + [threading.Thread(target=recommender, args=(i,),
                                       daemon=True)
                      for i in range(RECOMMEND_THREADS)]
                   + [threading.Thread(target=swapper, daemon=True)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), "stress thread wedged"
        assert failures == []
        app.close()
        assert san.findings == [], san.render_report()

    # The defensive mismatch counter must never have fired: the metric is
    # only created on first increment, so its absence is the assertion.
    status, text = client.get("/metrics")
    assert status == 200
    assert "serve_retrieval_generation_mismatch_total" not in text


def test_swap_during_traffic_preserves_per_user_history(served_causer,
                                                        served_lstm_causer,
                                                        make_app, monkeypatch):
    """Events appended across a swap land in one coherent session whose
    state is rebuilt under the new generation (no torn adoption)."""
    app, client = make_app(served_causer, max_wait_ms=0.0)
    monkeypatch.setattr(concurrency, "LONG_HOLD_MS", 2000.0)
    with threadsan() as san:
        san.instrument_app(app)
        for k in range(1, 5):
            status, body = client.post(
                "/v1/events", {"user_id": 9, "basket": [k]})
            assert status == 200 and body["session_length"] == k
        app.install_model(served_lstm_causer)
        for k in range(5, 8):
            status, body = client.post(
                "/v1/events", {"user_id": 9, "basket": [k]})
            assert status == 200 and body["session_length"] == k
        status, body = client.post("/v1/recommend", {"user_id": 9})
        assert status == 200
        assert body["source"] == "model"
        assert body["generation"] == 2
        app.close()
        assert san.findings == [], san.render_report()
