"""Hot-swap under live traffic: three generations, sanitized workers.

The strongest multi-process swap guarantees, asserted end to end:

* responses never go backwards — a request for a user sent after an
  earlier response for that user returned never sees an older
  generation (no torn artifact reads),
* every worker converges on the newest generation,
* superseded segments are unlinked once all workers detach,
* each worker ran with the runtime thread sanitizer enabled and exited
  with zero findings.
"""

import threading
import time
from collections import defaultdict

import pytest

from repro.serve import InProcessClient
from repro.serve.shm import list_segments

from .conftest import random_histories, wait_generations

GENERATIONS = 3


@pytest.fixture(scope="module")
def swap_cluster(mp_causer, make_module_cluster):
    return make_module_cluster(thread_sanitizer=True)


def _traffic(client, histories, stop, errors, observed):
    users = list(histories)
    i = 0
    while not stop.is_set():
        user = users[i % len(users)]
        i += 1
        status, body = client.post(
            "/v1/events", {"user_id": user,
                           "basket": list(histories[user][i % 3])})
        if status != 200:
            errors.append(("events", status, body))
            continue
        sent = time.monotonic()
        status, body = client.post("/v1/recommend", {"user_id": user, "z": 5})
        received = time.monotonic()
        if status != 200:
            errors.append(("recommend", status, body))
        elif body["source"] == "model":
            observed.append((user, sent, received, body["generation"]))


def test_three_generations_mid_traffic(swap_cluster, mp_causer, mp_gru4rec):
    cluster = swap_cluster
    client = InProcessClient(cluster)
    cluster.install(mp_causer)
    wait_generations(cluster, 1)

    histories = random_histories(seed=9, num_users=10, num_steps=3,
                                 num_items=mp_causer.num_items)
    stop = threading.Event()
    errors, observed = [], []
    threads = [threading.Thread(target=_traffic,
                                args=(client, histories, stop,
                                      errors, observed))
               for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        for generation in range(2, GENERATIONS + 1):
            time.sleep(0.4)
            model = mp_gru4rec if generation % 2 == 0 else mp_causer
            artifacts = cluster.install(model)
            assert artifacts.generation == generation
            wait_generations(cluster, generation)
        time.sleep(0.4)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not errors, f"traffic failed during swaps: {errors[:5]}"
    assert observed, "traffic loop never reached a model response"

    # No going back per session: a response may lag the installed
    # generation (scored just before adoption), and two requests in flight
    # together may return in either order, but a request sent after a
    # response for the same user returned sees at least its generation.
    by_user = defaultdict(list)
    for user, sent, received, generation in observed:
        by_user[user].append((sent, received, generation))
    for user, requests in by_user.items():
        returned = sorted(requests, key=lambda request: request[1])
        newest, done = 0, 0
        for sent, _, generation in sorted(requests):
            while done < len(returned) and returned[done][1] < sent:
                newest = max(newest, returned[done][2])
                done += 1
            assert generation >= newest, \
                f"user {user} observed generation {generation} after " \
                f"{newest}"
    assert max(generation for *_, generation in observed) == GENERATIONS

    # Old generations' segments are unlinked once every worker detached;
    # give the retire loop a moment, then expect exactly one checkpoint
    # segment (the live one) plus the metrics slab.
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        segments = [name for name in list_segments()
                    if "-metrics-" not in name]
        if len(segments) == 1:
            break
        time.sleep(0.2)
    assert len(segments) == 1, f"stale segments not unlinked: {segments}"
    assert segments[0] == cluster.current_checkpoint().name

    # Sanitized workers must close clean: zero findings == exit code 0.
    exit_codes = cluster.close()
    assert all(code == 0 for code in exit_codes.values()), \
        f"thread sanitizer reported findings: {exit_codes}"
