"""Served scores must reproduce offline ``score_samples`` / ``recommend``.

This is the subsystem's acceptance bar: for every servable model class the
online path (incremental sessions + micro-batched scoring) returns the same
ranking the offline evaluator would, and checkpoints round-trip through
``repro.io`` without drifting a single score.
"""

import numpy as np
import pytest

from repro.data.interactions import EvalSample
from repro.exp import BenchmarkSettings, build_model
from repro.io import load_model, save_model
from repro.lineup import CLASSES, LINEUP
from repro.serve import SessionStore, build_artifacts, score_views
from tests.serve.conftest import random_histories

TRAINED_FIXTURES = ["served_causer", "served_lstm_causer", "served_gru4rec"]

#: Every registered class except Pop (intentionally not serializable).
SERVABLE_NAMES = [name for name, (model, _) in LINEUP.items()
                  if CLASSES[model].config is not None]


def _feed(client, histories):
    for user, baskets in histories.items():
        for basket in baskets:
            status, _ = client.post("/v1/events",
                                    {"user_id": user, "basket": list(basket)})
            assert status == 200


def _offline_samples(histories):
    return [EvalSample(user_id=user, history=baskets, target=())
            for user, baskets in histories.items()]


@pytest.mark.parametrize("fixture_name", TRAINED_FIXTURES)
class TestServedMatchesOffline:
    def test_raw_scores_allclose(self, fixture_name, request):
        model = request.getfixturevalue(fixture_name)
        artifacts = build_artifacts(model, generation=1)
        histories = random_histories(seed=11, num_users=6, num_steps=5,
                                     num_items=model.num_items)
        store = SessionStore()
        for user, baskets in histories.items():
            for basket in baskets:
                store.append_event(user, basket, artifacts)
        views = [store.view(user, artifacts) for user in histories]
        served = np.asarray(score_views(artifacts, views))
        offline = model.score_samples(_offline_samples(histories))
        # Column 0 is padding (offline masks it to -inf); compare the rest.
        np.testing.assert_allclose(served[:, 1:], offline[:, 1:],
                                   rtol=1e-9, atol=1e-9)

    def test_topz_through_http(self, fixture_name, request, make_app):
        model = request.getfixturevalue(fixture_name)
        _, client = make_app(model)
        histories = random_histories(seed=13, num_users=5, num_steps=4,
                                     num_items=model.num_items)
        _feed(client, histories)
        for user, baskets in histories.items():
            status, body = client.post("/v1/recommend",
                                       {"user_id": user, "z": 5})
            assert status == 200 and body["source"] == "model"
            offline = model.recommend(
                [EvalSample(user_id=user, history=baskets, target=())],
                z=5)[0]
            assert body["items"] == offline

    def test_explicit_history_request(self, fixture_name, request, make_app):
        model = request.getfixturevalue(fixture_name)
        _, client = make_app(model)
        history = [[3], [7, 9], [2]]
        status, body = client.post(
            "/v1/recommend", {"user_id": 2, "history": history, "z": 5})
        assert status == 200 and body["source"] == "model"
        sample = EvalSample(user_id=2,
                            history=tuple(tuple(b) for b in history),
                            target=())
        assert body["items"] == model.recommend([sample], z=5)[0]


class TestWindowing:
    def test_long_session_matches_offline_truncation(self, served_causer,
                                                     make_app):
        """Sessions keep the trailing window; padding truncates identically."""
        _, client = make_app(served_causer)
        steps = served_causer.config.max_history + 3
        baskets = [(step % served_causer.num_items + 1,)
                   for step in range(steps)]
        _feed(client, {8: baskets})
        _, body = client.post("/v1/recommend", {"user_id": 8, "z": 5})
        offline = served_causer.recommend(
            [EvalSample(user_id=8, history=tuple(baskets), target=())],
            z=5)[0]
        assert body["items"] == offline


class TestHotSwapEquivalence:
    def test_swap_matches_new_model_offline(self, served_causer,
                                            served_gru4rec, make_app):
        app, client = make_app(served_causer)
        histories = random_histories(seed=17, num_users=3, num_steps=4,
                                     num_items=served_causer.num_items)
        _feed(client, histories)
        app.install_model(served_gru4rec)
        for user, baskets in histories.items():
            _, body = client.post("/v1/recommend", {"user_id": user, "z": 5})
            offline = served_gru4rec.recommend(
                [EvalSample(user_id=user, history=baskets, target=())],
                z=5)[0]
            assert body["items"] == offline


@pytest.mark.parametrize("name", SERVABLE_NAMES)
class TestEveryRegisteredClassServes:
    def test_roundtrip_then_serve(self, name, tiny_dataset, tmp_path,
                                  make_app):
        settings = BenchmarkSettings(embedding_dim=8, hidden_dim=8,
                                     max_history=8, quick=True)
        model = build_model(name, tiny_dataset, settings)
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)

        sample = EvalSample(user_id=3, history=((2,), (5, 7), (4,)),
                            target=())
        np.testing.assert_allclose(restored.score_samples([sample]),
                                   model.score_samples([sample]),
                                   rtol=0, atol=1e-12)

        app, client = make_app()
        app.load_checkpoint(path)
        _feed(client, {3: sample.history})
        status, body = client.post("/v1/recommend", {"user_id": 3, "z": 5})
        assert status == 200 and body["source"] == "model"
        assert body["items"] == restored.recommend([sample], z=5)[0]
