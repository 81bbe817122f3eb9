"""Serve-level retrieval contracts.

* ``--retrieval exact`` is the legacy full-scoring path with a label:
  its top-z must be byte-identical to an app with no retrieval config at
  all, for **every** registered model class.
* ``--retrieval ivf`` returns ids that are always a subset of the IVF
  shortlist, never the padding item, and its re-rank is bit-identical to
  full scoring restricted to the same shortlist.
* Replay-mode models (no frozen head) fall back to exact scoring and say
  so in the response.
"""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.exp import BenchmarkSettings, build_model
from repro.nn.fused import CANDIDATE_BLOCK
from repro.retrieval import RetrievalConfig, user_vector
from repro.serve import (quantize_artifacts, score_view_candidates,
                         score_views)
from tests.serve.conftest import random_histories
from tests.serve.test_equivalence import SERVABLE_NAMES, _feed

IVF_CONFIG = dict(mode="ivf", shortlist=12, nprobe=2)


def _recommendations(client, histories, z=5):
    out = {}
    for user in histories:
        status, body = client.post("/v1/recommend", {"user_id": user, "z": z})
        assert status == 200
        out[user] = body
    return out


@pytest.mark.parametrize("name", SERVABLE_NAMES)
def test_exact_mode_is_byte_identical_to_legacy(name, tiny_dataset, make_app):
    settings = BenchmarkSettings(embedding_dim=8, hidden_dim=8,
                                 max_history=8, quick=True)
    model = build_model(name, tiny_dataset, settings)
    _, legacy = make_app(model)
    _, exact = make_app(model, retrieval=RetrievalConfig(mode="exact"))
    histories = random_histories(seed=41, num_users=4, num_steps=4,
                                 num_items=model.num_items)
    _feed(legacy, histories)
    _feed(exact, histories)
    legacy_out = _recommendations(legacy, histories)
    exact_out = _recommendations(exact, histories)
    for user in histories:
        assert "retrieval" not in legacy_out[user]
        assert exact_out[user]["retrieval"] == "exact"
        stripped = dict(exact_out[user])
        del stripped["retrieval"]
        assert stripped == legacy_out[user]


@pytest.mark.parametrize("fixture", ["served_causer", "served_gru4rec"])
class TestIVFServe:
    def test_items_subset_of_shortlist_no_padding(self, fixture, request,
                                                  make_app):
        model = request.getfixturevalue(fixture)
        app, client = make_app(model, retrieval=RetrievalConfig(**IVF_CONFIG))
        histories = random_histories(seed=43, num_users=5, num_steps=4,
                                     num_items=model.num_items)
        _feed(client, histories)
        artifacts = app.registry.current()
        assert artifacts.retrieval is not None
        config = artifacts.retrieval.config
        for user, body in _recommendations(client, histories).items():
            assert body["retrieval"] == "ivf"
            view = app.sessions.view(user, artifacts)
            query = user_vector(artifacts, view)
            shortlist = artifacts.retrieval.index.search(
                query, config.shortlist, nprobe=config.nprobe)
            assert set(body["items"]) <= set(int(i) for i in shortlist)
            assert 0 not in body["items"]
            assert all(1 <= i <= model.num_items for i in body["items"])

    def test_rerank_bitwise_matches_full_restriction(self, fixture, request,
                                                     make_app):
        """Also over fp16/int8 tables and shortlists straddling the
        candidate block width (probing every cell so they fill up)."""
        model = request.getfixturevalue(fixture)
        app, client = make_app(model, retrieval=RetrievalConfig(**IVF_CONFIG))
        histories = random_histories(seed=47, num_users=3, num_steps=5,
                                     num_items=model.num_items)
        _feed(client, histories)
        artifacts = app.registry.current()
        config = artifacts.retrieval.config
        cases = [(config.shortlist, config.nprobe)] + [
            (size, artifacts.retrieval.index.n_clusters) for size in (
                CANDIDATE_BLOCK - 1, CANDIDATE_BLOCK, CANDIDATE_BLOCK + 1)]
        for user in histories:
            view = app.sessions.view(user, artifacts)
            query = user_vector(artifacts, view)
            for mode in ("none", "fp16", "int8"):
                bundle = quantize_artifacts(artifacts, mode)
                full = np.asarray(score_views(bundle, [view]))[0]
                for size, nprobe in cases:
                    shortlist = bundle.retrieval.index.search(
                        query, size, nprobe=nprobe)
                    assert shortlist.size == size
                    restricted = score_view_candidates(bundle, view,
                                                       shortlist)
                    assert np.array_equal(restricted, full[shortlist])


def test_replay_model_falls_back_to_exact(tiny_dataset, make_app):
    settings = BenchmarkSettings(embedding_dim=8, hidden_dim=8,
                                 max_history=8, quick=True)
    model = build_model("NARM", tiny_dataset, settings)
    app, client = make_app(model, retrieval=RetrievalConfig(**IVF_CONFIG))
    artifacts = app.registry.current()
    assert artifacts.retrieval is None  # no frozen head -> no tower
    histories = random_histories(seed=53, num_users=2, num_steps=3,
                                 num_items=model.num_items)
    _feed(client, histories)
    for body in _recommendations(client, histories).values():
        assert body["source"] == "model"
        assert body["retrieval"] == "exact"


def test_ivf_metrics_exported(served_causer, make_app):
    app, client = make_app(served_causer,
                           retrieval=RetrievalConfig(**IVF_CONFIG))
    histories = random_histories(seed=59, num_users=3, num_steps=3,
                                 num_items=served_causer.num_items)
    _feed(client, histories)
    _recommendations(client, histories)
    status, text = client.get("/metrics")
    assert status == 200
    assert 'serve_retrieval_requests_total{mode="ivf"}' in text
    assert 'serve_retrieval_stage_seconds' in text
    assert ("serve_shortlist_hit_total" in text
            or "serve_shortlist_miss_total" in text)
    assert "serve_retrieval_generation_mismatch_total" not in text


def test_healthz_reports_retrieval(served_causer, make_app):
    app, client = make_app(served_causer,
                           retrieval=RetrievalConfig(**IVF_CONFIG))
    status, body = client.get("/healthz")
    assert status == 200
    described = body["checkpoint"]["retrieval"]
    assert described["mode"] == "ivf"
    assert described["shortlist"] == IVF_CONFIG["shortlist"]
    catalog = app.registry.current().retrieval.tower.size
    assert described["n_clusters"] == round(np.sqrt(catalog))


def test_cli_accepts_retrieval_flags():
    parser = build_parser()
    args = parser.parse_args(["serve", "--retrieval", "ivf",
                              "--shortlist", "64", "--nprobe", "4"])
    assert args.retrieval == "ivf"
    assert args.shortlist == 64 and args.nprobe == 4
    assert parser.parse_args(["serve"]).retrieval is None
    with pytest.raises(SystemExit):
        parser.parse_args(["serve", "--retrieval", "bogus"])


def test_retrieval_config_validation():
    with pytest.raises(ValueError):
        RetrievalConfig(mode="annoy")
    with pytest.raises(ValueError):
        RetrievalConfig(shortlist=0)
    with pytest.raises(ValueError):
        RetrievalConfig(nprobe=0)
