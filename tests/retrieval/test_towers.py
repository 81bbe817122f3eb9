"""Two-tower factorization against the frozen serving artifacts.

The load-bearing claims:

* the item tower is literally the output embedding table (rows 1..V,
  padding row excluded) plus the output bias,
* for GRU4Rec the head *is* a two-tower dot product, so tower scores
  match the full scorer,
* the re-rank stage (``score_view_candidates`` /
  :func:`repro.retrieval.rerank_top_z`) is **bitwise** identical to full
  scoring restricted to the candidate set — the property that makes
  IVF-served top-z exact over its shortlist,
* replay-mode bundles expose no tower and fall back cleanly.
"""

import numpy as np
import pytest

from repro.nn.fused import CANDIDATE_BLOCK
from repro.retrieval import (build_item_tower, dot_scores, rerank_top_z,
                             top_ids_by_score, user_vector)
from repro.serve import (ScoreView, SessionStore, build_artifacts,
                         quantize_artifacts, score_view_candidates,
                         score_views)
from tests.serve.conftest import random_histories


def _served_view(model, artifacts, seed=21, steps=5, max_basket=2):
    store = SessionStore()
    histories = random_histories(seed=seed, num_users=1, num_steps=steps,
                                 num_items=model.num_items,
                                 max_basket=max_basket)
    for basket in histories[0]:
        store.append_event(0, basket, artifacts)
    return store.view(0, artifacts)


@pytest.fixture(scope="module")
def causer_artifacts(causer_model):
    return build_artifacts(causer_model, generation=1)


@pytest.fixture(scope="module")
def gru_artifacts(gru_model):
    return build_artifacts(gru_model, generation=1)


@pytest.mark.parametrize("fixture", ["causer_artifacts", "gru_artifacts"])
def test_item_tower_is_the_output_head(fixture, request):
    artifacts = request.getfixturevalue(fixture)
    tower = build_item_tower(artifacts)
    assert tower is not None
    assert np.array_equal(tower.vectors, artifacts.output_table[1:])
    assert np.array_equal(tower.bias, artifacts.output_bias[1:])
    assert np.array_equal(tower.ids,
                          np.arange(1, artifacts.num_items + 1))
    for array in (tower.vectors, tower.bias, tower.ids):
        assert not array.flags.writeable


def test_replay_model_has_no_tower(replay_model):
    artifacts = build_artifacts(replay_model, generation=1)
    assert artifacts.mode == "replay"
    assert build_item_tower(artifacts) is None
    view = _served_view(replay_model, artifacts)
    assert user_vector(artifacts, view) is None


def test_user_vector_none_for_missing_or_empty_view(gru_artifacts):
    assert user_vector(gru_artifacts, None) is None
    empty = ScoreView(user_id=0, events=(), states=None, last=None)
    assert user_vector(gru_artifacts, empty) is None


def test_gru_tower_scores_match_full_head(gru_model, gru_artifacts):
    """GRU4Rec's head is exactly two-tower: tower dot == full scorer."""
    view = _served_view(gru_model, gru_artifacts)
    tower = build_item_tower(gru_artifacts)
    query = user_vector(gru_artifacts, view)
    assert query is not None and query.shape == (tower.vectors.shape[1],)
    via_tower = dot_scores(query, tower.vectors, tower.bias)
    full = np.asarray(score_views(gru_artifacts, [view]))[0]
    np.testing.assert_allclose(via_tower, full[1:], rtol=1e-12, atol=1e-12)


def test_causer_user_vector_shape(causer_model, causer_artifacts):
    view = _served_view(causer_model, causer_artifacts)
    tower = build_item_tower(causer_artifacts)
    query = user_vector(causer_artifacts, view)
    assert query is not None and query.shape == (tower.vectors.shape[1],)


# The unquantized cases keep their ids from before the quantize axis.
@pytest.mark.parametrize(
    "fixture,model_fixture,quantize",
    [pytest.param(fixture, model_fixture, quantize,
                  id="-".join((fixture, model_fixture)
                              + ((quantize,) if quantize != "none" else ())))
     for quantize in ("none", "fp16", "int8")
     for fixture, model_fixture in (("causer_artifacts", "causer_model"),
                                    ("gru_artifacts", "gru_model"))])
def test_rerank_scores_bitwise_equal_full_restriction(fixture, model_fixture,
                                                      quantize, request):
    """score_view_candidates(cands) == full_scores[cands], bit for bit.

    Shortlist sizes straddle the candidate block width, and the catalog
    (padding row included) is not a multiple of it, so the zero-padded
    last block is exercised on both sides.  The second session has
    baskets of up to 12 items: numpy sums more than 8 terms pairwise when
    they lie along one axis, as they do for a single candidate.
    """
    artifacts = quantize_artifacts(request.getfixturevalue(fixture),
                                   quantize)
    model = request.getfixturevalue(model_fixture)
    assert (model.num_items + 1) % CANDIDATE_BLOCK
    rng = np.random.default_rng(31)
    for view in (_served_view(model, artifacts),
                 _served_view(model, artifacts, max_basket=12)):
        full = np.asarray(score_views(artifacts, [view]))[0]
        for size in (1, 7, CANDIDATE_BLOCK - 1, CANDIDATE_BLOCK,
                     CANDIDATE_BLOCK + 1, model.num_items):
            cands = rng.choice(np.arange(1, model.num_items + 1), size=size,
                               replace=False).astype(np.int64)
            restricted = score_view_candidates(artifacts, view, cands)
            assert np.array_equal(restricted, full[cands])


@pytest.mark.parametrize("fixture,model_fixture",
                         [("causer_artifacts", "causer_model"),
                          ("gru_artifacts", "gru_model")])
def test_rerank_top_z_matches_full_ranking(fixture, model_fixture, request):
    artifacts = request.getfixturevalue(fixture)
    model = request.getfixturevalue(model_fixture)
    view = _served_view(model, artifacts, seed=23)
    full = np.asarray(score_views(artifacts, [view]))[0]
    ids = np.arange(1, model.num_items + 1, dtype=np.int64)
    want = [int(i) for i in top_ids_by_score(full[1:], ids, 5)]
    got = rerank_top_z(artifacts, view, ids, 5)
    assert got == want


def test_rerank_empty_candidates(causer_artifacts, causer_model):
    view = _served_view(causer_model, causer_artifacts)
    empty = np.empty(0, dtype=np.int64)
    assert score_view_candidates(causer_artifacts, view, empty).size == 0
    assert rerank_top_z(causer_artifacts, view, empty, 5) == []
