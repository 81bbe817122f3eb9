"""Quantized frozen-table contracts: memory wins and ranking tolerances.

The documented guarantees (docs/SERVING.md):

* ``none``  — byte-identical scores to the dense bundle,
* ``fp16``  — >= 1.9x smaller tables, top-z overlap >= 0.99,
* ``int8``  — >= 3.5x smaller tables, top-z overlap >= 0.9,

and the registry applies the server's precision to every bundle it
installs: the first load, a hot swap and an online refresh.
"""

import copy

import numpy as np
import pytest

from repro.online import EventLog, OnlineTrainer, RefreshController
from repro.retrieval import QuantizedTable, RetrievalConfig
from repro.serve import (InProcessClient, ServeApp, SessionStore,
                         build_artifacts, quantize_artifacts,
                         score_view_candidates, score_views)

HISTORIES = {
    user: ((2 + user % 5,), (5, 7), (1 + user % 11,))
    for user in range(24)
}
IVF = RetrievalConfig(mode="ivf", shortlist=16, nprobe=2)


def _table_nbytes(table):
    return 0 if table is None else int(table.nbytes)


def frozen_table_bytes(artifacts):
    """Storage footprint of the quantizable frozen tables, in bytes."""
    total = _table_nbytes(getattr(artifacts, "output_table", None))
    if artifacts.recurrent is not None:
        total += _table_nbytes(artifacts.recurrent.input_table)
    if artifacts.retrieval is not None:
        total += _table_nbytes(artifacts.retrieval.tower.vectors)
        total += sum(_table_nbytes(vectors)
                     for vectors in artifacts.retrieval.index.list_vectors)
    return total


def _scores(artifacts):
    store = SessionStore(capacity=64)
    views = [store.ephemeral_view(user, history, artifacts)
             for user, history in HISTORIES.items()]
    return score_views(artifacts, views)


def _topz_overlap(dense, quantized, z=5):
    """Mean |top-z(dense) ∩ top-z(quantized)| / z across sessions."""
    overlaps = []
    for row_d, row_q in zip(dense, quantized):
        top_d = set(np.argsort(-row_d, kind="stable")[:z])
        top_q = set(np.argsort(-row_q, kind="stable")[:z])
        overlaps.append(len(top_d & top_q) / z)
    return float(np.mean(overlaps))


@pytest.fixture(scope="module")
def dense_artifacts(served_causer):
    return build_artifacts(served_causer, generation=1, retrieval=IVF)


@pytest.fixture(scope="module")
def dense_scores(dense_artifacts):
    return _scores(dense_artifacts)


def test_none_is_byte_identical(dense_artifacts, dense_scores):
    bundle = quantize_artifacts(dense_artifacts, "none")
    assert frozen_table_bytes(bundle) == frozen_table_bytes(dense_artifacts)
    scores = _scores(bundle)
    assert scores.dtype == dense_scores.dtype
    assert np.array_equal(scores, dense_scores)


def test_fp16_memory_and_overlap(dense_artifacts, dense_scores):
    bundle = quantize_artifacts(dense_artifacts, "fp16")
    ratio = frozen_table_bytes(dense_artifacts) / frozen_table_bytes(bundle)
    assert ratio >= 1.9, f"fp16 table shrink only {ratio:.2f}x"
    overlap = _topz_overlap(dense_scores, _scores(bundle))
    assert overlap >= 0.99, f"fp16 top-5 overlap {overlap:.3f}"


def test_int8_memory_and_overlap(dense_artifacts, dense_scores):
    bundle = quantize_artifacts(dense_artifacts, "int8")
    ratio = frozen_table_bytes(dense_artifacts) / frozen_table_bytes(bundle)
    # Per-row fp64 scale+offset cost 16 bytes, so the shrink is
    # 8d/(d+16): ~2.67x at the test's d=8, asymptoting to 8x for
    # production-sized rows.
    dim = dense_artifacts.output_table.shape[1]
    bound = 0.95 * (8 * dim) / (dim + 16)
    assert ratio >= bound, f"int8 table shrink only {ratio:.2f}x"
    overlap = _topz_overlap(dense_scores, _scores(bundle))
    assert overlap >= 0.9, f"int8 top-5 overlap {overlap:.3f}"


def test_quantized_candidate_scores_match_full_pass(dense_artifacts):
    """Gather-then-dequantize == dequantize-then-gather, bit for bit.

    This is the contract that keeps IVF re-rank scores consistent with
    the full-catalog pass under quantization (row-independent op order).
    """
    quantized = quantize_artifacts(dense_artifacts, "int8")
    store = SessionStore(capacity=8)
    view = store.ephemeral_view(3, HISTORIES[3], quantized)
    full = score_views(quantized, [view])[0]
    candidates = np.array([1, 5, 9, 17, 30])
    restricted = score_view_candidates(quantized, view, candidates)
    assert np.array_equal(restricted, full[candidates])


def test_invalid_mode_rejected(dense_artifacts):
    with pytest.raises(ValueError):
        quantize_artifacts(dense_artifacts, "fp8")
    with pytest.raises(ValueError, match="quantize"):
        ServeApp(quantize="fp8")


def _assert_quantized(bundle, mode):
    tables = [bundle.output_table, bundle.recurrent.input_table,
              bundle.retrieval.tower.vectors,
              *bundle.retrieval.index.list_vectors]
    for table in tables:
        assert isinstance(table, QuantizedTable)
        assert table.mode == mode


@pytest.mark.parametrize("mode", ["fp16", "int8"])
def test_precision_survives_hot_swap_and_refresh(served_causer, mode):
    """Every generation the registry installs is stored at ``mode``."""
    app = ServeApp(max_wait_ms=0.5, retrieval=IVF, quantize=mode)
    log = EventLog(None)
    try:
        loaded = app.install_model(served_causer)
        swapped = app.install_model(copy.deepcopy(served_causer))
        rng = np.random.default_rng(3)
        for _ in range(128):
            log.append(int(rng.integers(20)),
                       tuple(int(i) for i in rng.integers(1, 41, size=2)))
        trainer = OnlineTrainer(copy.deepcopy(served_causer), log, lr=0.05,
                                batch_events=16)
        trainer.pump()
        refresh = RefreshController(trainer, log, app.install_model,
                                    window=128)
        assert refresh.refresh_once() is True
        refreshed = app.registry.current()
        assert [loaded.generation, swapped.generation,
                refreshed.generation] == [1, 2, 3]
        for bundle in (loaded, swapped, refreshed):
            _assert_quantized(bundle, mode)
        client = InProcessClient(app)
        status, body = client.post("/v1/recommend",
                                   {"user_id": 1, "history": [[2], [5, 7]]})
        assert status == 200
        assert body["source"] == "model" and body["generation"] == 3
    finally:
        log.close()
        app.close()
