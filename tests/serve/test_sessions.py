"""Session-store behaviour: incremental state, windowing, LRU, hot swap."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.data.batching import pad_samples
from repro.data.interactions import EvalSample
from repro.nn import RecurrentLayer, Tensor
from repro.serve.sessions import (DEGRADED_MAX_EVENTS, RecurrentServingParams,
                                  SessionState, SessionStore)


def _params(cell_type="gru", num_items=12, dim=4, hidden=5, max_history=6,
            seed=0, track_states=False):
    rng = np.random.default_rng(seed)
    table = rng.normal(size=(num_items + 1, dim)) * 0.3
    if cell_type == "gru":
        return RecurrentServingParams(
            cell_type="gru", input_table=table,
            w_ih=rng.normal(size=(3 * hidden, dim)) * 0.2,
            w_hh=rng.normal(size=(3 * hidden, hidden)) * 0.2,
            b_ih=rng.normal(size=3 * hidden) * 0.1,
            b_hh=rng.normal(size=3 * hidden) * 0.1, bias=None,
            init_h=lambda user: np.zeros((1, hidden)),
            max_history=max_history, track_states=track_states)
    return RecurrentServingParams(
        cell_type="lstm", input_table=table,
        w_ih=rng.normal(size=(4 * hidden, dim)) * 0.2,
        w_hh=rng.normal(size=(4 * hidden, hidden)) * 0.2,
        b_ih=None, b_hh=None, bias=rng.normal(size=4 * hidden) * 0.1,
        init_h=lambda user: np.zeros((1, hidden)),
        max_history=max_history, track_states=track_states)


def _artifacts(params, generation=1):
    num_items = params.input_table.shape[0] - 1
    return SimpleNamespace(generation=generation, recurrent=params,
                           num_items=num_items)


@pytest.mark.parametrize("cell_type", ["gru", "lstm"])
def test_session_states_match_training_unroll(cell_type):
    """Served per-step states == ``RecurrentLayer.forward`` on the padded
    history: the serve-versus-training contract at the state level."""
    hidden, dim = 5, 4
    rng = np.random.default_rng(11)
    layer = RecurrentLayer(cell_type, dim, hidden, rng)
    for param in layer.parameters():       # biases start at constants
        param.data[...] += rng.normal(size=param.data.shape) * 0.1
    cell = layer.cell
    table = rng.normal(size=(13, dim)) * 0.3
    params = RecurrentServingParams(
        cell_type=cell_type, input_table=table,
        w_ih=cell.w_ih.data, w_hh=cell.w_hh.data,
        b_ih=cell.b_ih.data if cell_type == "gru" else None,
        b_hh=cell.b_hh.data if cell_type == "gru" else None,
        bias=cell.bias.data if cell_type == "lstm" else None,
        init_h=lambda user: np.zeros((1, hidden)),
        max_history=8, track_states=True)
    histories = [((1, 3), (2,), (7, 8, 9), (4,), (12,)), ((5,), (6, 11))]
    batch = pad_samples([EvalSample(user_id=user, history=history,
                                    target=(1,))
                         for user, history in enumerate(histories)])
    inputs = (table[batch.items] * batch.basket_mask[..., None]).sum(axis=2)
    states, _ = layer(Tensor(inputs), step_mask=batch.step_mask)
    for user, history in enumerate(histories):
        session = SessionState(user_id=user)
        for basket in history:
            session.append(basket, params)
        np.testing.assert_allclose(np.asarray(session.states),
                                   states.data[user, :len(history)],
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("cell_type", ["gru", "lstm"])
class TestIncrementalReplayBitIdentity:
    def test_append_equals_replay(self, cell_type):
        """Event-by-event updates == full replay, to the last bit."""
        params = _params(cell_type, track_states=True)
        events = [(1, 3), (2,), (7, 8), (4,)]
        incremental = SessionState(user_id=2)
        for basket in events:
            incremental.append(basket, params)
        replayed = SessionState(user_id=2, events=list(events))
        replayed.replay(params)
        np.testing.assert_array_equal(incremental.h, replayed.h)
        if cell_type == "lstm":
            np.testing.assert_array_equal(incremental.c, replayed.c)
        np.testing.assert_array_equal(np.asarray(incremental.states),
                                      np.asarray(replayed.states))

    def test_window_overflow_replays_tail(self, cell_type):
        """Past ``max_history`` the oldest event drops and the window replays."""
        params = _params(cell_type, max_history=3)
        session = SessionState(user_id=0)
        all_events = [(i % 12 + 1,) for i in range(7)]
        for basket in all_events:
            session.append(basket, params)
        assert session.events == all_events[-3:]
        fresh = SessionState(user_id=0, events=list(all_events[-3:]))
        fresh.replay(params)
        np.testing.assert_array_equal(session.h, fresh.h)


class TestSessionStore:
    def test_lru_eviction(self):
        params = _params()
        store = SessionStore(capacity=2)
        art = _artifacts(params)
        store.append_event(1, (3,), art)
        store.append_event(2, (4,), art)
        store.append_event(1, (5,), art)   # touch 1 → 2 is now LRU
        store.append_event(3, (6,), art)   # evicts 2
        assert store.view(1) is not None and store.view(3) is not None
        assert store.view(2) is None
        assert store.evictions == 1

    def test_degraded_mode_keeps_events_only(self):
        store = SessionStore()
        for i in range(DEGRADED_MAX_EVENTS + 10):
            session = store.append_event(0, (i % 9 + 1,), None)
        assert len(session.events) == DEGRADED_MAX_EVENTS
        assert session.h is None

    def test_hot_swap_resyncs_lazily(self):
        """A generation bump rebuilds state under the new weights on touch."""
        old = _artifacts(_params(seed=0), generation=1)
        new = _artifacts(_params(seed=9), generation=2)
        store = SessionStore()
        events = [(2,), (5,), (7,)]
        for basket in events:
            store.append_event(4, basket, old)
        view = store.view(4, new)
        expected = SessionState(user_id=4, events=list(events))
        expected.replay(new.recurrent)
        np.testing.assert_array_equal(view.last, expected.h)

    def test_view_snapshot_is_decoupled(self):
        params = _params(track_states=True)
        art = _artifacts(params)
        store = SessionStore()
        store.append_event(1, (2,), art)
        view = store.view(1, art)
        before = view.last.copy()
        store.append_event(1, (3,), art)  # advances the live session
        np.testing.assert_array_equal(view.last, before)
        assert view.events == ((2,),)

    def test_ephemeral_view_not_stored(self):
        store = SessionStore()
        view = store.ephemeral_view(7, [(1,), (2,)], _artifacts(_params()))
        assert view.steps == 2
        assert store.view(7) is None

    def test_drop_and_missing(self):
        store = SessionStore()
        assert store.view(42) is None
        store.append_event(42, (1,), None)
        assert store.view(42) is not None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SessionStore(capacity=0)
