"""Per-user incremental session state with LRU eviction.

The online counterpart of :func:`repro.data.batching.pad_samples` +
a full RNN unroll: a :class:`SessionState` holds a user's event history
*and* the recurrent state that history induces, so feeding one new event
advances the GRU/LSTM hidden state in O(1) instead of re-running the whole
sequence.  Each step calls the training kernels' own cell forward
(:func:`repro.nn.fused.gru_cell` / :func:`~repro.nn.fused.lstm_cell`), and
the full-replay fallback (:meth:`SessionState.replay`) walks the same
step — so incremental and replayed states are **bit-identical by
construction**, a contract the tests assert with exact equality.

Windowing: models score at most ``max_history`` trailing steps (matching
offline ``pad_samples`` truncation).  Once a session exceeds the window,
appending an event drops the oldest one and replays the window — O(W)
for that event, still independent of the session's lifetime length.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..nn.fused import gru_cell, lstm_cell
from ..retrieval.towers import take_rows

#: Event cap for sessions accumulated while no checkpoint is loaded
#: (degraded mode): we cannot know the model's window yet, so keep a
#: generous tail and re-window when artifacts arrive.
DEGRADED_MAX_EVENTS = 256

Basket = Tuple[int, ...]


@dataclass
class RecurrentServingParams:
    """Frozen weight views + input tables driving incremental updates.

    Built once per checkpoint by the registry; numpy arrays are views into
    the loaded model's parameters (the model is frozen while serving — a
    hot swap replaces the whole artifact bundle, never mutates it).
    """

    cell_type: str                      # "gru" | "lstm"
    input_table: np.ndarray             # (V+1, d) per-item input embeddings
    w_ih: np.ndarray
    w_hh: np.ndarray
    b_ih: Optional[np.ndarray]          # gru only
    b_hh: Optional[np.ndarray]          # gru only
    bias: Optional[np.ndarray]          # lstm only
    init_h: Callable[[int], np.ndarray]  # user id -> (1, H) initial state
    max_history: int
    track_states: bool = False          # retain per-step states (attention)

    @property
    def hidden_size(self) -> int:
        return self.w_hh.shape[1]

    def initial_state(self, user_id: int
                      ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        h0 = self.init_h(user_id)
        if self.cell_type == "lstm":
            return h0, np.zeros_like(h0)
        return h0, None

    def embed_basket(self, basket: Sequence[int]) -> np.ndarray:
        """Basket-summed input embedding, shape ``(1, d)``.

        ``take_rows`` keeps the dense path byte-identical while letting
        quantized input tables dequantize only the gathered rows.
        """
        return take_rows(self.input_table,
                         list(basket)).sum(axis=0)[None, :]

    def step(self, basket: Sequence[int], h: np.ndarray,
             c: Optional[np.ndarray]
             ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Advance ``(h, c)`` by one event through the training cell."""
        x = self.embed_basket(basket)
        if self.cell_type == "lstm":
            return lstm_cell(x @ self.w_ih.T + self.bias, h, c,
                             self.w_hh)[:2]
        return gru_cell(x @ self.w_ih.T + self.b_ih, h, self.w_hh,
                        self.b_hh)[0], None


@dataclass
class ScoreView:
    """Immutable snapshot of a session handed to the scorer/batcher.

    Snapshotting under the store lock decouples scoring from concurrent
    ``/v1/events`` appends to the same session.
    """

    user_id: int
    events: Tuple[Basket, ...]
    states: Optional[np.ndarray]        # (T, H) per-step hidden states
    last: Optional[np.ndarray]          # (1, H) current hidden state

    @property
    def steps(self) -> int:
        return len(self.events)


@dataclass
class SessionState:
    """One user's live session: events + incremental recurrent state."""

    user_id: int
    events: List[Basket] = field(default_factory=list)
    h: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    states: List[np.ndarray] = field(default_factory=list)
    generation: int = -1

    # -- state evolution -------------------------------------------------
    def _advance(self, params: RecurrentServingParams,
                 basket: Basket) -> None:
        if self.h is None:
            self.h, self.c = params.initial_state(self.user_id)
        self.h, self.c = params.step(basket, self.h, self.c)
        if params.track_states:
            self.states.append(self.h[0])

    def replay(self, params: RecurrentServingParams) -> None:
        """Rebuild the recurrent state from the stored events.

        Walks the exact same step functions the incremental path uses, so
        the result is bit-identical to having fed the events one by one.
        """
        self.h, self.c = params.initial_state(self.user_id)
        self.states = []
        for basket in self.events:
            self._advance(params, basket)

    def append(self, basket: Sequence[int],
               params: Optional[RecurrentServingParams]) -> None:
        """Fold one new event in: O(1) inside the window, O(W) past it."""
        self.events.append(tuple(int(item) for item in basket))
        if params is None:
            # Degraded mode (no checkpoint): keep raw events only.
            if len(self.events) > DEGRADED_MAX_EVENTS:
                del self.events[0]
            return
        if len(self.events) > params.max_history:
            del self.events[:len(self.events) - params.max_history]
            self.replay(params)
        else:
            self._advance(params, basket=self.events[-1])

    # -- snapshots ---------------------------------------------------------
    def view(self) -> ScoreView:
        states = None
        if self.states:
            states = np.asarray(self.states)
        last = None if self.h is None else self.h.copy()
        return ScoreView(user_id=self.user_id, events=tuple(self.events),
                         states=states, last=last)


class SessionStore:
    """Thread-safe LRU map ``user_id -> SessionState``.

    Evictions are counted (``evictions`` attribute and, when a metrics
    registry is attached, the ``serve_sessions_evicted_total`` counter) —
    an evicted user's recurrent state silently restarts from scratch on
    their next event, which downstream consumers (the online trainer's
    resync logic, capacity dashboards) need to see rather than infer.
    """

    def __init__(self, capacity: int = 10_000, metrics=None) -> None:
        if capacity < 1:
            raise ValueError("session store capacity must be positive")
        self.capacity = capacity
        self.metrics = metrics
        self._lock = threading.RLock()
        self._sessions: "OrderedDict[int, SessionState]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def _sync(self, session: SessionState, artifacts) -> int:
        """Adopt a newly-swapped checkpoint: re-window + replay lazily.

        Sessions survive hot swaps; the first touch after a swap rebuilds
        the recurrent state from the stored events under the new weights.
        Items outside the new catalog (sent in degraded mode, or valid
        only under a larger previous model) are dropped first, and baskets
        left empty with them; returns how many items were dropped.
        """
        if artifacts is None or session.generation == artifacts.generation:
            return 0
        num_items = artifacts.num_items
        kept = [tuple(item for item in basket if item <= num_items)
                for basket in session.events]
        dropped = sum(len(old) - len(new)
                      for old, new in zip(session.events, kept))
        if dropped:
            session.events = [basket for basket in kept if basket]
        params = artifacts.recurrent
        if params is not None:
            if len(session.events) > params.max_history:
                del session.events[:len(session.events) - params.max_history]
            session.replay(params)
        else:
            session.h = session.c = None
            session.states = []
        session.generation = artifacts.generation
        return dropped

    def _count_dropped(self, dropped: int) -> None:
        if dropped and self.metrics is not None:
            self.metrics.inc("serve_session_items_dropped_total", by=dropped)

    def append_event(self, user_id: int, basket: Sequence[int],
                     artifacts=None) -> SessionState:
        """Record one event for ``user_id``, advancing recurrent state."""
        evicted = False
        dropped = 0
        with self._lock:
            session = self._sessions.get(user_id)
            if session is None:
                session = SessionState(user_id=user_id)
                if artifacts is not None:
                    session.generation = artifacts.generation
                self._sessions[user_id] = session
                if len(self._sessions) > self.capacity:
                    self._sessions.popitem(last=False)
                    self.evictions += 1
                    evicted = True
            else:
                dropped = self._sync(session, artifacts)
            self._sessions.move_to_end(user_id)
            session.append(
                basket,
                None if artifacts is None else artifacts.recurrent)
        # Counted outside the store lock: the metrics registry has its own
        # lock and every serving lock stays a leaf in the global order.
        if evicted and self.metrics is not None:
            self.metrics.inc("serve_sessions_evicted_total")
        self._count_dropped(dropped)
        return session

    def view(self, user_id: int, artifacts=None) -> Optional[ScoreView]:
        """Scoring snapshot of a stored session (None when absent)."""
        with self._lock:
            session = self._sessions.get(user_id)
            if session is None:
                return None
            dropped = self._sync(session, artifacts)
            self._sessions.move_to_end(user_id)
            view = session.view()
        self._count_dropped(dropped)
        return view

    def ephemeral_view(self, user_id: int,
                       history: Sequence[Sequence[int]],
                       artifacts) -> ScoreView:
        """One-shot session for an explicit request history (not stored)."""
        session = SessionState(user_id=user_id)
        if artifacts is not None:
            session.generation = artifacts.generation
        params = None if artifacts is None else artifacts.recurrent
        for basket in history:
            session.append(basket, params)
        return session.view()
