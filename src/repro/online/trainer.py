"""Background trainer applying event micro-batches to a shadow model.

The online half of §III-C's slow-update story: serving keeps handing out
scores from the *frozen* published checkpoint while this trainer folds
the live event stream into a private **shadow copy** of the model —
optimizer steps on the embedding-family parameters only (item/output/user
embeddings plus the output bias).  The recurrent weights and the causal
graph stay fixed between refreshes; re-deriving them (Algorithm 1
warm-started on a sliding window) is the
:class:`repro.online.refresh.RefreshController`'s job, which then hot
swaps the refreshed shadow into the registry.

Determinism contract (the replay guarantee):

* Events are consumed strictly in log-offset order, in fixed-size
  micro-batches at fixed offsets — batch ``k`` is exactly offsets
  ``[k*B, (k+1)*B)`` and is applied **exactly once**.  A partial tail
  batch is never applied; it waits until the log fills it.
* Negative sampling for batch ``k`` draws from
  ``default_rng(SeedSequence(seed, spawn_key=(k,)))`` — independent of
  wall clock, thread timing, or which request thread appended.

Together these make ``python -m repro.online replay`` bit-reproduce the
live shadow tables from the log alone.

Session-eviction resync: the trainer keeps its own bounded LRU of
per-user history tails.  When a user reappears after their tail was
evicted (or after the serving :class:`SessionStore` dropped them — same
symptom upstream), the event is treated as the start of a fresh session
(``online_trainer_resyncs_total``), never as a corrupt append.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict, deque
from typing import Deque, List, Optional, Set, Tuple

import numpy as np

from ..data.batching import pad_samples, sample_negatives
from ..data.interactions import EvalSample
from ..nn.optim import make_optimizer
from .log import EventLog

__all__ = ["OnlineTrainer", "ONLINE_PARAM_TOKENS"]

#: Parameter-name fragments eligible for online steps.  Everything else
#: (recurrent cells, attention, the causal graph) is frozen between
#: refreshes — the cheap/fast vs expensive/slow split of §III-C.
ONLINE_PARAM_TOKENS = ("item_embedding", "output_embedding",
                      "user_embedding", "output_bias")

#: Optimizer of the online steps (see :func:`repro.nn.optim.make_optimizer`).
OPTIMIZER = "adagrad"
#: Global gradient-norm clip applied before every online step.
CLIP_NORM = 5.0
#: Users whose history tails the trainer keeps (least recently seen go).
TAIL_CAPACITY = 10_000
#: Seconds the background thread sleeps between pumps.
POLL_INTERVAL = 0.05

Basket = Tuple[int, ...]


def select_online_params(model) -> List:
    """Embedding-family parameters of ``model``, in stable name order."""
    return [param for name, param in model.named_parameters()
            if any(token in name for token in ONLINE_PARAM_TOKENS)]


class OnlineTrainer:
    """Consume an :class:`EventLog` into updates on a shadow model.

    ``model`` must be a *private trainable copy* (its own ``load_model``
    or a deepcopy) — published serving artifacts alias the
    published model's arrays, so the trainer must never share parameters
    with anything the registry holds.

    ``lr == 0`` disables updates entirely (no optimizer is even
    constructed — :class:`repro.nn.optim.Optimizer` rejects ``lr <= 0``);
    events are still consumed so offsets, tails, and lag metrics stay
    truthful, and serving output is bit-identical to the frozen
    checkpoint (the ``--online-lr 0`` parity contract).
    """

    def __init__(self, model, log: EventLog, *, lr: float = 0.01,
                 batch_events: int = 32, num_negatives: int = 4,
                 seed: int = 0, start_offset: int = 0,
                 metrics=None) -> None:
        if batch_events < 1:
            raise ValueError("batch_events must be positive")
        if start_offset % batch_events != 0:
            raise ValueError(
                "start_offset must be a micro-batch boundary "
                f"(a multiple of {batch_events}) so batch indices — and "
                "therefore negative-sampling streams — line up with a "
                "from-zero replay")
        self.log = log
        self.lr = float(lr)
        self.batch_events = int(batch_events)
        self.num_negatives = int(num_negatives)
        self.seed = int(seed)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._consumed = int(start_offset)
        self._steps = 0
        self._tails: "OrderedDict[int, Deque[Basket]]" = OrderedDict()
        self._seen: Set[int] = set()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        with self._lock:
            self._adopt_locked(model)

    # -- model / optimizer plumbing --------------------------------------
    def _adopt_locked(self, model) -> None:
        self.model = model
        self.max_history = int(model.config.max_history)
        self._causal = hasattr(model, "causal_factors")
        params = select_online_params(model)
        if self.lr > 0.0:
            self._optimizer = make_optimizer(OPTIMIZER, params, self.lr)
        else:
            self._optimizer = None

    def snapshot_model(self):
        """Deep copy of the shadow model (safe to publish or fit further)."""
        with self._lock:
            return copy.deepcopy(self.model)

    def adopt_model(self, model) -> None:
        """Replace the shadow with a refreshed model (private copy!).

        Optimizer state restarts cold: a refresh re-derives the very
        rows the moments describe, so stale curvature estimates would
        mis-scale the first post-refresh steps.
        """
        with self._lock:
            self._adopt_locked(model)

    # -- consumption ------------------------------------------------------
    @property
    def consumed_offset(self) -> int:
        """Next log offset the trainer will consume."""
        with self._lock:
            return self._consumed

    @property
    def steps(self) -> int:
        with self._lock:
            return self._steps

    def pump(self) -> int:
        """Apply every complete pending micro-batch; return how many.

        Safe to call from tests/CLI while the background thread runs —
        consumption is serialized by the trainer lock, and each batch is
        claimed (offset advanced) in the same critical section that
        applies it, so no batch can be applied twice.
        """
        applied = 0
        while True:
            with self._lock:
                info = self._pump_one_locked()
            if info is None:
                break
            applied += 1
            self._emit(info)
        if applied and self.metrics is not None:
            self.metrics.set_gauge("online_update_lag",
                                   self.log.next_offset
                                   - self.consumed_offset)
        return applied

    def _emit(self, info: dict) -> None:
        # Metrics fire outside the trainer lock — the registry lock stays
        # a leaf, same discipline as the serving stores.
        if self.metrics is None:
            return
        self.metrics.inc("online_events_consumed_total",
                         by=float(self.batch_events))
        if info["resyncs"]:
            self.metrics.inc("online_trainer_resyncs_total",
                             by=float(info["resyncs"]))
        if info["stepped"]:
            self.metrics.inc("online_steps_total")
            self.metrics.observe("online_batch_seconds", info["seconds"])

    def _pump_one_locked(self) -> Optional[dict]:
        start = self._consumed
        records = self.log.read(start, start + self.batch_events)
        if len(records) < self.batch_events:
            return None
        batch_index = start // self.batch_events
        resyncs = 0
        samples: List[EvalSample] = []
        for record in records:
            tail = self._tails.get(record.user_id)
            if tail is None:
                if record.user_id in self._seen:
                    # The user's tail was evicted (here or in the serving
                    # SessionStore): resynchronize on a fresh session.
                    resyncs += 1
                tail = deque(maxlen=self.max_history)
                self._tails[record.user_id] = tail
                self._seen.add(record.user_id)
                if len(self._tails) > TAIL_CAPACITY:
                    self._tails.popitem(last=False)
            self._tails.move_to_end(record.user_id)
            if not record.basket:
                continue
            if tail:
                # Cold-start events (empty prior tail) seed the tail but
                # yield no sample — pad_samples needs a non-empty history.
                samples.append(EvalSample(user_id=record.user_id,
                                          history=tuple(tail),
                                          target=record.basket))
            tail.append(record.basket)
        self._consumed = start + self.batch_events
        info = {"resyncs": resyncs, "stepped": False, "seconds": 0.0}
        if samples and self._optimizer is not None:
            began = time.perf_counter()
            self._step_locked(samples, batch_index)
            info["stepped"] = True
            info["seconds"] = time.perf_counter() - began
        return info

    def _step_locked(self, samples: List[EvalSample],
                     batch_index: int) -> None:
        batch = pad_samples(samples, max_history=self.max_history)
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(batch_index,)))
        sample_negatives(batch, self.model.num_items, self.num_negatives,
                         rng)
        self.model.train()
        self.model.zero_grad()
        if self._causal:
            # Causal penalties drive parameters the online step freezes;
            # computing their gradients here would be pure waste.
            loss = self.model.training_loss(batch,
                                            include_causal_penalties=False)
        else:
            loss = self.model.training_loss(batch)
        loss.backward()
        self._optimizer.clip_grad_norm(CLIP_NORM)
        self._optimizer.step()
        self.model._after_step()
        self._steps += 1

    # -- background thread -------------------------------------------------
    def start(self) -> None:
        """Run the pump loop on a daemon thread until :meth:`stop`."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            thread = threading.Thread(target=self._run,
                                      name="online-trainer", daemon=True)
            self._thread = thread
        thread.start()

    def _run(self) -> None:
        while not self._stop.wait(POLL_INTERVAL):
            self.pump()
        self.pump()  # final drain of complete batches

    def stop(self) -> None:
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join()
