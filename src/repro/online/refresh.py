"""Periodic re-derivation of frozen artifacts + atomic hot swap.

The online trainer (``trainer.py``) only moves embedding rows; the
expensive, slow-moving state — the causal graph Ŵ of Algorithm 1, its
ε-gate, the cluster assignments, the recurrent weights — is re-derived
here on a sliding window of the event log, then atomically published:

1. deep-copy the trainer's current shadow model,
2. warm-start Algorithm 1 on samples expanded from ``log.window(W)``
   (``fit_samples(..., warm_start=True, num_epochs=REFRESH_EPOCHS)`` —
   multipliers, the seeded graph, and the h-stall tracker carry over),
3. measure drift (edge churn vs the previous causal graph, kept as its
   (V+1, K) eq.-9 factors, never a (V+1)² matrix; score divergence vs
   the frozen offline baseline on the window's first samples),
4. publish through the injected ``publish`` callable — the registry's
   generation-bumping ``install`` (via ``ServeApp.install_model``), which
   also applies the server's ``--quantize`` precision — and
5. hand the trainer a *fresh deep copy* to keep training.  Published
   artifacts alias the published model's arrays, so the model that went
   out must never be touched again.

Sessions survive the swap: ``SessionStore._sync`` lazily re-windows and
replays each session under the new generation on first touch, and the
registry's generation counter makes the swap atomic and monotone.
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..data.interactions import EvalSample
from .drift import DriftReport, edge_churn, score_divergence
from .log import EventLog, EventRecord
from .trainer import OnlineTrainer

__all__ = ["RefreshController", "build_refresh_samples"]

#: Algorithm 1 epochs per refresh, warm-started from the shadow model.
REFRESH_EPOCHS = 1
#: A window with fewer trainable samples publishes nothing.
MIN_SAMPLES = 8
#: Score divergence compares top-``PROBE_Z`` lists on the first
#: ``PROBE_LIMIT`` samples of the refreshed window.
PROBE_Z = 10
PROBE_LIMIT = 64


def build_refresh_samples(records: Sequence[EventRecord],
                          max_history: int) -> List[EvalSample]:
    """Expand a log window into per-user sequential prefix samples.

    Walks records in offset order; each event with a non-empty prior
    tail becomes one ``(history, target)`` sample, exactly the
    construction the online trainer uses for its micro-batches.
    """
    tails: Dict[int, List] = {}
    samples: List[EvalSample] = []
    for record in records:
        if not record.basket:
            continue
        tail = tails.setdefault(record.user_id, [])
        if tail:
            samples.append(EvalSample(
                user_id=record.user_id,
                history=tuple(tail[-max_history:]),
                target=record.basket))
        tail.append(record.basket)
    return samples


class RefreshController:
    """Drive refresh cycles, drift measurement, and hot swaps.

    ``publish`` receives the refreshed model and must make it live
    (``registry.install`` / ``app.install_model``).
    ``baseline`` is the frozen offline model used for score-divergence
    probes; it is only ever read (``score_samples`` under ``no_grad``).
    The probes are the first ``PROBE_LIMIT`` samples of the window each
    refresh re-derives from, so the divergence gauges stay live without
    held-out data at serve time.
    """

    def __init__(self, trainer: OnlineTrainer, log: EventLog,
                 publish: Callable, *, window: int = 2048,
                 baseline=None, interval: Optional[float] = None,
                 metrics=None) -> None:
        if window < 1:
            raise ValueError("refresh window must be positive")
        self.trainer = trainer
        self.log = log
        self.publish = publish
        self.window = int(window)
        self.baseline = baseline
        self.interval = interval
        self.metrics = metrics
        self.generations = 0
        self.last_report: Optional[DriftReport] = None
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- one refresh cycle -------------------------------------------------
    def refresh_once(self) -> bool:
        """Run one re-derive → drift → publish → adopt cycle.

        Returns ``False`` (and publishes nothing) when the window holds
        too few trainable samples to re-derive from.
        """
        records = self.log.window(self.window)
        samples = build_refresh_samples(records, self.trainer.max_history)
        if len(samples) < MIN_SAMPLES:
            return False
        snapshot = self.trainer.snapshot_model()
        causal = hasattr(snapshot, "causal_factors")
        # Fresh, private arrays: the refit below cannot alias them.
        previous = snapshot.causal_factors() if causal else None
        began = time.perf_counter()
        if causal:
            snapshot.fit_samples(samples, warm_start=True,
                                 num_epochs=REFRESH_EPOCHS)
        else:
            # Baselines have no warm-start hook; a refresh is a plain
            # (short, config-driven) re-fit on the window.
            snapshot.fit_samples(samples)
        elapsed = time.perf_counter() - began
        churn = None
        if previous is not None:
            churn = edge_churn(previous, snapshot.causal_factors(),
                               epsilon=float(snapshot.config.epsilon))
        divergence = None
        if self.baseline is not None:
            divergence = score_divergence(self.baseline, snapshot,
                                          samples[:PROBE_LIMIT], z=PROBE_Z)
        report = DriftReport.build(churn=churn, divergence=divergence)
        self.publish(snapshot)
        # The published model's arrays are now aliased by live serving
        # artifacts — the trainer continues on its own private copy.
        self.trainer.adopt_model(copy.deepcopy(snapshot))
        self.generations += 1
        self.last_report = report
        if self.metrics is not None:
            self.metrics.inc("online_refresh_total")
            self.metrics.observe("online_refresh_seconds", elapsed)
            for name, value in report.items():
                self.metrics.set_gauge(name, value)
        return True

    # -- background thread -------------------------------------------------
    def start(self) -> None:
        """Refresh every ``interval`` seconds on a daemon thread."""
        if self.interval is None or self.interval <= 0:
            raise ValueError("start() needs a positive refresh interval")
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            thread = threading.Thread(target=self._run,
                                      name="online-refresh", daemon=True)
            self._thread = thread
        thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.refresh_once()

    def stop(self) -> None:
        self._stop.set()
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join()
