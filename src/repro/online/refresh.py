"""Periodic re-derivation of frozen artifacts + atomic hot swap.

The online trainer (``trainer.py``) only moves embedding rows; the
expensive, slow-moving state — the causal graph Ŵ of Algorithm 1, its
ε-gate, the cluster assignments, the recurrent weights — is re-derived
here on a sliding window of the event log, then atomically published:

1. deep-copy the trainer's current shadow model,
2. warm-start Algorithm 1 on samples expanded from ``log.window(W)``
   (``fit_samples(..., warm_start=True, num_epochs=refresh_epochs)`` —
   multipliers, the seeded graph, and the h-stall tracker carry over),
3. measure drift (edge churn vs the previous causal graph, kept as its
   (V+1, K) eq.-9 factors, never a (V+1)² matrix; score divergence vs
   the frozen offline baseline on a probe set),
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

# Algorithm 1's acyclicity term h(W) needs scipy's expm, which the rest of
# serving never touches.  Importing it here puts its cost in an --online
# server's start-up, before /healthz reports ok, instead of inside the
# first refresh under traffic.  A refresh builds no DiGraph, so networkx
# stays unloaded.
import scipy.linalg  # noqa: F401

from ..data.interactions import EvalSample
from .drift import DriftReport, edge_churn, score_divergence
from .log import EventLog, EventRecord
from .trainer import OnlineTrainer

__all__ = ["RefreshController", "build_refresh_samples"]


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
    """

    def __init__(self, trainer: OnlineTrainer, log: EventLog,
                 publish: Callable, *, window: int = 2048,
                 refresh_epochs: int = 1, min_samples: int = 8,
                 baseline=None, probes: Sequence[EvalSample] = (),
                 probe_z: int = 10, probe_limit: int = 64,
                 interval: Optional[float] = None,
                 metrics=None) -> None:
        if window < 1:
            raise ValueError("refresh window must be positive")
        self.trainer = trainer
        self.log = log
        self.publish = publish
        self.window = int(window)
        self.refresh_epochs = int(refresh_epochs)
        self.min_samples = max(1, int(min_samples))
        self.baseline = baseline
        self.probes = list(probes)
        self.probe_z = int(probe_z)
        self.probe_limit = int(probe_limit)
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
        if len(samples) < self.min_samples:
            return False
        snapshot = self.trainer.snapshot_model()
        causal = hasattr(snapshot, "causal_factors")
        # Fresh, private arrays: the refit below cannot alias them.
        previous = snapshot.causal_factors() if causal else None
        began = time.perf_counter()
        if causal:
            snapshot.fit_samples(samples, warm_start=True,
                                 num_epochs=self.refresh_epochs)
        else:
            # Baselines have no warm-start hook; a refresh is a plain
            # (short, config-driven) re-fit on the window.
            snapshot.fit_samples(samples)
        elapsed = time.perf_counter() - began
        churn = None
        if previous is not None:
            churn = edge_churn(previous, snapshot.causal_factors(),
                               epsilon=float(snapshot.config.epsilon))
        # With no explicit probe set, probe on a slice of the very window
        # we refreshed from — keeps the divergence gauges live in CLI
        # deployments that have no held-out data at serve time.
        probes = self.probes or samples[:self.probe_limit]
        divergence = None
        if self.baseline is not None and probes:
            divergence = score_divergence(self.baseline, snapshot,
                                          list(probes), z=self.probe_z)
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
