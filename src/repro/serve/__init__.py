"""Online inference for trained checkpoints (`python -m repro serve`).

Layers, bottom-up:

* :mod:`repro.serve.metrics` — thread-safe counters + latency histograms
  with Prometheus text export,
* :mod:`repro.serve.sessions` — per-user recurrent state advanced
  incrementally per event (O(1) inside the model's history window), with
  a bit-identical full-replay fallback and LRU eviction,
* :mod:`repro.serve.registry` — checkpoint loading via :mod:`repro.io`,
  frozen artifact precompute (eq. 9's rank-K causal factors, embedding
  tables; no (V+1)² array), optional fp16/int8 table quantization and
  lock-guarded hot swap,
* :mod:`repro.serve.scoring` — incremental and replay scorers whose
  rankings match offline :func:`repro.eval.evaluate_model` output,
* :mod:`repro.serve.batcher` — micro-batching scheduler
  (``max_batch_size`` / ``max_wait_ms``),
* :mod:`repro.serve.http` — the :class:`ServeApp` route core, a socket-free
  :class:`InProcessClient`, and the stdlib HTTP server.

Serving runs in one process: a threaded HTTP server over one registry
(docs/SERVING.md says why there is no multi-process mode).
"""

from .batcher import MicroBatcher
from .http import InProcessClient, ServeApp, ServeError, ServeServer
from .metrics import MetricsRegistry
from .registry import (CausalServingArtifacts, CheckpointRegistry,
                       GRUServingArtifacts, RetrievalArtifact,
                       ServingArtifacts, build_artifacts, build_retrieval,
                       quantize_artifacts)
from .scoring import score_view_candidates, score_views, top_causal_edges
from .sessions import (RecurrentServingParams, ScoreView, SessionState,
                       SessionStore)

__all__ = [
    "CausalServingArtifacts", "CheckpointRegistry", "GRUServingArtifacts",
    "InProcessClient", "MetricsRegistry", "MicroBatcher",
    "RecurrentServingParams", "RetrievalArtifact", "ScoreView", "ServeApp",
    "ServeError", "ServeServer", "ServingArtifacts", "SessionState",
    "SessionStore", "build_artifacts", "build_retrieval",
    "quantize_artifacts", "score_view_candidates", "score_views",
    "top_causal_edges",
]
