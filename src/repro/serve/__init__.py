"""Online inference for trained checkpoints (`python -m repro serve`).

Layers, bottom-up:

* :mod:`repro.serve.metrics` — thread-safe counters + latency histograms
  with Prometheus text export,
* :mod:`repro.serve.sessions` — per-user recurrent state advanced
  incrementally per event (O(1) inside the model's history window), with
  a bit-identical full-replay fallback and LRU eviction,
* :mod:`repro.serve.registry` — checkpoint loading via :mod:`repro.io`,
  frozen artifact precompute (eq. 9's rank-K causal factors, embedding
  tables; no (V+1)² array) and lock-guarded hot swap,
* :mod:`repro.serve.scoring` — incremental and replay scorers whose
  rankings match offline :func:`repro.eval.evaluate_model` output,
* :mod:`repro.serve.batcher` — micro-batching scheduler
  (``max_batch_size`` / ``max_wait_ms``),
* :mod:`repro.serve.http` — the :class:`ServeApp` route core, a socket-free
  :class:`InProcessClient`, and the stdlib HTTP server,
* :mod:`repro.serve.shm` — shared-memory checkpoint transport: one
  coordinator materializes each generation's frozen artifacts (optionally
  fp16/int8-quantized) into a ``multiprocessing.shared_memory`` segment,
  workers attach zero-copy read-only views,
* :mod:`repro.serve.mp` — the sharded multi-process cluster: N spawn
  workers behind a user-id-hash router, refcounted segment unlink, a
  lock-free shared metrics slab, crash detection + respawn.
"""

from .batcher import MicroBatcher
from .http import InProcessClient, ServeApp, ServeError, ServeServer
from .metrics import MetricsRegistry
from .mp import ServeCluster, WorkerSpec, partition, worker_main
from .registry import (CausalServingArtifacts, CheckpointRegistry,
                       GRUServingArtifacts, RetrievalArtifact,
                       ServingArtifacts, build_artifacts, build_retrieval)
from .scoring import score_view_candidates, score_views, top_causal_edges
from .sessions import (RecurrentServingParams, ScoreView, SessionState,
                       SessionStore)
from .shm import (SEGMENT_PREFIX, AttachedArtifacts, MetricsSlab,
                  ShmCheckpoint, cleanup_segments, frozen_table_bytes,
                  list_segments, publish_artifacts, quantize_artifacts)

__all__ = [
    "AttachedArtifacts", "CausalServingArtifacts", "CheckpointRegistry",
    "GRUServingArtifacts", "InProcessClient", "MetricsRegistry",
    "MetricsSlab", "MicroBatcher", "RecurrentServingParams",
    "RetrievalArtifact", "SEGMENT_PREFIX", "ScoreView", "ServeApp",
    "ServeCluster", "ServeError", "ServeServer", "ServingArtifacts",
    "SessionState", "SessionStore", "ShmCheckpoint", "WorkerSpec",
    "build_artifacts", "build_retrieval", "cleanup_segments",
    "frozen_table_bytes", "list_segments", "partition", "publish_artifacts", "quantize_artifacts",
    "score_view_candidates", "score_views", "top_causal_edges",
    "worker_main",
]
